package main

// Input generators. Every workload's inputs are built here from the seed and
// the corpus packages alone; the analyzer only ever sees the generated
// source and spec text.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"pallas/internal/corpus"
	"pallas/internal/report"
	"pallas/internal/spec"
)

// unit is one analysis input together with its known answer.
type unit struct {
	// ID names the unit in disagreement listings; stable for a seed.
	ID string
	// Name is the file name handed to the analyzer.
	Name   string
	Source string
	Spec   string
	// Want is the expected multiset of warning findings, sorted.
	Want []string
}

// hashInputs returns a length-framed SHA-256 over every byte of the given
// units (IDs, names, sources, specs and known answers), in order.
func hashInputs(us []unit) string {
	h := sha256.New()
	put := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	for _, u := range us {
		put(u.ID)
		put(u.Name)
		put(u.Source)
		put(u.Spec)
		put(strings.Join(u.Want, ","))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bigFiles lists the seven subsystem-scale units with their file names.
var bigFiles = []struct {
	key  string
	file string
	get  func() (string, string)
}{
	{"mm", "mm/page_alloc.c", corpus.BigFile},
	{"net", "net/ipv4/tcp_input.c", corpus.BigFileNet},
	{"fs", "fs/ubifs/file.c", corpus.BigFileFS},
	{"dev", "drivers/scsi/mpt3sas_base.c", corpus.BigFileDev},
	{"wb", "chromium/task_queue_impl.cc", corpus.BigFileWB},
	{"sdn", "ovs/dpif-netdev.c", corpus.BigFileSDN},
	{"mob", "android/binder.c", corpus.BigFileMob},
}

// padShape fixes how much structure padding adds to one function. Path
// counts multiply per construct: a rung pair ×4 (×3 at balanced/strict,
// which prune the contradictory both-taken combination), a rung ×2, a
// switch ×4, a loop over a symbolic bound ×2 (MaxBlockVisits = 2). Chains
// add helper functions without multiplying paths (callees are summarized).
type padShape struct {
	pairs, rungs, switches, loops, chain int
}

// deepShape pads deep-units functions: 9×4×4×2 = 288 strict paths per
// original path, so functions with two or more paths hit MaxPaths (512).
var deepShape = padShape{pairs: 2, rungs: 2, switches: 1, loops: 1, chain: 3}

// serveShape pads serve-edits template functions below MaxPaths at the fast
// tier (4×4×4 = 64 per template path) so every function stays memoizable.
var serveShape = padShape{pairs: 1, rungs: 2, switches: 1, chain: 2}

// bigServeShape pads BigFile functions in serve-edits lightly: their own
// paths already multiply.
var bigServeShape = padShape{rungs: 1, chain: 1}

// padder renders padding over locals and helpers the spec never names. All
// identifiers carry a per-unit prefix, so no two units share a function.
type padder struct {
	rng    *rand.Rand
	prefix string
	n      int // functions padded so far (helper name uniqueness)
}

// pad inserts padding at the top of every named function's body, helpers
// before the function, and returns the new source. Padding sits above the
// original body so a MaxPaths cut still keeps one complete copy of the
// function's own paths. The edit-slot line `<p>rev = <k>;` is what
// body-only edits change; revs maps a function to its slot value.
func (pd *padder) pad(src string, fns []string, shape padShape, revs map[string]int) string {
	lines := strings.Split(src, "\n")
	for _, fn := range fns {
		sig, brace := findFunc(lines, fn)
		if sig < 0 {
			continue
		}
		p := fmt.Sprintf("%s%d_", pd.prefix, pd.n)
		pd.n++
		helpers, body := pd.render(p, shape, revs[fn])
		var out []string
		out = append(out, lines[:sig]...)
		out = append(out, helpers...)
		out = append(out, lines[sig:brace+1]...)
		out = append(out, body...)
		out = append(out, lines[brace+1:]...)
		lines = out
	}
	return strings.Join(lines, "\n")
}

// findFunc locates a function definition: the column-0 line naming it (not a
// prototype) and the opening-brace line that follows within a few lines.
func findFunc(lines []string, fn string) (sig, brace int) {
	for i, l := range lines {
		if l == "" || l[0] == ' ' || l[0] == '\t' || !strings.Contains(l, fn+"(") || strings.HasSuffix(strings.TrimSpace(l), ";") {
			continue
		}
		// The name must be a whole identifier.
		k := strings.Index(l, fn+"(")
		if k > 0 && isIdent(l[k-1]) {
			continue
		}
		for j := i + 1; j < len(lines) && j <= i+4; j++ {
			if strings.TrimSpace(lines[j]) == "{" {
				return i, j
			}
			if strings.HasSuffix(strings.TrimSpace(lines[j]), ";") {
				break
			}
		}
	}
	return -1, -1
}

func isIdent(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// render builds the helper definitions and the body prologue for one
// function. The seed picks constants and the order of the constructs; the
// construct multiset (and so the path count) is fixed by the shape.
func (pd *padder) render(p string, s padShape, rev int) (helpers, body []string) {
	rng := pd.rng
	for i := 0; i < s.chain; i++ {
		next := fmt.Sprintf("return x + %d;", 1+rng.Intn(9))
		if i+1 < s.chain {
			next = fmt.Sprintf("return %sh%d(x - %d);", p, i+1, 1+rng.Intn(5))
		}
		// Define callees first so every call refers to a known function.
		helpers = append([]string{
			fmt.Sprintf("static int %sh%d(int x)", p, i),
			"{",
			fmt.Sprintf("\tif (x > %d)", 2+rng.Intn(20)),
			"\t\t" + next,
			fmt.Sprintf("\treturn x - %d;", 1+rng.Intn(9)),
			"}",
		}, helpers...)
	}
	body = append(body,
		fmt.Sprintf("\tint %sacc = %d;", p, rng.Intn(100)),
		fmt.Sprintf("\tint %srev;", p),
		fmt.Sprintf("\t%srev = %d;", p, rev),
	)
	type piece []string
	var pieces []piece
	for i := 0; i < s.pairs; i++ {
		v := fmt.Sprintf("%sa%d", p, i)
		hi := 6 + rng.Intn(20)
		lo := 1 + rng.Intn(5)
		pieces = append(pieces, piece{
			fmt.Sprintf("\tint %s;", v),
			fmt.Sprintf("\tif (%s > %d)", v, hi),
			fmt.Sprintf("\t\t%sacc = %sacc + %d;", p, p, 1+rng.Intn(9)),
			fmt.Sprintf("\tif (%s < %d)", v, lo),
			fmt.Sprintf("\t\t%sacc = %sacc - %d;", p, p, 1+rng.Intn(9)),
		})
	}
	for i := 0; i < s.rungs; i++ {
		v := fmt.Sprintf("%sr%d", p, i)
		ops := []string{">", "<", ">=", "<=", "!="}
		pieces = append(pieces, piece{
			fmt.Sprintf("\tint %s;", v),
			fmt.Sprintf("\tif (%s %s %d)", v, ops[rng.Intn(len(ops))], rng.Intn(50)),
			fmt.Sprintf("\t\t%sacc = %sacc ^ %d;", p, p, 1+rng.Intn(255)),
		})
	}
	for i := 0; i < s.switches; i++ {
		v := fmt.Sprintf("%ss%d", p, i)
		base := rng.Intn(8)
		pieces = append(pieces, piece{
			fmt.Sprintf("\tint %s;", v),
			fmt.Sprintf("\tswitch (%s) {", v),
			fmt.Sprintf("\tcase %d:", base),
			fmt.Sprintf("\t\t%sacc = %sacc + %d;", p, p, 1+rng.Intn(9)),
			"\t\tbreak;",
			fmt.Sprintf("\tcase %d:", base+1+rng.Intn(3)),
			fmt.Sprintf("\t\t%sacc = %sacc * %d;", p, p, 2+rng.Intn(5)),
			"\t\tbreak;",
			fmt.Sprintf("\tcase %d:", base+10+rng.Intn(3)),
			fmt.Sprintf("\t\t%sacc = %sacc - %d;", p, p, 1+rng.Intn(9)),
			"\t\tbreak;",
			"\tdefault:",
			"\t\tbreak;",
			"\t}",
		})
	}
	for i := 0; i < s.loops; i++ {
		v := fmt.Sprintf("%si%d", p, i)
		n := fmt.Sprintf("%sn%d", p, i)
		pieces = append(pieces, piece{
			fmt.Sprintf("\tint %s;", v),
			fmt.Sprintf("\tint %s;", n),
			fmt.Sprintf("\tfor (%s = 0; %s < %s; %s++)", v, v, n, v),
			fmt.Sprintf("\t\t%sacc = %sacc + %s;", p, p, v),
		})
	}
	if s.chain > 0 {
		pieces = append(pieces, piece{
			fmt.Sprintf("\t%sacc = %sh0(%sacc);", p, p, p),
		})
	}
	rng.Shuffle(len(pieces), func(i, j int) { pieces[i], pieces[j] = pieces[j], pieces[i] })
	for _, pc := range pieces {
		body = append(body, pc...)
	}
	return helpers, body
}

// analyzedFuncs returns the functions a spec makes the analyzer extract.
func analyzedFuncs(specText string) []string {
	sp, err := spec.Parse(specText)
	if err != nil {
		return nil
	}
	return sp.AnalyzedFuncs()
}

// templateUnit renders one template variant for a system and sequence
// number, padded with shape. buggy selects Buggy or Clean.
func templateUnit(finding string, buggy bool, sys corpus.System, seq int, pd *padder, shape padShape, revs map[string]int) unit {
	t := corpus.Templates[finding]
	n := corpus.NamesFor(sys, seq)
	variant, kind := t.Clean, "clean"
	if buggy {
		variant, kind = t.Buggy, "buggy"
	}
	src, sp := variant(n)
	src = pd.pad(src, analyzedFuncs(sp), shape, revs)
	return unit{
		ID:     fmt.Sprintf("deep/%s/%s/%s-%d", finding, kind, strings.ToLower(string(sys)), seq),
		Name:   n.FileName(t.Stem),
		Source: src,
		Spec:   sp,
		Want:   templateWant(finding, buggy),
	}
}

// deepUnits returns the deep-units workload: the seven BigFiles, padded,
// the feasibility traps, and one padded Buggy and one padded Clean unit per
// template (24), in seed-permuted order. The seed picks each template
// unit's system flavor, the padding constants and construct order, and the
// unit order; the template mix and padding shape are fixed.
func deepUnits(seed int64) []unit {
	rng := rand.New(rand.NewSource(seed))
	var us []unit
	for bi, b := range bigFiles {
		src, sp := b.get()
		pd := &padder{rng: rng, prefix: fmt.Sprintf("bd%d_", bi)}
		src = pd.pad(src, analyzedFuncs(sp), deepShape, nil)
		us = append(us, unit{ID: "bigfile/" + b.key, Name: b.file, Source: src, Spec: sp, Want: bigFileWant[b.key]})
	}
	for _, fc := range corpus.FeasCases() {
		us = append(us, unit{ID: fc.ID, Name: strings.ReplaceAll(fc.ID, "/", "_") + ".c", Source: fc.Source, Spec: fc.Spec, Want: feasWant(fc, deepPrecision)})
	}
	systems := corpus.Systems()
	for i, f := range report.AllFindings() { // fixed order: the template mix never depends on the seed
		for _, buggy := range []bool{true, false} {
			seq := 5000 + 2*i
			if !buggy {
				seq++
			}
			pd := &padder{rng: rng, prefix: fmt.Sprintf("bz%d_", seq)}
			us = append(us, templateUnit(f, buggy, systems[rng.Intn(len(systems))], seq, pd, deepShape, nil))
		}
	}
	rng.Shuffle(len(us), func(i, j int) { us[i], us[j] = us[j], us[i] })
	return us
}

// Edit classes of the serve-edits script.
const (
	kindFirst   = "first-seen" // new content: cold analysis, cache and memo writes
	kindResub   = "resubmit"   // exact repeat: result-cache hit
	kindComment = "comment"    // same-line comment added: memo unit replay
	kindBody    = "body-edit"  // one function's edit slot changed: partial memo reuse
	kindFlip    = "flip"       // buggy↔fixed: known verdict flips
)

var editKinds = []string{kindFirst, kindResub, kindComment, kindBody, kindFlip}

// request is one step of the serve-edits script.
type request struct {
	unit
	Kind string
	// Body is the pre-encoded /v1/analyze request body.
	Body []byte
}

// family is one unit whose revisions are replayed in order, one request at
// a time. A family's functions are named uniquely, so no cache or memo key is shared
// across families and per-pass hit/miss counts do not depend on how the two
// clients interleave.
type family struct {
	reqs []request
}

// Per-family request patterns. They model one assumed scenario; no
// recorded editor or CI traffic exists to calibrate them against. Each
// family is one file under active work, checked by two consumers: an editor
// integration on every save (first-seen, comment, body-edit and flip
// requests) and a re-check of the saved bytes by a second consumer such as
// a pre-commit hook (a resubmit after most changes). Template families go
// through fix, regress and re-fix cycles (flips); BigFiles have no fixed
// variant. The deep-padded page allocator is analyzed once and then only
// re-fetched. Beyond the scenario, the counts are chosen so that every
// edit class gets at least 20 requests per pass, enough for a regression in
// its code path to move the end-to-end figures. Per pass this gives (for
// every seed) first-seen 20, resubmit 129, comment 57, body-edit 38 and flip
// 36 of 280 requests; the run prints these counts and each class's verdict
// median.
var (
	templatePattern = []string{
		kindFirst, kindResub, kindComment, kindResub, kindBody, kindResub,
		kindFlip, kindResub, kindComment, kindFlip, kindResub, kindBody,
		kindComment, kindResub, kindFlip, kindResub,
	}
	giantPattern   = []string{kindFirst, kindResub, kindResub, kindResub}
	bigFilePattern = []string{
		kindFirst, kindResub, kindComment, kindResub, kindBody, kindResub,
		kindComment, kindResub, kindBody, kindResub, kindComment, kindResub,
	}
)

// serveFamilies builds the serve-edits script: one family per BigFile, one
// deep-padded page allocator, and one per template (each with a uniquely
// named Buggy/Clean pair). The seed
// picks flavors, padding constants, edit targets, comment and slot values,
// and the family order; the pattern of edit classes is fixed.
func serveFamilies(seed int64) []family {
	rng := rand.New(rand.NewSource(seed))
	var fams []family
	for bi, b := range bigFiles {
		src, sp := b.get()
		fns := analyzedFuncs(sp)
		st := &revState{rev: map[string]int{}}
		mk := func() unit {
			pd := &padder{rng: rand.New(rand.NewSource(seed*7919 + int64(bi))), prefix: fmt.Sprintf("bs%d_", bi)}
			return unit{
				ID:     "bigfile/" + b.key,
				Name:   b.file,
				Source: st.commentOn(pd.pad(src, fns, bigServeShape, st.rev)),
				Spec:   sp,
				Want:   bigFileWant[b.key],
			}
		}
		fams = append(fams, family{reqs: script(bigFilePattern, rng, fns, st, func(bool) unit { return mk() })})
	}
	// The page allocator once more, padded as deep-units pads it (four
	// functions cut at MaxPaths) under its own file name, submitted cold
	// once per pass and then only re-fetched: the script's heaviest request.
	src, sp := corpus.BigFile()
	pd := &padder{rng: rng, prefix: "bg_"}
	giant := unit{
		ID:     "bigfile/mm-deep",
		Name:   "mm/page_alloc_deep.c",
		Source: pd.pad(src, analyzedFuncs(sp), deepShape, nil),
		Spec:   sp,
		Want:   bigFileWant["mm"],
	}
	fams = append(fams, family{reqs: script(giantPattern, rng, nil, &revState{}, func(bool) unit { return giant })})
	systems := corpus.Systems()
	for i, f := range report.AllFindings() {
		seq := 7000 + i
		sys := systems[rng.Intn(len(systems))]
		t := corpus.Templates[f]
		_, sp := t.Buggy(corpus.NamesFor(sys, seq))
		fns := analyzedFuncs(sp)
		st := &revState{rev: map[string]int{}}
		padSeed := rng.Int63()
		mk := func(buggy bool) unit {
			pd := &padder{rng: rand.New(rand.NewSource(padSeed)), prefix: fmt.Sprintf("bt%d_", seq)}
			u := templateUnit(f, buggy, sys, seq, pd, serveShape, st.rev)
			u.Source = st.commentOn(u.Source)
			return u
		}
		fams = append(fams, family{reqs: script(templatePattern, rng, fns, st, mk)})
	}
	rng.Shuffle(len(fams), func(i, j int) { fams[i], fams[j] = fams[j], fams[i] })
	return fams
}

// revState is a family's current revision: edit-slot values per function
// and the trailing comment (0 = none).
type revState struct {
	rev     map[string]int
	comment int
	clean   bool
}

// commentOn appends the family's revision comment to the source's first
// non-empty line: comments change the bytes (and the cache key) but not
// the token stream or any line number, so the memo's unit fingerprint is
// unchanged.
func (st *revState) commentOn(src string) string {
	if st.comment == 0 {
		return src
	}
	start := len(src) - len(strings.TrimLeft(src, "\n"))
	i := start + strings.Index(src[start:], "\n")
	return src[:i] + fmt.Sprintf(" /* rev %d */", st.comment) + src[i:]
}

// script expands a pattern of edit classes into concrete requests. mk
// renders the unit for the family's current revision state.
func script(pattern []string, rng *rand.Rand, fns []string, st *revState, mk func(buggy bool) unit) []request {
	var out []request
	var last unit
	for _, k := range pattern {
		switch k {
		case kindFirst:
			last = mk(!st.clean)
		case kindResub:
		case kindComment:
			st.comment += 1 + rng.Intn(1000)
			last = mk(!st.clean)
		case kindBody:
			fn := fns[rng.Intn(len(fns))]
			st.rev[fn] += 1 + rng.Intn(1000)
			last = mk(!st.clean)
		case kindFlip:
			st.clean = !st.clean
			last = mk(!st.clean)
		}
		out = append(out, request{unit: last, Kind: k})
	}
	return out
}

// sortedWant returns a sorted copy of a finding multiset.
func sortedWant(fs ...string) []string {
	out := append([]string(nil), fs...)
	sort.Strings(out)
	return out
}
