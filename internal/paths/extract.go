package paths

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"pallas/internal/cast"
	"pallas/internal/cfg"
	"pallas/internal/ctok"
	"pallas/internal/feas"
	"pallas/internal/guard"
	"pallas/internal/sym"
)

// Config bounds path extraction.
type Config struct {
	// MaxPaths caps the number of enumerated paths per function.
	MaxPaths int
	// MaxBlockVisits bounds how often one block may appear on a single path;
	// 2 lets every loop contribute its 0- and 1-iteration behaviours.
	MaxBlockVisits int
	// InlineDepth switches callee summarization: > 0 applies summaries at
	// call sites, <= 0 turns them off. Summaries are one level deep, so
	// only the sign matters to the walk.
	InlineDepth int
	// Budget, when non-nil, is charged one step per visited block; once it is
	// exhausted enumeration stops and the affected functions are marked
	// Truncated. A nil Budget imposes no limit.
	Budget *guard.Budget
	// Workers bounds intra-unit parallelism: how many functions of one
	// translation unit are extracted concurrently (each function is still
	// walked by exactly one goroutine). <= 1 extracts serially. Extraction
	// output is independent of the setting: the per-function result depends
	// only on the function and the unit, never on scheduling.
	Workers int
	// Seed provides pre-extracted results replayed from the incremental memo
	// (internal/incr): checkers.NewContext fills a seeded function's slot
	// from here instead of extracting it. Seeded entries must be exactly
	// what Extract would produce for the same unit — the memo's fingerprint
	// keys guarantee that. The Extractor itself ignores Seed.
	Seed map[string]*FuncPaths
	// Precision selects the feasibility tier (internal/feas): Fast (the zero
	// value) walks exactly as before the layer existed; Balanced prunes path
	// continuations whose accumulated branch conditions are interval- or
	// disequality-contradictory; Strict adds cross-condition equality
	// unification under a per-function step budget. Pruning only ever
	// removes paths no real execution can take, and the walk stays
	// single-goroutine per function, so output per tier is deterministic at
	// any Workers setting.
	Precision feas.Tier
}

// DefaultConfig mirrors the paper's bounded exploration.
func DefaultConfig() Config {
	return Config{MaxPaths: 512, MaxBlockVisits: 2, InlineDepth: 2}
}

// Extractor extracts paths for functions of one translation unit. It is safe
// for concurrent use: the CFG and summary caches are guarded, so one
// extractor can fan per-function extraction out across a worker pool (see
// Config.Workers) or be shared by concurrent callers.
type Extractor struct {
	tu  *cast.TranslationUnit
	cfg Config
	// mu guards sums and graphs. Cache values are built outside the lock
	// (duplicate builds are possible and discarded first-wins; builds are
	// pure functions of the immutable TU, so every duplicate is identical),
	// except summaries, which are built under a per-name once so no caller
	// can ever observe a half-built summary (see summary.go).
	mu     sync.Mutex
	sums   map[string]*sumEntry
	graphs map[string]*cfg.Graph
	// Feasibility tallies, accumulated atomically across Extract calls (the
	// per-function walks may run on concurrent workers).
	feasPruned atomic.Int64
	feasContra atomic.Int64
}

// FeasStats reports the extractor's cumulative feasibility activity.
type FeasStats struct {
	// Pruned counts path continuations discarded because their accumulated
	// branch conditions were contradictory — a lower bound on the paths
	// avoided, since one discarded edge can hide a whole subtree.
	Pruned int64
	// Contradictions counts contradictory condition accumulations detected.
	Contradictions int64
}

// FeasStats returns the feasibility tallies of every Extract so far.
func (ex *Extractor) FeasStats() FeasStats {
	return FeasStats{Pruned: ex.feasPruned.Load(), Contradictions: ex.feasContra.Load()}
}

// NewExtractor returns an extractor over tu.
func NewExtractor(tu *cast.TranslationUnit, c Config) *Extractor {
	if c.MaxPaths <= 0 {
		c.MaxPaths = 512
	}
	if c.MaxBlockVisits <= 0 {
		c.MaxBlockVisits = 2
	}
	return &Extractor{tu: tu, cfg: c, sums: map[string]*sumEntry{}, graphs: map[string]*cfg.Graph{}}
}

// TU returns the translation unit being analyzed.
func (ex *Extractor) TU() *cast.TranslationUnit { return ex.tu }

func (ex *Extractor) graph(name string) (*cfg.Graph, error) {
	ex.mu.Lock()
	g, ok := ex.graphs[name]
	ex.mu.Unlock()
	if ok {
		return g, nil
	}
	fn := ex.tu.Func(name)
	if fn == nil {
		return nil, fmt.Errorf("paths: no function %q", name)
	}
	g, err := cfg.Build(fn)
	if err != nil {
		return nil, err
	}
	ex.mu.Lock()
	if prev, ok := ex.graphs[name]; ok {
		g = prev // another worker built it first; keep one canonical graph
	} else {
		ex.graphs[name] = g
	}
	ex.mu.Unlock()
	return g, nil
}

// Signature renders a function header as "name(p1, p2, ...)".
func Signature(fn *cast.FuncDecl) string {
	parts := make([]string, len(fn.Params))
	for i, p := range fn.Params {
		if p.Name != "" {
			parts[i] = p.Name
		} else {
			parts[i] = p.Type.String()
		}
	}
	return fn.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Extract enumerates the execution paths of the named function.
func (ex *Extractor) Extract(name string) (*FuncPaths, error) {
	g, err := ex.graph(name)
	if err != nil {
		return nil, err
	}
	fp := &FuncPaths{Fn: name, Signature: Signature(g.Fn)}
	env := sym.NewEnv()
	for _, p := range g.Fn.Params {
		if p.Name != "" {
			env.Set(p.Name, sym.NewSym(p.Name))
		}
	}
	for _, v := range ex.tu.Globals() {
		env.Set(v.Name, sym.NewSym(v.Name))
	}
	// Feasibility state rides alongside the environment; nil in the Fast
	// tier, where the walk must stay byte-identical to the pre-layer
	// behavior. Strict's step budget is per function (walk is one
	// goroutine), so its pruning decisions are deterministic too.
	fs := feas.New(ex.cfg.Precision, nil)
	st := &walkState{
		ex: ex, g: g, fp: fp, env: env, fs: fs,
		pb:       &pathBuild{visits: make([]int, len(g.Blocks))},
		branches: make([]*branchInfo, len(g.Blocks)),
	}
	st.walk(g.Entry)
	for i, p := range fp.Paths {
		p.Index = i
	}
	if fp.Pruned > 0 || fs.Contradictions() > 0 {
		ex.feasPruned.Add(int64(fp.Pruned))
		ex.feasContra.Add(fs.Contradictions())
	}
	return fp, nil
}

// ExtractAll extracts paths for every function with a body, sorted by name.
func (ex *Extractor) ExtractAll() ([]*FuncPaths, error) {
	fns := ex.tu.Funcs()
	sort.Slice(fns, func(i, j int) bool { return fns[i].Name < fns[j].Name })
	out := make([]*FuncPaths, 0, len(fns))
	for _, fn := range fns {
		fp, err := ex.Extract(fn.Name)
		if err != nil {
			return out, err
		}
		out = append(out, fp)
	}
	return out, nil
}

// pathBuild is the path the depth-first walk is currently on. One pathBuild
// serves a whole function walk: mark and reset truncate it back to a branch
// point after each edge, so no edge copies the path prefix.
type pathBuild struct {
	blocks []int
	conds  []Condition
	states []StateUpdate
	calls  []CallRecord
	// visits counts each block ID's occurrences in blocks.
	visits []int
	tempN  int
}

// pathMark is a pathBuild length snapshot taken at a branch edge.
type pathMark struct {
	blocks, conds, states, calls, tempN int
}

func (pb *pathBuild) mark() pathMark {
	return pathMark{len(pb.blocks), len(pb.conds), len(pb.states), len(pb.calls), pb.tempN}
}

// reset truncates the path back to m, un-counting the blocks it leaves.
// Records before m are never mutated after m is taken (a statement only
// annotates the call record it appended itself), so truncation restores
// them exactly.
func (pb *pathBuild) reset(m pathMark) {
	for _, id := range pb.blocks[m.blocks:] {
		pb.visits[id]--
	}
	pb.blocks = pb.blocks[:m.blocks]
	pb.conds = pb.conds[:m.conds]
	pb.states = pb.states[:m.states]
	pb.calls = pb.calls[:m.calls]
	pb.tempN = m.tempN
}

// branchInfo is what every visit of one conditional block shares: the
// condition's rendering, the names it references and each edge's outcome
// label — none of which depends on the path.
type branchInfo struct {
	expr     string
	vars     []string
	fields   []string
	outcomes []string
}

// walkState is one function's depth-first walk: a single environment,
// feasibility state and path that every branch edge mutates and then
// undoes.
type walkState struct {
	ex  *Extractor
	g   *cfg.Graph
	fp  *FuncPaths
	env *sym.Env
	fs  *feas.State
	pb  *pathBuild
	// branches caches branchInfo by block ID, filled on first visit.
	branches []*branchInfo
}

func (st *walkState) branch(b *cfg.Block) *branchInfo {
	if bi := st.branches[b.ID]; bi != nil {
		return bi
	}
	bi := &branchInfo{
		expr:     cast.ExprString(b.Cond),
		vars:     cast.Idents(b.Cond),
		fields:   fieldPaths(b.Cond),
		outcomes: make([]string, len(b.Succs)),
	}
	for i, e := range b.Succs {
		bi.outcomes[i] = e.Kind.String()
		if e.Kind == cfg.Case {
			bi.outcomes[i] = "case " + e.Label
		}
	}
	st.branches[b.ID] = bi
	return bi
}

func (st *walkState) walk(b *cfg.Block) {
	if st.fp.Truncated {
		// Already degraded (budget exhaustion or the path cap); never clear
		// the flag — a budget-truncated function with room left under
		// MaxPaths must still report as truncated.
		return
	}
	if len(st.fp.Paths) >= st.ex.cfg.MaxPaths {
		st.fp.Truncated = true
		return
	}
	if st.ex.cfg.Budget.Step() != nil {
		// Budget exhausted (deadline, steps, or cancellation): keep whatever
		// paths we already have and mark the function truncated. The caller
		// surfaces the degradation via Budget.Err.
		st.fp.Truncated = true
		return
	}
	env, fs, pb := st.env, st.fs, st.pb
	if pb.visits[b.ID] >= st.ex.cfg.MaxBlockVisits {
		return // loop bound reached; abandon this continuation
	}
	pb.visits[b.ID]++
	pb.blocks = append(pb.blocks, b.ID)

	ev := &evaluator{st: st, env: env, pb: pb}
	var ret *cast.ReturnStmt
	for _, s := range b.Stmts {
		ev.stmt(s)
		if r, ok := s.(*cast.ReturnStmt); ok {
			ret = r
		}
	}

	if b == st.g.Exit || ret != nil {
		st.emit(ret)
		return
	}
	if len(b.Succs) == 0 {
		st.emit(nil)
		return
	}

	if b.Cond == nil {
		// Unconditional: single successor expected.
		st.walk(b.Succs[0].To)
		return
	}

	bi := st.branch(b)
	symv := ev.eval(b.Cond)
	symText := symv.String()
	line := b.Cond.Pos().Line

	// Disequality refutation: a symbolic equality over an excluded value has
	// a known outcome even though the operand itself is unbound.
	known, knownVal := refuteByExclusion(env, b.Cond)

	for i, e := range b.Succs {
		// Concrete condition pruning: when the condition folds to a constant,
		// only the matching boolean edge is feasible.
		if n, ok := symv.ConcreteInt(); ok && (e.Kind == cfg.True || e.Kind == cfg.False) {
			if (n != 0) != (e.Kind == cfg.True) {
				continue
			}
		}
		if known && (e.Kind == cfg.True || e.Kind == cfg.False) {
			if knownVal != (e.Kind == cfg.True) {
				continue
			}
		}
		envMark, fsMark, pbMark := env.Mark(), fs.Mark(), pb.mark()
		// Branch refinement: boolean edges learn the condition's truth
		// value, Case edges bind the switch tag to the matched label, and
		// Default edges learn that the tag matches no label.
		switch e.Kind {
		case cfg.True, cfg.False:
			taken := e.Kind == cfg.True
			refineEnv(env, b.Cond, taken)
			fs.Assert(symv, taken)
		case cfg.Case:
			refineCaseEnv(env, b.Cond, e.Label)
			if n, ok := caseLabelInt(e.Label); ok {
				fs.Assert(sym.NewExpr("==", symv, sym.NewInt(n)), true)
			}
		case cfg.Default:
			refineDefaultEnv(env, b.Cond, b.Succs)
			for _, sib := range b.Succs {
				if sib.Kind != cfg.Case {
					continue
				}
				if n, ok := caseLabelInt(sib.Label); ok {
					fs.Assert(sym.NewExpr("!=", symv, sym.NewInt(n)), true)
				}
			}
		}
		// Feasibility pruning runs after the concrete and exclusion prunes
		// above, so it only ever discards continuations the Fast tier would
		// still have walked; with a nil state (Fast) nothing is ever pruned.
		if fs.Contradiction() {
			st.fp.Pruned++
		} else {
			pb.conds = append(pb.conds, Condition{
				Expr: bi.expr, Sym: symText, Outcome: bi.outcomes[i],
				Vars: bi.vars, Fields: bi.fields, Line: line,
			})
			st.walk(e.To)
		}
		pb.reset(pbMark)
		fs.Undo(fsMark)
		env.Undo(envMark)
	}
}

// refineEnv narrows the symbolic environment with what a taken branch
// implies, so later conditions over the same variable fold concretely and
// infeasible continuations are pruned. Only equalities, disequalities and
// plain truthiness are learned — sound and cheap:
//
//	if (x == K) taken      →  x = K
//	if (x != K) not taken  →  x = K
//	if (x) not taken       →  x = 0
//	if (x) taken           →  x ≠ 0 (recorded via Exclude)
//	if (!x) taken          →  x = 0
//
// Conjunctions distribute on the true edge (a && b true implies both), and
// disjunctions distribute on the false edge (a || b false refutes both).
func refineEnv(env *sym.Env, cond cast.Expr, taken bool) {
	switch x := cond.(type) {
	case *cast.IdentExpr:
		if taken {
			// The taken edge of a truthiness branch proves x ≠ 0, so a later
			// `if (x == 0)` inside the branch is refuted by exclusion.
			env.Exclude(x.Name, 0)
		} else {
			env.Set(x.Name, sym.NewInt(0))
		}
	case *cast.UnaryExpr:
		if x.Op == ctok.Not {
			refineEnv(env, x.X, !taken)
		}
	case *cast.BinaryExpr:
		switch x.Op {
		case ctok.EqEq, ctok.NotEq:
			id, c := equalityOperands(x)
			if id == "" {
				return
			}
			if taken == (x.Op == ctok.EqEq) {
				env.Set(id, sym.NewInt(c))
			} else {
				env.Exclude(id, c)
			}
		case ctok.AndAnd:
			if taken {
				refineEnv(env, x.L, true)
				refineEnv(env, x.R, true)
			}
		case ctok.OrOr:
			if !taken {
				refineEnv(env, x.L, false)
				refineEnv(env, x.R, false)
			}
		}
	}
}

// emit records the current path. The path's slices are exact-length copies
// of the walk's: the walk reuses its own on the next branch, and markChecked
// mutates the copied call records.
func (st *walkState) emit(ret *cast.ReturnStmt) {
	if len(st.fp.Paths) >= st.ex.cfg.MaxPaths {
		st.fp.Truncated = true
		return
	}
	pb := st.pb
	p := &ExecPath{
		Fn:        st.fp.Fn,
		Signature: st.fp.Signature,
		Blocks:    clip(pb.blocks),
		Conds:     clip(pb.conds),
		States:    clip(pb.states),
		Calls:     clip(pb.calls),
	}
	out := &Output{Void: true}
	if ret != nil {
		out.Line = ret.P.Line
		if ret.X != nil {
			ev := &evaluator{st: st, env: st.env, pb: pb}
			out.Void = false
			out.Expr = cast.ExprString(ret.X)
			out.Sym = ev.evalNoEffects(ret.X).String()
		}
	}
	p.Out = out
	markChecked(p)
	st.fp.Paths = append(st.fp.Paths, p)
}

// clip returns an exact-length copy of s; empty (or nil) copies to nil, as
// an ExecPath's empty slices have always been nil (JSON null).
func clip[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// refineCaseEnv binds a switch tag to the matched case label when both are
// simple (an identifier tag and an integer or enum-like label).
func refineCaseEnv(env *sym.Env, tag cast.Expr, label string) {
	id, ok := tag.(*cast.IdentExpr)
	if !ok {
		return
	}
	n, ok := caseLabelInt(label)
	if !ok {
		return // enum-named labels would need the TU; leave symbolic
	}
	env.Set(id.Name, sym.NewInt(n))
}

// refineDefaultEnv records, on a switch default edge, that the tag equals
// none of the sibling case labels, so a later `if (tag == CASE_K)` under
// default is refuted by exclusion.
func refineDefaultEnv(env *sym.Env, tag cast.Expr, succs []cfg.Edge) {
	id, ok := tag.(*cast.IdentExpr)
	if !ok {
		return
	}
	for _, e := range succs {
		if e.Kind != cfg.Case {
			continue
		}
		if n, ok := caseLabelInt(e.Label); ok {
			env.Exclude(id.Name, n)
		}
	}
}

// caseLabelInt parses a case label's rendered text as an integer (decimal,
// hex or octal, as ExprString renders literal labels).
func caseLabelInt(label string) (int64, bool) {
	n, err := strconv.ParseInt(label, 0, 64)
	return n, err == nil
}

// intConst extracts the value of a constant comparison operand: integer
// literals, single-byte character constants, and unary minus over either —
// so `x == -1` and `-1 == x` refine identically.
func intConst(e cast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *cast.IntExpr:
		return x.Value, true
	case *cast.CharExpr:
		if len(x.Value) == 1 {
			return int64(x.Value[0]), true
		}
	case *cast.UnaryExpr:
		if x.Op == ctok.Minus {
			if n, ok := intConst(x.X); ok {
				return -n, true
			}
		}
	}
	return 0, false
}

// equalityOperands extracts (ident, constant) from `x == K` / `K == x`
// shaped comparisons; returns "" when the shape does not match. The shapes
// are checked in both operand orders, so refinement is order-independent.
func equalityOperands(x *cast.BinaryExpr) (string, int64) {
	if id, ok := x.L.(*cast.IdentExpr); ok {
		if c, ok2 := intConst(x.R); ok2 {
			return id.Name, c
		}
	}
	if id, ok := x.R.(*cast.IdentExpr); ok {
		if c, ok2 := intConst(x.L); ok2 {
			return id.Name, c
		}
	}
	return "", 0
}

// refuteByExclusion decides a symbolic equality condition using recorded
// disequalities: `x == K` with x≠K known is false; `x != K` is true.
func refuteByExclusion(env *sym.Env, cond cast.Expr) (known bool, value bool) {
	x, ok := cond.(*cast.BinaryExpr)
	if !ok {
		return false, false
	}
	if x.Op != ctok.EqEq && x.Op != ctok.NotEq {
		return false, false
	}
	id, c := equalityOperands(x)
	if id == "" || !env.Excluded(id, c) {
		return false, false
	}
	// Exclusions only apply while the variable is still symbolic; a concrete
	// rebinding would have cleared them via Set.
	return true, x.Op == ctok.NotEq
}

// markChecked sets CallRecord.ResultChecked for calls whose receiving lvalue
// or call expression is referenced by a later condition on the path.
func markChecked(p *ExecPath) {
	for i := range p.Calls {
		c := &p.Calls[i]
		call := c.Name + "("
		for _, cond := range p.Conds {
			if strings.Contains(cond.Expr, call) {
				c.ResultChecked = true
				break
			}
			if c.AssignedTo != "" {
				for _, v := range cond.Vars {
					if v == c.AssignedTo {
						c.ResultChecked = true
					}
				}
				for _, f := range cond.Fields {
					if f == c.AssignedTo {
						c.ResultChecked = true
					}
				}
			}
			if c.ResultChecked {
				break
			}
		}
	}
}

// fieldPaths collects canonical member-access paths in an expression.
func fieldPaths(e cast.Expr) []string {
	var out []string
	seen := map[string]bool{}
	cast.Walk(e, func(n cast.Node) bool {
		if m, ok := n.(*cast.MemberExpr); ok {
			s := cast.ExprString(m)
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
		return true
	})
	return out
}

// ---------------------------------------------------------------------------
// Symbolic statement/expression evaluation
// ---------------------------------------------------------------------------

type evaluator struct {
	st  *walkState
	env *sym.Env
	pb  *pathBuild
	// silent suppresses effect recording (used for return-expression
	// re-evaluation where effects were already recorded).
	silent bool
}

func (ev *evaluator) stmt(s cast.Stmt) {
	switch x := s.(type) {
	case *cast.DeclStmt:
		var v *sym.Value
		if x.Init != nil {
			v = ev.eval(x.Init)
			ev.bindCallResult(x.Init, x.Name)
		} else {
			v = sym.NewSym(x.Name)
		}
		ev.env.Set(x.Name, v)
		ev.record(StateUpdate{Target: x.Name, Root: x.Name, Value: v.String(), Kind: Decl, Line: x.P.Line})
	case *cast.ExprStmt:
		before := len(ev.pb.calls)
		ev.eval(x.X)
		// A call used directly as a statement discards its result.
		if c, ok := stripCasts(x.X).(*cast.CallExpr); ok && len(ev.pb.calls) > before {
			last := &ev.pb.calls[len(ev.pb.calls)-1]
			if name, ok2 := c.Fun.(*cast.IdentExpr); ok2 && last.Name == name.Name {
				last.ResultUsed = false
			}
		}
	case *cast.ReturnStmt:
		if x.X != nil {
			ev.eval(x.X)
		}
	case *cast.CompoundStmt:
		for _, sub := range x.Stmts {
			ev.stmt(sub)
		}
	}
}

func (ev *evaluator) record(u StateUpdate) {
	if ev.silent {
		return
	}
	ev.pb.states = append(ev.pb.states, u)
}

func (ev *evaluator) recordCall(c CallRecord) {
	if ev.silent {
		return
	}
	ev.pb.calls = append(ev.pb.calls, c)
}

func (ev *evaluator) fresh() *sym.Value {
	ev.pb.tempN++
	return sym.NewTemp(ev.pb.tempN)
}

// evalNoEffects evaluates without recording state updates or calls.
func (ev *evaluator) evalNoEffects(e cast.Expr) *sym.Value {
	sub := &evaluator{st: ev.st, env: ev.env, pb: ev.pb, silent: true}
	return sub.eval(e)
}

func (ev *evaluator) eval(e cast.Expr) *sym.Value {
	switch x := e.(type) {
	case nil:
		return sym.NewSym("void")
	case *cast.IdentExpr:
		if v := ev.env.Get(x.Name); v != nil {
			return v
		}
		if v, ok := ev.st.ex.tu.EnumValue(x.Name); ok {
			return sym.NewInt(v)
		}
		return sym.NewSym(x.Name)
	case *cast.IntExpr:
		return sym.NewInt(x.Value)
	case *cast.FloatExpr:
		return sym.NewSym("float:" + x.Text)
	case *cast.StrExpr:
		return sym.NewStr(x.Value)
	case *cast.CharExpr:
		if len(x.Value) == 1 {
			return sym.NewInt(int64(x.Value[0]))
		}
		return sym.NewSym("char:" + x.Value)
	case *cast.AssignExpr:
		return ev.assign(x)
	case *cast.BinaryExpr:
		l := ev.eval(x.L)
		r := ev.eval(x.R)
		return sym.NewExpr(x.Op.String(), l, r)
	case *cast.UnaryExpr:
		switch x.Op {
		case ctok.Inc, ctok.Dec:
			return ev.incdec(x.X, x.Op, x.Pos())
		case ctok.KwSizeof:
			return sym.NewExpr("sizeof", ev.evalNoEffects(x.X))
		case ctok.Amp:
			return sym.NewExpr("&", ev.evalNoEffects(x.X))
		case ctok.Star:
			return sym.NewExpr("*", ev.eval(x.X))
		default:
			return sym.NewExpr(x.Op.String(), ev.eval(x.X))
		}
	case *cast.PostfixExpr:
		return ev.incdec(x.X, x.Op, x.Pos())
	case *cast.CondExpr:
		c := ev.eval(x.Cond)
		if n, ok := c.ConcreteInt(); ok {
			if n != 0 {
				return ev.eval(x.Then)
			}
			return ev.eval(x.Else)
		}
		t := ev.eval(x.Then)
		f := ev.eval(x.Else)
		return sym.NewExpr("?:", c, t, f)
	case *cast.CallExpr:
		return ev.call(x)
	case *cast.MemberExpr:
		path := cast.ExprString(x)
		if v := ev.env.Get(path); v != nil {
			return v
		}
		base := ev.evalNoEffects(x.X)
		op := "."
		if x.Arrow {
			op = "->"
		}
		return sym.NewExpr(op, base, sym.NewSym(x.Field))
	case *cast.IndexExpr:
		base := ev.eval(x.X)
		idx := ev.eval(x.Index)
		return sym.NewExpr("[]", base, idx)
	case *cast.CastExpr:
		return ev.eval(x.X)
	case *cast.SizeofTypeExpr:
		return sym.NewInt(int64(x.Type.SizeOf()))
	case *cast.CommaExpr:
		ev.eval(x.L)
		return ev.eval(x.R)
	case *cast.InitListExpr:
		for _, el := range x.Elems {
			ev.eval(el)
		}
		return ev.fresh()
	}
	return ev.fresh()
}

func (ev *evaluator) assign(x *cast.AssignExpr) *sym.Value {
	rhs := ev.eval(x.R)
	if x.Op != ctok.Assign {
		// compound: a += b ⇒ a = a op b
		cur := ev.evalNoEffects(x.L)
		op := strings.TrimSuffix(x.Op.String(), "=")
		rhs = sym.NewExpr(op, cur, rhs)
	}
	target := cast.ExprString(x.L)
	root := cast.RootIdent(x.L)
	ev.bindCallResult(x.R, target)
	ev.env.Set(target, rhs)
	// Writing through the whole variable invalidates field bindings.
	if _, isIdent := x.L.(*cast.IdentExpr); isIdent {
		ev.env.DeleteFields(target)
	}
	ev.record(StateUpdate{Target: target, Root: root, Value: rhs.String(), Kind: Assign, Line: x.P.Line})
	return rhs
}

// stripCasts unwraps cast expressions.
func stripCasts(e cast.Expr) cast.Expr {
	for {
		if c, ok := e.(*cast.CastExpr); ok {
			e = c.X
			continue
		}
		return e
	}
}

// bindCallResult marks the most recent call record as assigned to target when
// rhs is (after casts) a direct call expression.
func (ev *evaluator) bindCallResult(rhs cast.Expr, target string) {
	if ev.silent || len(ev.pb.calls) == 0 {
		return
	}
	c, ok := stripCasts(rhs).(*cast.CallExpr)
	if !ok {
		return
	}
	name, ok := c.Fun.(*cast.IdentExpr)
	if !ok {
		return
	}
	last := &ev.pb.calls[len(ev.pb.calls)-1]
	if last.Name == name.Name && last.AssignedTo == "" {
		last.AssignedTo = target
		last.ResultUsed = true
	}
}

func (ev *evaluator) incdec(l cast.Expr, op ctok.Kind, pos ctok.Pos) *sym.Value {
	cur := ev.evalNoEffects(l)
	delta := sym.NewInt(1)
	var next *sym.Value
	if op == ctok.Inc {
		next = sym.NewExpr("+", cur, delta)
	} else {
		next = sym.NewExpr("-", cur, delta)
	}
	target := cast.ExprString(l)
	ev.env.Set(target, next)
	ev.record(StateUpdate{Target: target, Root: cast.RootIdent(l), Value: next.String(), Kind: IncDec, Line: pos.Line})
	return cur
}

func (ev *evaluator) call(x *cast.CallExpr) *sym.Value {
	name := ""
	if id, ok := x.Fun.(*cast.IdentExpr); ok {
		name = id.Name
	} else {
		name = cast.ExprString(x.Fun)
	}
	args := make([]string, len(x.Args))
	argVals := make([]*sym.Value, len(x.Args))
	for i, a := range x.Args {
		args[i] = cast.ExprString(a)
		argVals[i] = ev.eval(a)
	}
	rec := CallRecord{Name: name, Args: args, Line: x.P.Line, ResultUsed: true}

	// Apply a callee summary when available.
	var result *sym.Value
	if !ev.silent && ev.st.ex.cfg.InlineDepth > 0 {
		if sum := ev.st.ex.summary(name); sum != nil {
			rec.Inlined = true
			ev.applySummary(sum, x, argVals)
		}
	}
	if result == nil {
		result = sym.NewExpr(name, argVals...)
	}
	ev.recordCall(rec)
	return result
}

// applySummary instantiates a callee summary at a call site: effects on
// global variables and on fields reached through pointer arguments are
// replayed into the caller's path, tagged with the callee name.
func (ev *evaluator) applySummary(sum *Summary, call *cast.CallExpr, argVals []*sym.Value) {
	rename := func(target string) (string, bool) {
		// Effects on globals keep their name; effects rooted at a parameter
		// are rewritten in terms of the actual argument expression.
		root := target
		rest := ""
		for i := 0; i < len(target); i++ {
			if target[i] == '-' || target[i] == '.' {
				root = target[:i]
				rest = target[i:]
				break
			}
		}
		for pi, pn := range sum.ParamNames {
			if pn == root {
				if pi < len(call.Args) {
					base := cast.ExprString(call.Args[pi])
					return base + rest, true
				}
				return "", false
			}
		}
		if sum.Globals[root] {
			return target, true
		}
		return "", false
	}
	for _, eff := range sum.Effects {
		t, ok := rename(eff.Target)
		if !ok {
			continue
		}
		root := t
		for i := 0; i < len(t); i++ {
			if t[i] == '-' || t[i] == '.' || t[i] == '[' {
				root = t[:i]
				break
			}
		}
		v := ev.fresh()
		ev.env.Set(t, v)
		ev.record(StateUpdate{Target: t, Root: root, Value: eff.Value, Kind: CallEffect, Line: call.P.Line, Callee: sum.Name})
	}
	for _, cc := range sum.Conds {
		t, ok := rename(cc.Target)
		if !ok {
			continue
		}
		ev.pb.conds = append(ev.pb.conds, Condition{
			Expr: cc.Expr, Sym: "(S#" + t + ")", Outcome: "callee",
			Vars: []string{t}, Line: call.P.Line, FromCallee: sum.Name,
		})
	}
	for _, callee := range sum.Calls {
		ev.recordCall(CallRecord{Name: callee, Line: call.P.Line, Inlined: true, FromCallee: sum.Name})
	}
}
