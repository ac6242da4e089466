package pallas_test

// Differential guards on the analyzer's output bytes.
//
// Fast tier: analyzing the full corpus with -precision fast (and with the
// zero-value Config, which means fast) must produce byte-identical output
// to the engine as it stood before the feasibility layer landed — report
// JSON, path database JSON, and cache key, for every case.
// testdata/corpus_fast_golden.txt holds the pre-layer engine's hash over
// exactly this recipe; if this test fails, the fast tier has drifted and
// every warm cache and memo store goes stale with it. Do not update the
// golden without that migration story.
//
// Balanced and strict tiers: the same recipe over a deeper unit set — the
// corpus, the seven subsystem-scale BigFiles, the feasibility traps and
// testdata/deep_padded.c, whose fast-path function hits the 512-path cap —
// is pinned by testdata/precision_{balanced,strict}_golden.txt. These pin
// the walk's exact enumeration order, pruning decisions and strict-tier
// budget spending on paths hundreds of branches long, so an optimization of
// the extractor must leave them unchanged.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"pallas"
	"pallas/internal/corpus"
)

// goldenUnit is one analysis input of a golden recipe.
type goldenUnit struct {
	id, file, src, spec string
}

// corpusGoldenUnits returns every corpus case in sorted-ID order.
func corpusGoldenUnits() []goldenUnit {
	reg := corpus.Generate()
	var us []goldenUnit
	for _, id := range reg.SortIDs() {
		c := reg.Get(id)
		us = append(us, goldenUnit{id: id, file: c.File, src: c.Source, spec: c.Spec})
	}
	return us
}

// deepGoldenUnits returns the corpus followed by the BigFiles, the
// feasibility traps and the committed padded unit.
func deepGoldenUnits(t *testing.T) []goldenUnit {
	t.Helper()
	us := corpusGoldenUnits()
	for _, b := range []struct {
		file string
		get  func() (string, string)
	}{
		{"mm/page_alloc.c", corpus.BigFile},
		{"net/ipv4/tcp_input.c", corpus.BigFileNet},
		{"fs/ubifs/file.c", corpus.BigFileFS},
		{"drivers/scsi/mpt3sas_base.c", corpus.BigFileDev},
		{"chromium/task_queue_impl.cc", corpus.BigFileWB},
		{"ovs/dpif-netdev.c", corpus.BigFileSDN},
		{"android/binder.c", corpus.BigFileMob},
	} {
		src, sp := b.get()
		us = append(us, goldenUnit{id: "bigfile/" + b.file, file: b.file, src: src, spec: sp})
	}
	for _, fc := range corpus.FeasCases() {
		us = append(us, goldenUnit{id: fc.ID, file: strings.ReplaceAll(fc.ID, "/", "_") + ".c", src: fc.Source, spec: fc.Spec})
	}
	src, err := os.ReadFile("testdata/deep_padded.c")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := os.ReadFile("testdata/deep_padded.spec")
	if err != nil {
		t.Fatal(err)
	}
	return append(us, goldenUnit{id: "deep_padded", file: "deep_padded.c", src: string(src), spec: string(sp)})
}

// outputHash renders every unit's analysis output under cfg and hashes the
// concatenation in the given order.
func outputHash(t *testing.T, cfg pallas.Config, units []goldenUnit) string {
	t.Helper()
	a := pallas.New(cfg)
	h := sha256.New()
	for _, u := range units {
		res, err := a.AnalyzeSource(u.file, u.src, u.spec)
		if err != nil {
			t.Fatalf("%s: %v", u.id, err)
		}
		var rb bytes.Buffer
		if err := res.Report.WriteJSON(&rb); err != nil {
			t.Fatal(err)
		}
		pb, err := json.Marshal(res.Paths)
		if err != nil {
			t.Fatal(err)
		}
		key := a.CacheKey(pallas.Unit{Name: u.file, Source: u.src, Spec: u.spec})
		fmt.Fprintf(h, "%s\n%s\n%s\n%s\n", u.id, rb.String(), pb, key)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func readGolden(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(b))
}

func TestPrecisionFastMatchesSeedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: full-corpus differential")
	}
	want := readGolden(t, "testdata/corpus_fast_golden.txt")
	units := corpusGoldenUnits()
	if got := outputHash(t, pallas.Config{}, units); got != want {
		t.Errorf("zero-config corpus output drifted from the pre-layer seed: got %s, want %s", got, want)
	}
	if got := outputHash(t, pallas.Config{Precision: "fast"}, units); got != want {
		t.Errorf("-precision fast corpus output drifted from the pre-layer seed: got %s, want %s", got, want)
	}
}

func TestPrecisionTiersMatchDeepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: deep-unit differential")
	}
	units := deepGoldenUnits(t)
	for _, tier := range []string{"balanced", "strict"} {
		t.Run(tier, func(t *testing.T) {
			want := readGolden(t, "testdata/precision_"+tier+"_golden.txt")
			if got := outputHash(t, pallas.Config{Precision: tier}, units); got != want {
				t.Errorf("-precision %s output drifted from the golden: got %s, want %s", tier, got, want)
			}
		})
	}
}
