package paths

import (
	"os"
	"runtime"
	"testing"

	"pallas/internal/cparse"
	"pallas/internal/feas"
)

// BenchmarkExtractDeep walks the committed padded unit, whose functions run
// to hundreds of paths each (deep_fast and deep_budget hit the 512-path
// cap), at the fast and strict tiers. The CFGs and callee summaries are
// built once outside the timed loop, so the numbers are the depth-first
// walk's: ns/op and allocs/op per extraction of all three functions, and
// allocs/path and B/path per emitted path.
//
//	go test ./internal/paths -run '^$' -bench ExtractDeep -benchtime 1x
func BenchmarkExtractDeep(b *testing.B) {
	src, err := os.ReadFile("../../testdata/deep_padded.c")
	if err != nil {
		b.Fatal(err)
	}
	tu, err := cparse.Parse("deep_padded.c", string(src))
	if err != nil {
		b.Fatal(err)
	}
	fns := []string{"deep_fast", "deep_slow", "deep_budget"}
	for _, tier := range []feas.Tier{feas.Fast, feas.Strict} {
		b.Run(tier.String(), func(b *testing.B) {
			c := DefaultConfig()
			c.Precision = tier
			ex := NewExtractor(tu, c)
			for _, fn := range fns {
				if _, err := ex.Extract(fn); err != nil { // warm the CFG and summary caches
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			paths := 0
			for i := 0; i < b.N; i++ {
				for _, fn := range fns {
					fp, err := ex.Extract(fn)
					if err != nil {
						b.Fatal(err)
					}
					paths += len(fp.Paths)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(paths)/float64(b.N), "paths/op")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(paths), "allocs/path")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(paths), "B/path")
		})
	}
}
