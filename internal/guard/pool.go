package guard

import (
	"fmt"
	"runtime"
	"sync"
)

// Pool runs fn(i) for every i in [0, n) on a bounded worker pool and returns
// the per-item errors at their item's index (nil for items that succeeded).
// Each invocation is panic-isolated: a panicking item yields a *PanicError
// at its slot while every other item still runs. workers <= 0 means
// GOMAXPROCS. Results are positional, so callers get deterministic output
// regardless of scheduling — this is the pool under both
// Analyzer.AnalyzeMany and the eval harness's parallel table runs.
func Pool(n, workers int, fn func(i int) error) []error {
	return PoolNamed(StageBatch, n, workers, func(i int) string {
		return fmt.Sprintf("item %d", i)
	}, fn)
}

// PoolNamed is Pool with a caller-supplied stage and per-item unit names, so
// a recovered panic identifies the real work item ("extract of get_page")
// instead of a positional "item 3". It is the fan-out primitive under the
// intra-unit analysis pipeline: per-function path extraction and the checker
// sweep both run on it, with workers = 1 reproducing the serial order
// exactly (a single worker drains indices in submission order).
func PoolNamed(stage Stage, n, workers int, name func(i int) string, fn func(i int) error) []error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				errs[i] = Protect(stage, name(i), func() error {
					return fn(i)
				})
			}
		}()
	}
	for i := 0; i < n; i++ {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	return errs
}
