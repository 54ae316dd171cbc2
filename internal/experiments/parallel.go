package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The experiment runners fan independent system runs across a bounded
// worker pool. Every cell of an experiment (one workload on one
// configuration) builds its own core.System, and a System shares no mutable
// state with any other, so cells can execute concurrently; determinism is
// preserved by having each cell write its results into an index-addressed
// slot, making the assembled output identical to a serial run regardless of
// scheduling.

// forEach runs f(0), ..., f(n-1) on at most `workers` goroutines (0 or
// negative selects GOMAXPROCS) and returns the lowest-index error, if any.
// f must confine its writes to slots owned by its index. After a failure
// remaining indices may be skipped, but every call that did run completed
// before forEach returns.
func forEach(workers, n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := f(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
