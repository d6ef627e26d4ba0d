package experiments

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
)

// This file is the scheduling half of the parallel experiment runner.
// Every experiment in this package is a set of fully independent
// simulations (one cluster.Run per sweep point, baseline or ablation arm),
// so the runner fans them out over a bounded worker pool and slots each
// result by job index — never by arrival order — keeping outputs
// bit-identical to the sequential path. The workload half is the
// materialized-trace cache (materialize.go in internal/workload): every job
// replays a shared immutable trace through its own trace.SliceSource
// instead of re-running the generator.

// forEach runs jobs 0..n-1 on the profile's worker pool. job must write
// its result into a caller-owned, index-addressed slot and return the
// run's engine delivery count (for throughput reporting; 0 when unknown);
// it receives a context that is cancelled as soon as any job fails, and
// should check it before starting expensive work. The first error wins and
// is returned after all in-flight jobs drain; jobs not yet started are
// skipped. name labels the fan-out's CPU-profile samples (pprof label
// "experiment"), so profiles of a figure campaign split by phase.
func (p Profile) forEach(name string, n int, job func(ctx context.Context, i int) (uint64, error)) error {
	return runPool(context.Background(), name, p.workers(n), n, p.Progress, job)
}

// workers resolves the pool width: Parallelism if set, else GOMAXPROCS,
// never wider than the job count.
func (p Profile) workers(n int) int {
	w := p.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runPool is the generic bounded fan-out. It feeds job indexes to workers
// in order, cancels the shared context on the first error, and reports
// per-job completion through progress (serialized, monotonic).
func runPool(parent context.Context, name string, workers, n int, progress func(ProgressInfo), job func(ctx context.Context, i int) (uint64, error)) error {
	if n <= 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
		events   uint64
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go pprof.Do(ctx, pprof.Labels("experiment", name), func(ctx context.Context) {
			defer wg.Done()
			for i := range next {
				// A cancelled pool drains remaining indexes
				// without running them.
				if ctx.Err() != nil {
					continue
				}
				delivered, err := job(ctx, i)
				if err != nil {
					fail(err)
					continue
				}
				mu.Lock()
				done++
				events += delivered
				if progress != nil && firstErr == nil {
					progress(ProgressInfo{
						Done:    done,
						Total:   n,
						Workers: workers,
						Events:  events,
					})
				}
				mu.Unlock()
			}
		})
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return parent.Err()
}
