package sim

// SetParallelMergeMin overrides the serial/parallel merge threshold and
// returns a restore function. Determinism tests force the parallel rank+push
// path on workloads far below the production threshold.
func SetParallelMergeMin(n int) (restore func()) {
	old := parallelMergeMin
	parallelMergeMin = n
	return func() { parallelMergeMin = old }
}

// HeapLoad reports what the shards' heaps hold right now: events in total,
// and how many of them are network transfers (the rest are timers and fault
// transitions). Call it from a handler of a run that executes one handler
// at a time.
func (e *VEngine) HeapLoad() (events, transfers int) {
	for _, s := range e.shards {
		for _, ev := range s.pq.src[laneHeap].ev {
			events++
			if ev.net {
				transfers++
			}
		}
	}
	return events, transfers
}
