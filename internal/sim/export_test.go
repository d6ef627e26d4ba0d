package sim

// HeapLoad reports what the shards' heaps hold right now: events in total,
// and how many of them are network transfers (the rest are timers and fault
// transitions).
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
