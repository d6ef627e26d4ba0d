package sim

// HeapLoad reports what the queues' heaps hold right now: events in total,
// and how many of them are network transfers (the rest are timers and fault
// transitions).
func (e *VEngine) HeapLoad() (events, transfers int) {
	for i := range e.queues {
		for _, ev := range e.queues[i].src[laneHeap].ev {
			events++
			if ev.net {
				transfers++
			}
		}
	}
	return events, transfers
}
