package sim

// HeapLoad reports what the queue's heap holds right now: events in total,
// and how many of them are network transfers (the rest are timers and fault
// transitions).
func (e *VEngine) HeapLoad() (events, transfers int) {
	for _, ev := range e.q.src[laneHeap].ev {
		events++
		if ev.seq&evNet != 0 {
			transfers++
		}
	}
	return events, transfers
}
