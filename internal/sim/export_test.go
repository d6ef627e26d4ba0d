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

// ReleaseKeeping releases the engine's storage and returns a value that
// holds it as the engine that takes it next would.
func (e *VEngine) ReleaseKeeping() any {
	s := e.storage
	e.Release()
	return s
}
