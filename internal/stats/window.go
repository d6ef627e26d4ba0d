package stats

// MovingAverage is a fixed-size sliding-window mean over the most recent
// observations. The paper reports hit rates "as a moving average over the
// last 5000 requests" (§V.2.1); this is that window.
//
// The implementation is a ring buffer with an incrementally maintained sum,
// so Add is O(1) and exact for the integer-valued observations (0/1 hits,
// hop counts) the harness feeds it.
type MovingAverage struct {
	buf  []float64
	sum  float64
	next int
	full bool
}

// NewMovingAverage returns a window of the given size. Size must be
// positive; NewMovingAverage panics otherwise because a zero-width window is
// a programming error, not a runtime condition.
func NewMovingAverage(size int) *MovingAverage {
	if size <= 0 {
		panic("stats: moving average window must be positive")
	}
	return &MovingAverage{buf: make([]float64, size)}
}

// Add slides the window forward by one observation.
func (m *MovingAverage) Add(x float64) {
	if m.full {
		m.sum -= m.buf[m.next]
	}
	m.buf[m.next] = x
	m.sum += x
	m.next++
	if m.next == len(m.buf) {
		m.next = 0
		m.full = true
	}
}

// N returns the number of observations currently in the window.
func (m *MovingAverage) N() int {
	if m.full {
		return len(m.buf)
	}
	return m.next
}

// Value returns the current window mean, or 0 when empty.
func (m *MovingAverage) Value() float64 {
	n := m.N()
	if n == 0 {
		return 0
	}
	return m.sum / float64(n)
}
