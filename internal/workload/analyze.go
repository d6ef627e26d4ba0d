package workload

import (
	"sort"

	"github.com/adc-sim/adc/internal/ids"
)

// TraceStats summarises a request stream — the numbers one needs to judge
// whether a workload is cacheable at all (recurrence share) and how
// concentrated its popularity is (top-k shares). adcsim -write-trace prints
// them for the stream it writes; EXPERIMENTS.md's tuning notes cite them.
type TraceStats struct {
	// Requests is the stream length.
	Requests int
	// Distinct is the number of unique objects.
	Distinct int
	// OneTimers is the number of objects requested exactly once.
	OneTimers int
	// RecurringShare is the fraction of requests going to objects that
	// are requested more than once — the hit-rate ceiling of an
	// infinitely large warm cache.
	RecurringShare float64
	// Top1Share, Top10Share are the request shares of the most popular
	// 1 % and 10 % of objects (popularity concentration).
	Top1Share  float64
	Top10Share float64
	// MaxObjectRequests is the request count of the hottest object.
	MaxObjectRequests int
}

// Analyze drains src and computes its statistics. The source is consumed;
// generators can be Reset afterwards.
func Analyze(src Source) TraceStats {
	counts := make(map[ids.ObjectID]int)
	n := 0
	for {
		obj, ok := src.Next()
		if !ok {
			break
		}
		counts[obj]++
		n++
	}
	st := TraceStats{Requests: n, Distinct: len(counts)}
	if n == 0 {
		return st
	}

	freqs := make([]int, 0, len(counts))
	recurring := 0
	for _, c := range counts {
		freqs = append(freqs, c)
		if c == 1 {
			st.OneTimers++
		} else {
			recurring += c
		}
		if c > st.MaxObjectRequests {
			st.MaxObjectRequests = c
		}
	}
	st.RecurringShare = float64(recurring) / float64(n)

	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	topShare := func(frac float64) float64 {
		k := int(float64(len(freqs)) * frac)
		if k < 1 {
			k = 1
		}
		sum := 0
		for _, c := range freqs[:k] {
			sum += c
		}
		return float64(sum) / float64(n)
	}
	st.Top1Share = topShare(0.01)
	st.Top10Share = topShare(0.10)
	return st
}
