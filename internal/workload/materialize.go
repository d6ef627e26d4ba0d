package workload

import (
	"sync"

	"github.com/adc-sim/adc/internal/ids"
)

// Trace is an immutable, fully materialized request stream: the complete
// output of one Generator run held in memory, plus the phase boundaries the
// experiments need. Materializing once and replaying the one request slice
// is what lets the parallel experiment runner hand the same workload to
// many concurrent simulations without re-running the generator per sweep
// point.
//
// A Trace is safe for concurrent use: its request slice is written only
// during Materialize and read-only afterwards.
type Trace struct {
	objs      []ids.ObjectID
	fillEnd   int
	phase2End int
}

// Materialize drains a fresh generator for cfg into an immutable Trace.
// The stream is bit-identical to what New(cfg) would emit request by
// request, so simulations replaying it produce exactly the results they
// would with the live generator.
func Materialize(cfg Config) (*Trace, error) {
	gen, err := New(cfg)
	if err != nil {
		return nil, err
	}
	objs := make([]ids.ObjectID, 0, gen.Total())
	for {
		obj, ok := gen.Next()
		if !ok {
			break
		}
		objs = append(objs, obj)
	}
	fillEnd, phase2End := gen.Boundaries()
	return &Trace{objs: objs, fillEnd: fillEnd, phase2End: phase2End}, nil
}

// Boundaries returns the stream indexes at which phases 2 and 3 begin.
func (t *Trace) Boundaries() (fillEnd, phase2End int) {
	return t.fillEnd, t.phase2End
}

// Objects exposes the materialized request list. The slice is shared with
// every replay: treat it as read-only.
func (t *Trace) Objects() []ids.ObjectID { return t.objs }

// TraceCache materializes each distinct Config's stream exactly once and
// shares the immutable Trace between all callers — the workload half of the
// parallel experiment runner. Concurrent Gets for the same Config block on
// a single generation (singleflight); distinct Configs generate
// independently. The cache keeps at most max traces and evicts the least
// recently used one, bounding memory across long experiment campaigns.
type TraceCache struct {
	mu      sync.Mutex
	max     int
	entries map[Config]*traceEntry
	// order tracks use recency, oldest first.
	order []Config
}

type traceEntry struct {
	once  sync.Once
	trace *Trace
	err   error
}

// NewTraceCache returns a cache bounded to max traces (minimum 1).
func NewTraceCache(max int) *TraceCache {
	if max < 1 {
		max = 1
	}
	return &TraceCache{max: max, entries: make(map[Config]*traceEntry)}
}

// Get returns the materialized trace for cfg, generating it on first use.
// The error, if any, is also cached: a config that cannot generate fails
// fast on every subsequent Get.
func (c *TraceCache) Get(cfg Config) (*Trace, error) {
	c.mu.Lock()
	e, ok := c.entries[cfg]
	if !ok {
		e = &traceEntry{}
		c.entries[cfg] = e
		c.order = append(c.order, cfg)
		if len(c.order) > c.max {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, oldest)
		}
	} else {
		c.touch(cfg)
	}
	c.mu.Unlock()

	e.once.Do(func() { e.trace, e.err = Materialize(cfg) })
	return e.trace, e.err
}

// touch moves cfg to the most-recently-used end. Caller holds mu.
func (c *TraceCache) touch(cfg Config) {
	for i, k := range c.order {
		if k == cfg {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), cfg)
			return
		}
	}
}
