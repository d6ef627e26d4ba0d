package workload

import (
	"fmt"
	"math/rand"

	"github.com/adc-sim/adc/internal/ids"
)

// Source is a stream of object requests. The cluster driver pulls one
// object ID per simulated request; trace replays (internal/trace) and the
// synthetic Generator both implement it.
type Source interface {
	// Next returns the next requested object; ok is false when the
	// stream is exhausted.
	Next() (obj ids.ObjectID, ok bool)
	// Total returns the total number of requests the stream will emit.
	Total() int
}

// SliceBacked is a Source whose requests already sit in memory. A consumer
// that wants the whole stream at once takes the slice instead of copying it
// out request by request.
type SliceBacked interface {
	Source
	// Rest hands over the requests Next has not yet returned, without
	// copying, and leaves the source exhausted. The caller must not
	// modify them. ok is false, and the source untouched, when this
	// particular source holds no such slice (an adapter that wraps
	// sources of several kinds).
	Rest() (objs []ids.ObjectID, ok bool)
}

// Config parameterises the synthetic PolyMix-like workload.
type Config struct {
	// TotalRequests is the length of the stream. The paper's trace has
	// 3,990,000 requests; tests and default benches use scaled-down
	// totals.
	TotalRequests int

	// FillFraction is the share of requests in the fill phase.
	// Default 0.25 (≈1.0 M of ≈4 M).
	FillFraction float64

	// PopulationSize is the hot object population of phases 2–3, in
	// objects. When zero, the population is populationFraction of the
	// distinct objects introduced during fill. Experiments set it
	// explicitly so the workload's working set scales with the proxy
	// table sizes rather than with the trace length.
	PopulationSize int

	// Alpha is the Zipf popularity exponent for phases 2–3.
	// Default 0.8, the upper end of the measured web range (ref [2]).
	Alpha float64

	// OneTimerProb is the probability that a request-phase (2–3)
	// request targets a fresh, never-repeated object instead of the hot
	// population. Web streams are full of such "one-timers" (Breslau et
	// al., ref [2]) and Polygraph models them; they are the cache
	// pollution that selective caching exists to resist (§III.4).
	// Default 0.3. Because phase 3 replays phase 2, a phase-2 one-timer
	// recurs exactly once, half a trace later — still useless to cache.
	OneTimerProb float64

	// Seed makes the stream fully deterministic. Default 1.
	Seed int64
}

const (
	// populationFraction sizes the hot population as a fraction of the
	// fill-phase objects when PopulationSize is zero.
	populationFraction = 0.2
	// fillRepeatProb is the probability that a fill-phase request
	// repeats an already-introduced object ("almost no request
	// repetitions", §V.1.6).
	fillRepeatProb = 0.03
)

// withDefaults fills unset fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.FillFraction == 0 {
		c.FillFraction = 0.25
	}
	if c.Alpha == 0 {
		c.Alpha = 0.8
	}
	// For OneTimerProb, zero means "default"; pass a negative value to
	// select exactly zero.
	switch {
	case c.OneTimerProb == 0:
		c.OneTimerProb = 0.3
	case c.OneTimerProb < 0:
		c.OneTimerProb = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate reports the first configuration error after defaulting. Each
// range test on a float field is written so that NaN fails it.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.TotalRequests <= 0 {
		return fmt.Errorf("workload: TotalRequests must be positive, got %d", c.TotalRequests)
	}
	if !(c.FillFraction > 0 && c.FillFraction < 1) {
		return fmt.Errorf("workload: FillFraction must be in (0,1), got %v", c.FillFraction)
	}
	if c.PopulationSize < 0 {
		return fmt.Errorf("workload: PopulationSize must be non-negative, got %d", c.PopulationSize)
	}
	if err := validAlpha(c.Alpha); err != nil {
		return err
	}
	if !(c.OneTimerProb < 1) {
		return fmt.Errorf("workload: OneTimerProb must be below 1, got %v", c.OneTimerProb)
	}
	return nil
}

// DefaultConfig returns the standard scaled workload of the given length.
func DefaultConfig(total int) Config {
	return Config{TotalRequests: total}.withDefaults()
}

// Generator produces the three-phase stream. It is deterministic: two
// generators with equal configs emit identical streams. Not safe for
// concurrent use.
type Generator struct {
	cfg  Config
	zipf *Zipf
	// perm maps popularity rank → object ID so that hot objects are
	// scattered over the ID space instead of clustering at low IDs.
	perm []uint32

	fillEnd   int // index of the first request after the fill phase
	phase2End int // index of the first request after phase 2

	pos     int
	fillRng *rand.Rand
	// reqRng drives phases 2 and 3; it is re-seeded at the phase 2/3
	// boundary so phase 3 replays phase 2's draws exactly.
	reqRng *rand.Rand
	// oneTimers counts fresh objects emitted in the current request
	// phase; reset with reqRng so phase 3 replays the same IDs.
	oneTimers uint64
}

// oneTimerBase offsets one-timer object IDs far above the fill ID range so
// the two populations never collide.
const oneTimerBase = uint64(1) << 40

var _ Source = (*Generator)(nil)

// New builds a generator for cfg.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	fillEnd := int(float64(cfg.TotalRequests) * cfg.FillFraction)
	if fillEnd < 1 {
		fillEnd = 1
	}
	// Phases 2 and 3 split the remainder evenly (paper: 1.5 M + 1.5 M).
	phase2End := fillEnd + (cfg.TotalRequests-fillEnd)/2

	population := cfg.PopulationSize
	if population == 0 {
		population = int(float64(fillEnd) * populationFraction)
	}
	if population < 1 {
		population = 1
	}
	zipf, err := NewZipf(population, cfg.Alpha)
	if err != nil {
		return nil, err
	}

	g := &Generator{
		cfg:       cfg,
		zipf:      zipf,
		fillEnd:   fillEnd,
		phase2End: phase2End,
	}
	g.buildPerm(population)
	g.Reset()
	return g, nil
}

// buildPerm derives the rank→object permutation from the seed.
func (g *Generator) buildPerm(population int) {
	rng := rand.New(rand.NewSource(g.cfg.Seed * 7919))
	perm := make([]uint32, population)
	for i := range perm {
		perm[i] = uint32(i + 1) // object IDs start at 1
	}
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	g.perm = perm
}

// Reset rewinds the stream to the beginning.
func (g *Generator) Reset() {
	g.pos = 0
	g.fillRng = rand.New(rand.NewSource(g.cfg.Seed))
	g.reqRng = rand.New(rand.NewSource(g.cfg.Seed + 1))
	g.oneTimers = 0
}

// Total implements Source.
func (g *Generator) Total() int { return g.cfg.TotalRequests }

// Boundaries returns the stream indexes at which phases 2 and 3 begin.
func (g *Generator) Boundaries() (fillEnd, phase2End int) {
	return g.fillEnd, g.phase2End
}

// Population returns the hot-set size of phases 2–3.
func (g *Generator) Population() int { return len(g.perm) }

// Next implements Source.
func (g *Generator) Next() (ids.ObjectID, bool) {
	if g.pos >= g.cfg.TotalRequests {
		return 0, false
	}
	i := g.pos
	g.pos++

	if i < g.fillEnd {
		// Fill phase: new object IDs in sequence, with a small
		// repeat probability over the already-introduced prefix.
		if i > 0 && g.fillRng.Float64() < fillRepeatProb {
			return ids.ObjectID(g.fillRng.Intn(i) + 1), true
		}
		return ids.ObjectID(i + 1), true
	}

	if i == g.phase2End {
		// Phase 3 starts: replay phase 2 exactly by re-seeding the
		// request RNG and the one-timer counter (§V.1.6: phase 2
		// "repeats itself in Phase 3").
		g.reqRng = rand.New(rand.NewSource(g.cfg.Seed + 1))
		g.oneTimers = 0
	}
	if g.cfg.OneTimerProb > 0 && g.reqRng.Float64() < g.cfg.OneTimerProb {
		g.oneTimers++
		return ids.ObjectID(oneTimerBase + g.oneTimers), true
	}
	rank := g.zipf.Rank(g.reqRng)
	return ids.ObjectID(g.perm[rank]), true
}
