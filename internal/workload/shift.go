package workload

import (
	"fmt"
	"math/rand"

	"github.com/adc-sim/adc/internal/ids"
)

// ShiftConfig describes a non-stationary workload whose hot set is
// replaced by a disjoint one every Period requests — the "new set of
// request patterns" the paper's future work asks for (§VI) and the
// scenario that exercises self-organization: after each shift the system
// must expire the stale mappings (aging) and converge on new locations
// (backwarding) with no outside help.
type ShiftConfig struct {
	// TotalRequests is the stream length.
	TotalRequests int
	// Period is the number of requests between hot-set shifts.
	Period int
	// Population is the hot-set size of each epoch.
	Population int
	// Alpha is the Zipf popularity exponent within an epoch.
	// Default 0.8.
	Alpha float64
	// OneTimerProb mixes in never-repeated objects. Default 0 (the
	// shifts themselves provide the churn).
	OneTimerProb float64
	// Seed makes the stream deterministic. Default 1.
	Seed int64
}

// withDefaults fills unset fields.
func (c ShiftConfig) withDefaults() ShiftConfig {
	if c.Alpha == 0 {
		c.Alpha = 0.8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.OneTimerProb < 0 {
		c.OneTimerProb = 0
	}
	return c
}

// Validate reports the first configuration error. Like Config.Validate's,
// its float tests are written so that NaN fails them.
func (c ShiftConfig) Validate() error {
	c = c.withDefaults()
	if c.TotalRequests <= 0 {
		return fmt.Errorf("workload: TotalRequests must be positive, got %d", c.TotalRequests)
	}
	if c.Period <= 0 {
		return fmt.Errorf("workload: Period must be positive, got %d", c.Period)
	}
	if c.Population <= 0 {
		return fmt.Errorf("workload: Population must be positive, got %d", c.Population)
	}
	if err := validAlpha(c.Alpha); err != nil {
		return err
	}
	if !(c.OneTimerProb < 1) {
		return fmt.Errorf("workload: OneTimerProb must be below 1, got %v", c.OneTimerProb)
	}
	return nil
}

// ShiftGenerator emits the shifting-hot-set stream. Epoch e draws from
// object IDs in [e·epochBase, e·epochBase + Population), so consecutive
// hot sets are fully disjoint.
type ShiftGenerator struct {
	cfg       ShiftConfig
	zipf      *Zipf
	rng       *rand.Rand
	pos       int
	oneTimers uint64
}

var _ Source = (*ShiftGenerator)(nil)

// epochBase spaces the epochs' ID ranges; one-timers live above
// oneTimerBase like in the stationary generator.
const epochBase = uint64(1) << 32

// NewShift builds a shifting-workload generator.
func NewShift(cfg ShiftConfig) (*ShiftGenerator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	zipf, err := NewZipf(cfg.Population, cfg.Alpha)
	if err != nil {
		return nil, err
	}
	g := &ShiftGenerator{cfg: cfg, zipf: zipf}
	g.Reset()
	return g, nil
}

// Reset rewinds the stream.
func (g *ShiftGenerator) Reset() {
	g.pos = 0
	g.oneTimers = 0
	g.rng = rand.New(rand.NewSource(g.cfg.Seed + 2))
}

// Total implements Source.
func (g *ShiftGenerator) Total() int { return g.cfg.TotalRequests }

// Epochs returns the number of hot-set epochs in the stream.
func (g *ShiftGenerator) Epochs() int {
	return (g.cfg.TotalRequests + g.cfg.Period - 1) / g.cfg.Period
}

// Next implements Source.
func (g *ShiftGenerator) Next() (ids.ObjectID, bool) {
	if g.pos >= g.cfg.TotalRequests {
		return 0, false
	}
	epoch := uint64(g.pos / g.cfg.Period)
	g.pos++
	if g.cfg.OneTimerProb > 0 && g.rng.Float64() < g.cfg.OneTimerProb {
		g.oneTimers++
		return ids.ObjectID(oneTimerBase + g.oneTimers), true
	}
	rank := g.zipf.Rank(g.rng)
	return ids.ObjectID(epoch*epochBase + uint64(rank) + 1), true
}
