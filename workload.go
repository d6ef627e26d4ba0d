package adc

import (
	"fmt"
	"io"
	"os"
	"unsafe"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/trace"
	"github.com/adc-sim/adc/internal/workload"
)

// Source is a stream of object requests: Next yields the next requested
// object ID until ok is false; Total is the stream length. Workloads,
// loaded traces and plain slices (SliceSource) all implement it.
type Source interface {
	Next() (obj uint64, ok bool)
	Total() int
}

// sourceAdapter bridges the public Source to the internal interface.
type sourceAdapter struct{ s Source }

func (a sourceAdapter) Next() (ids.ObjectID, bool) {
	obj, ok := a.s.Next()
	return ids.ObjectID(obj), ok
}
func (a sourceAdapter) Total() int { return a.s.Total() }

// Rest implements workload.SliceBacked when the wrapped source is a
// *SliceSource: its unread requests, viewed in place as ids.ObjectID
// (whose underlying type is uint64) rather than copied.
func (a sourceAdapter) Rest() ([]ids.ObjectID, bool) {
	s, ok := a.s.(*SliceSource)
	if !ok {
		return nil, false
	}
	rest := s.objs[s.pos:]
	s.pos = len(s.objs)
	return unsafe.Slice((*ids.ObjectID)(unsafe.SliceData(rest)), len(rest)), true
}

// internalSource bridges the other way (for generated workloads).
type internalSource struct{ s workload.Source }

func (a internalSource) Next() (uint64, bool) {
	obj, ok := a.s.Next()
	return uint64(obj), ok
}
func (a internalSource) Total() int { return a.s.Total() }

// WorkloadConfig parameterises the synthetic three-phase request stream
// modelled on the paper's Web Polygraph trace (§V.1.6): a fill phase of
// nearly-unique requests, a Zipf-skewed request phase, and an exact replay
// of that phase. See DESIGN.md §3 for why this substitution preserves the
// paper's workload properties.
type WorkloadConfig struct {
	// Requests is the stream length. The paper's trace has 3,990,000.
	Requests int
	// Population is the hot object count of phases 2–3. Default 20% of
	// the fill-phase objects; the calibrated experiments use 10,000 at
	// paper scale.
	Population int
	// Alpha is the Zipf popularity exponent. Default 0.8.
	Alpha float64
	// OneTimerProb is the request-phase probability of a fresh,
	// never-repeated object. Default 0.3; negative selects exactly 0.
	OneTimerProb float64
	// FillFraction is the share of requests in the fill phase.
	// Default 0.25.
	FillFraction float64
	// Seed makes the stream deterministic. Default 1.
	Seed int64
}

// Workload is a generated request stream. It implements Source.
type Workload struct {
	gen *workload.Generator
}

var _ Source = (*Workload)(nil)

// NewWorkload builds a deterministic synthetic workload.
func NewWorkload(cfg WorkloadConfig) (*Workload, error) {
	gen, err := workload.New(workload.Config{
		TotalRequests:  cfg.Requests,
		PopulationSize: cfg.Population,
		Alpha:          cfg.Alpha,
		OneTimerProb:   cfg.OneTimerProb,
		FillFraction:   cfg.FillFraction,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Workload{gen: gen}, nil
}

// Next implements Source.
func (w *Workload) Next() (uint64, bool) {
	obj, ok := w.gen.Next()
	return uint64(obj), ok
}

// Total implements Source.
func (w *Workload) Total() int { return w.gen.Total() }

// Reset rewinds the stream for another replay.
func (w *Workload) Reset() { w.gen.Reset() }

// Boundaries returns the request indexes at which phases 2 and 3 begin.
func (w *Workload) Boundaries() (fillEnd, phase2End int) { return w.gen.Boundaries() }

// Population returns the hot-set size of phases 2–3.
func (w *Workload) Population() int { return w.gen.Population() }

// TraceStats summarises a request stream: length, distinct objects,
// one-timers, the recurring-request share (the warm-cache hit ceiling) and
// popularity concentration.
type TraceStats = workload.TraceStats

// AnalyzeWorkload drains src and computes its statistics; generators can
// be Reset afterwards for reuse.
func AnalyzeWorkload(src Source) TraceStats {
	return workload.Analyze(sourceAdapter{src})
}

// ShiftWorkloadConfig describes a non-stationary workload whose hot set is
// replaced by a disjoint one every Period requests — the stress case for
// self-organization: the proxies must expire stale mappings and converge
// on new locations unaided after every shift.
type ShiftWorkloadConfig struct {
	// Requests is the stream length.
	Requests int
	// Period is the number of requests between hot-set shifts.
	Period int
	// Population is each epoch's hot-set size.
	Population int
	// Alpha is the Zipf exponent within an epoch. Default 0.8.
	Alpha float64
	// OneTimerProb mixes in never-repeated objects. Default 0.
	OneTimerProb float64
	// Seed makes the stream deterministic. Default 1.
	Seed int64
}

// ShiftWorkload is a generated shifting-hot-set stream; it implements
// Source.
type ShiftWorkload struct {
	gen *workload.ShiftGenerator
}

var _ Source = (*ShiftWorkload)(nil)

// NewShiftWorkload builds a deterministic shifting workload.
func NewShiftWorkload(cfg ShiftWorkloadConfig) (*ShiftWorkload, error) {
	gen, err := workload.NewShift(workload.ShiftConfig{
		TotalRequests: cfg.Requests,
		Period:        cfg.Period,
		Population:    cfg.Population,
		Alpha:         cfg.Alpha,
		OneTimerProb:  cfg.OneTimerProb,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &ShiftWorkload{gen: gen}, nil
}

// Next implements Source.
func (w *ShiftWorkload) Next() (uint64, bool) {
	obj, ok := w.gen.Next()
	return uint64(obj), ok
}

// Total implements Source.
func (w *ShiftWorkload) Total() int { return w.gen.Total() }

// Reset rewinds the stream for another replay.
func (w *ShiftWorkload) Reset() { w.gen.Reset() }

// Epochs returns the number of hot-set epochs.
func (w *ShiftWorkload) Epochs() int { return w.gen.Epochs() }

// SliceSource replays a fixed request list.
type SliceSource struct {
	objs []uint64
	pos  int
}

var _ Source = (*SliceSource)(nil)

// NewSliceSource wraps objs without copying.
func NewSliceSource(objs []uint64) *SliceSource { return &SliceSource{objs: objs} }

// Next implements Source.
func (s *SliceSource) Next() (uint64, bool) {
	if s.pos >= len(s.objs) {
		return 0, false
	}
	obj := s.objs[s.pos]
	s.pos++
	return obj, true
}

// Total implements Source.
func (s *SliceSource) Total() int { return len(s.objs) }

// Reset rewinds the source.
func (s *SliceSource) Reset() { s.pos = 0 }

// SaveTrace writes src to w in the binary trace format, so an experiment
// can be repeated on the exact same stream.
func SaveTrace(w io.Writer, src Source) error {
	return trace.Write(w, sourceAdapter{src})
}

// LoadTrace opens a binary trace previously written by SaveTrace.
// The returned Source streams from r; keep r open while consuming.
func LoadTrace(r io.Reader) (Source, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	return internalSource{s: tr}, nil
}

// SaveTraceFile writes src to path in the binary trace format.
func SaveTraceFile(path string, src Source) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("adc: create trace: %w", err)
	}
	if err := SaveTrace(f, src); err != nil {
		f.Close() //nolint:errcheck // already on the error path
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("adc: close trace: %w", err)
	}
	return nil
}

// LoadTraceFile loads a whole binary trace file into memory and returns it
// as a replayable Source.
func LoadTraceFile(path string) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("adc: open trace: %w", err)
	}
	defer f.Close() //nolint:errcheck // read-only file
	src, err := LoadTrace(f)
	if err != nil {
		return nil, err
	}
	objs := make([]uint64, 0, min(src.Total(), trace.MaxPrealloc))
	for {
		obj, ok := src.Next()
		if !ok {
			break
		}
		objs = append(objs, obj)
	}
	if len(objs) != src.Total() {
		return nil, fmt.Errorf("adc: trace %s truncated: %d of %d requests", path, len(objs), src.Total())
	}
	return NewSliceSource(objs), nil
}
