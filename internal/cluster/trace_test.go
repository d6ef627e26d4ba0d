package cluster

import (
	"testing"

	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
)

// TestTracingIsObservationallyPure: attaching a tracer must not change a
// single simulation observable — the tracer only watches. Runs the golden
// workload with and without a tracer and compares full summaries.
func TestTracingIsObservationallyPure(t *testing.T) {
	for _, rt := range []Runtime{RuntimeSequential, RuntimeVirtualTime} {
		t.Run(rt.String(), func(t *testing.T) {
			base, err := Run(goldenConfig(rt), trace.NewSliceSource(goldenTrace()))
			if err != nil {
				t.Fatal(err)
			}
			cfg := goldenConfig(rt)
			cfg.Tracer = obs.New()
			traced, err := Run(cfg, trace.NewSliceSource(goldenTrace()))
			if err != nil {
				t.Fatal(err)
			}
			// Elapsed is wall-clock; everything else must match exactly.
			base.Summary.Elapsed = 0
			traced.Summary.Elapsed = 0
			if base.Summary != traced.Summary {
				t.Errorf("tracing changed the summary:\nbase   %+v\ntraced %+v", base.Summary, traced.Summary)
			}
			if base.Delivered != traced.Delivered || base.OriginResolved != traced.OriginResolved {
				t.Errorf("tracing changed delivery counts: %d/%d vs %d/%d",
					base.Delivered, base.OriginResolved, traced.Delivered, traced.OriginResolved)
			}
			if cfg.Tracer.Len() == 0 {
				t.Error("tracer recorded nothing")
			}
		})
	}
}

// TestTraceWellFormed: a lossless traced run must produce a schema-valid
// trace whose reconstructed trees account for every injected request — all
// complete (delivered at the first attempt), none orphaned.
func TestTraceWellFormed(t *testing.T) {
	cfg := goldenConfig(RuntimeVirtualTime)
	cfg.Tracer = obs.New()
	res, err := Run(cfg, trace.NewSliceSource(goldenTrace()))
	if err != nil {
		t.Fatal(err)
	}
	events := cfg.Tracer.Events()
	if err := obs.Validate(events); err != nil {
		t.Fatalf("trace fails validation: %v", err)
	}

	var injects, delivers uint64
	for _, e := range events {
		switch e.Kind {
		case obs.KindInject:
			injects++
		case obs.KindDeliver:
			delivers++
		}
	}
	if injects != res.Summary.Requests {
		t.Errorf("inject events = %d, want %d", injects, res.Summary.Requests)
	}
	if delivers != res.Summary.Requests {
		t.Errorf("deliver events = %d, want %d", delivers, res.Summary.Requests)
	}

	// Every request delivered at its first attempt: one complete tree each.
	c := obs.CensusSpanTrees(obs.BuildSpanTrees(obs.EventSpans(events)))
	if c.Trees != 4000 || uint64(c.Trees) != res.Summary.Requests || c.Complete != c.Trees {
		t.Fatalf("census %+v, want %d complete trees", c, res.Summary.Requests)
	}
}

// TestTraceRetransmissionTrees is the end-to-end recovery-tracing contract:
// under ~1% message loss with the recovery protocol on, every retransmitted
// request must reconstruct as one tree whose retry attempts hang under
// their predecessors inside the same tree — never as orphan fragments.
func TestTraceRetransmissionTrees(t *testing.T) {
	cfg := goldenConfig(RuntimeVirtualTime)
	cfg.Tracer = obs.New()
	cfg.Faults = &sim.FaultPlan{Seed: 7, Loss: 0.01}
	cfg.Recovery = sim.DefaultRecovery()
	res, err := Run(cfg, trace.NewSliceSource(goldenTrace()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Retries == 0 {
		t.Fatal("no retries at 1% loss; the test exercises nothing")
	}
	events := cfg.Tracer.Events()
	if err := obs.Validate(events); err != nil {
		t.Fatalf("trace fails validation: %v", err)
	}

	trees := obs.BuildSpanTrees(obs.EventSpans(events))
	// A retry's attempt span hangs under the attempt its Prev names; walking
	// every tree from its root must reach each one exactly there.
	var linked uint64
	var retried int
	for _, tr := range trees {
		if tr.Root == nil {
			continue
		}
		n := retriesUnder(tr.Root)
		linked += n
		if n > 0 {
			retried++
		}
	}
	if linked != res.Summary.Retries {
		t.Errorf("%d retry attempts linked under their predecessors, engine counted %d retries", linked, res.Summary.Retries)
	}
	// Every request is eventually delivered; the retransmitted ones are
	// truncated by their timed-out attempts. 199 of goldenTrace's 4000
	// requests retransmit at 1% loss, seed 7.
	c := obs.CensusSpanTrees(trees)
	if c.Trees != 4000 || c.Orphaned != 0 || c.Truncated != retried || retried != 199 {
		t.Fatalf("census %+v with %d retransmitted trees, want 4000 trees, 0 orphaned, 199 truncated", c, retried)
	}

	var retryEvents uint64
	for _, e := range events {
		if e.Kind == obs.KindRetry {
			retryEvents++
		}
	}
	if retryEvents != res.Summary.Retries {
		t.Errorf("retry events = %d, engine counted %d", retryEvents, res.Summary.Retries)
	}
}

// retriesUnder counts the attempt spans parented on another attempt span in
// the subtree rooted at n.
func retriesUnder(n *obs.SpanNode) uint64 {
	var k uint64
	for _, c := range n.Children {
		if c.Stage == obs.SpanAttempt && n.Stage == obs.SpanAttempt {
			k++
		}
		k += retriesUnder(c)
	}
	return k
}

// TestMetricsBuckets: the time-series recorder's windows must re-add to the
// end-of-run summary and carry per-proxy occupancy snapshots.
func TestMetricsBuckets(t *testing.T) {
	cfg := goldenConfig(RuntimeVirtualTime)
	cfg.MetricsEvery = 50_000
	res, err := Run(cfg, trace.NewSliceSource(goldenTrace()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Buckets) == 0 {
		t.Fatal("no buckets recorded")
	}
	var injected, completed, hits uint64
	var prevEnd int64
	for i, b := range res.Buckets {
		if b.End != b.Start+cfg.MetricsEvery {
			t.Errorf("bucket %d: window [%d,%d) is not %d wide", i, b.Start, b.End, cfg.MetricsEvery)
		}
		if i > 0 && b.Start != prevEnd {
			t.Errorf("bucket %d: starts at %d, previous ended at %d", i, b.Start, prevEnd)
		}
		prevEnd = b.End
		injected += b.Injected
		completed += b.Completed
		hits += b.Hits
		if len(b.Occupancy) != cfg.NumProxies || len(b.Cached) != cfg.NumProxies {
			t.Errorf("bucket %d: %d/%d proxy snapshots, want %d", i, len(b.Occupancy), len(b.Cached), cfg.NumProxies)
		}
	}
	if injected != res.Summary.Requests || completed != res.Summary.Requests {
		t.Errorf("bucket totals injected=%d completed=%d, want %d", injected, completed, res.Summary.Requests)
	}
	if hits != res.Summary.Hits {
		t.Errorf("bucket hits = %d, want %d", hits, res.Summary.Hits)
	}
}

// TestEveryAlgorithmTracedAndWindowed: every scheme runs on the same proxy
// node, so every one is traced and windowed the same way. Each request a
// proxy receives is one hit or one forward event, the traced requests
// rebuild into trees with no orphan, and every bucket carries one
// occupancy snapshot per proxy node — the hierarchy's root and the
// coordinator's dispatcher included.
func TestEveryAlgorithmTracedAndWindowed(t *testing.T) {
	for _, alg := range []Algorithm{ADC, CARP, CHash, Hierarchical, Coordinator} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := goldenConfig(RuntimeVirtualTime)
			cfg.Algorithm = alg
			cfg.Tracer = obs.New()
			cfg.MetricsEvery = 50_000
			res, err := Run(cfg, trace.NewSliceSource(goldenTrace()))
			if err != nil {
				t.Fatal(err)
			}
			nodes := cfg.NumProxies
			if alg == Hierarchical || alg == Coordinator {
				nodes++
			}
			if len(res.ProxyStats) != nodes {
				t.Fatalf("%d proxy stats, want %d", len(res.ProxyStats), nodes)
			}

			var received, arrivals uint64
			for _, s := range res.ProxyStats {
				received += s.Requests
			}
			events := cfg.Tracer.Events()
			for _, e := range events {
				if e.Kind == obs.KindHit || e.Kind == obs.KindForward {
					arrivals++
				}
			}
			if arrivals != received {
				t.Errorf("hit + forward events = %d, proxies received %d requests", arrivals, received)
			}
			c := obs.CensusSpanTrees(obs.BuildSpanTrees(obs.EventSpans(events)))
			if c.Trees != 4000 || uint64(c.Trees) != res.Summary.Requests || c.Complete != c.Trees {
				t.Fatalf("census %+v, want %d complete trees", c, res.Summary.Requests)
			}

			if len(res.Buckets) == 0 {
				t.Fatal("no buckets recorded")
			}
			for i, b := range res.Buckets {
				if len(b.Occupancy) != nodes || len(b.Cached) != nodes {
					t.Fatalf("bucket %d: %d/%d occupancy snapshots, want %d", i, len(b.Occupancy), len(b.Cached), nodes)
				}
			}
			if res.PeakWindowShare <= 0 {
				t.Errorf("PeakWindowShare = %v, want > 0", res.PeakWindowShare)
			}
		})
	}
}

// TestTraceConfigValidation: windowed metrics need a clock — the sequential
// runtime must refuse them loudly rather than silently record nothing.
func TestTraceConfigValidation(t *testing.T) {
	cfg := goldenConfig(RuntimeSequential)
	cfg.MetricsEvery = 1000
	if _, err := Run(cfg, trace.NewSliceSource(goldenTrace())); err == nil {
		t.Error("metrics on the clockless sequential runtime accepted")
	}
}
