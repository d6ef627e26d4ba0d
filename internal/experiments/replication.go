package experiments

import (
	"context"
	"fmt"

	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/protocol"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
	"github.com/adc-sim/adc/internal/workload"
)

// The hot-object replication study. Stock ADC converges every object onto
// a single holder (backwarding), so right after each popularity shift the
// new head object's home absorbs every peer's forwards — a transient
// hotspot that rotates across proxies and is invisible in run-total load
// statistics. ReplicationSweep quantifies what the replication controller
// buys across its two knobs (hot threshold × max replicas), against stock
// ADC and both hashing baselines on the identical stream.

// Reference scenario constants: a head-heavy shifting Zipf under open-loop
// injection with queued service, so load actually queues at the hot proxy.
// These mirror the replication benchmark scenario in internal/cluster.
const (
	repRequests     = 30_000
	repPeriod       = 3_000
	repPopulation   = 100
	repAlpha        = 2.0
	repInterval     = 700
	repMetricsEvery = 50_000
)

// ReplicationOptions parameterises the sweep grid and workload.
type ReplicationOptions struct {
	// Thresholds are the hot-detection thresholds to sweep (hits per
	// replication window before an object is pushed). Default {2, 4, 8}.
	Thresholds []int
	// MaxReplicas are the replica-set bounds to sweep. Default {2, 4, 7}.
	MaxReplicas []int
	// Requests, Period, Population and Alpha shape the shifting-Zipf
	// stream (zero = the reference scenario: 30k requests, shift every
	// 3k, 100 hot objects, alpha 2.0).
	Requests   int
	Period     int
	Population int
	Alpha      float64
	// WorkloadSeed seeds the stream (0 = profile seed).
	WorkloadSeed int64
}

func (o ReplicationOptions) withDefaults(p Profile) ReplicationOptions {
	if len(o.Thresholds) == 0 {
		o.Thresholds = []int{2, 4, 8}
	}
	if len(o.MaxReplicas) == 0 {
		o.MaxReplicas = []int{2, 4, 7}
	}
	if o.Requests == 0 {
		o.Requests = repRequests
	}
	if o.Period == 0 {
		o.Period = repPeriod
	}
	if o.Population == 0 {
		o.Population = repPopulation
	}
	if o.Alpha == 0 {
		o.Alpha = repAlpha
	}
	if o.WorkloadSeed == 0 {
		o.WorkloadSeed = p.Seed
	}
	return o
}

// ReplicationPoint is one cell of the replication sweep.
type ReplicationPoint struct {
	// Algorithm is the scheme under test; HotThreshold and MaxReplicas
	// are zero for the non-replicated baseline rows (stock ADC, CARP,
	// consistent hashing).
	Algorithm    cluster.Algorithm
	Replicated   bool
	HotThreshold int
	MaxReplicas  int
	// HitRate, MeanResponse and P99Response summarise completed
	// requests (responses in virtual ticks).
	HitRate      float64
	MeanResponse float64
	P99Response  float64
	// MeanWindowShare and MeanWindowPeak are the warmup-skipped windowed
	// load statistics (cluster.MeanWindowLoad): the mean over windows of
	// the per-window max/mean reception share, and of the hottest
	// proxy's per-window receptions. These — not the run totals — are
	// where the post-shift hotspot lives.
	MeanWindowShare float64
	MeanWindowPeak  float64
	// MaxMeanShare and GiniShare are the run-total spreads, kept for
	// contrast with the windowed view.
	MaxMeanShare float64
	GiniShare    float64
	// CachedEntries is the cluster-wide cached-object count at the last
	// metrics snapshot — the capacity cost of multi-homing. Simulated
	// objects are unit-size, so entries are bytes up to the constant
	// object size.
	CachedEntries int
	// Controller counters (zero on non-replicated rows).
	ReplicaPushes uint64
	ReplicaDrops  uint64
	ReplicaHits   uint64
}

// replicationGrid expands the option grid into per-run replication
// configurations. Index 0..2 are the baselines (stock ADC, CARP, CHash);
// the rest is the threshold × max-replicas product in row-major order.
func replicationGrid(o ReplicationOptions) []ReplicationPoint {
	grid := []ReplicationPoint{
		{Algorithm: cluster.ADC},
		{Algorithm: cluster.CARP},
		{Algorithm: cluster.CHash},
	}
	for _, th := range o.Thresholds {
		for _, maxR := range o.MaxReplicas {
			grid = append(grid, ReplicationPoint{
				Algorithm:    cluster.ADC,
				Replicated:   true,
				HotThreshold: th,
				MaxReplicas:  maxR,
			})
		}
	}
	return grid
}

// replicationClusterConfig assembles the fixed scenario around one grid
// cell: virtual time, open-loop injection, queued service, response
// histograms and windowed load snapshots.
func replicationClusterConfig(p Profile, pt ReplicationPoint) cluster.Config {
	cfg := cluster.Config{
		Algorithm:  pt.Algorithm,
		NumProxies: p.Proxies,
		Clients:    p.Proxies,
		Tables:     core.Config{SingleSize: 1024, MultipleSize: 1024, CachingSize: 8, Backend: p.Backend},
		Seed:       p.Seed,
		Window:     p.Window,
		Runtime:    cluster.RuntimeVirtualTime,

		OpenLoopInterval: repInterval,
		Latency: sim.LatencyModel{
			ClientProxy:  5_000,
			ProxyProxy:   10_000,
			ProxyOrigin:  50_000,
			Service:      100,
			QueueService: true,
		},

		ResponseBuckets:     4096,
		ResponseBucketTicks: 1000,
		MetricsEvery:        repMetricsEvery,
	}
	if pt.Replicated {
		cfg.Replication = protocol.Replication{
			Enabled:      true,
			HotThreshold: pt.HotThreshold,
			MaxReplicas:  pt.MaxReplicas,
			Window:       512,
		}
	}
	return cfg
}

// replicationWarmupWindows is the number of MetricsEvery windows covering
// the first workload epoch, which every configuration spends identically
// filling cold caches: Period requests injected every repInterval ticks
// across the open loops.
func replicationWarmupWindows(o ReplicationOptions, clients int) int {
	return int(int64(o.Period) * repInterval / int64(clients) / repMetricsEvery)
}

// ReplicationSweep runs the threshold × max-replicas grid plus the three
// non-replicated baselines over one shifting-Zipf stream. Results are
// index-stable: grid order and every number are independent of
// Parallelism.
func ReplicationSweep(p Profile, opts ReplicationOptions) ([]ReplicationPoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(p)

	gen, err := workload.NewShift(workload.ShiftConfig{
		TotalRequests: opts.Requests,
		Period:        opts.Period,
		Population:    opts.Population,
		Alpha:         opts.Alpha,
		Seed:          opts.WorkloadSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: replication workload: %w", err)
	}
	// Materialize once; every run replays the identical stream through
	// its own cursor (SliceSource never mutates the shared slice).
	stream := trace.Drain(gen)

	out := replicationGrid(opts)
	skip := replicationWarmupWindows(opts, p.Proxies)
	err = p.forEach("replication", len(out), func(_ context.Context, i int) (uint64, error) {
		cfg := replicationClusterConfig(p, out[i])
		res, err := cluster.Run(cfg, trace.NewSliceSource(stream))
		if err != nil {
			return 0, fmt.Errorf("experiments: replication %v t=%d r=%d: %w",
				out[i].Algorithm, out[i].HotThreshold, out[i].MaxReplicas, err)
		}
		fillPoint(&out[i], res, skip)
		return res.Delivered, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fillPoint copies one run's measurements into its grid cell.
func fillPoint(pt *ReplicationPoint, res *cluster.Result, skipWindows int) {
	pt.HitRate = res.Summary.HitRate
	pt.MeanResponse = res.Summary.MeanResponse
	pt.P99Response = res.Summary.P99Response
	pt.MeanWindowShare, pt.MeanWindowPeak = cluster.MeanWindowLoad(res.Buckets, skipWindows)
	pt.MaxMeanShare = res.MaxMeanShare
	pt.GiniShare = res.GiniShare
	pt.CachedEntries = cachedAtEnd(res)
	for _, s := range res.ProxyStats {
		pt.ReplicaPushes += s.ReplicaPushes
		pt.ReplicaDrops += s.ReplicaDrops
		pt.ReplicaHits += s.ReplicaHits
	}
}

// cachedAtEnd sums the per-proxy cached-entry counts in the last sealed
// metrics bucket that carries an occupancy snapshot.
func cachedAtEnd(res *cluster.Result) int {
	for i := len(res.Buckets) - 1; i >= 0; i-- {
		if len(res.Buckets[i].Cached) == 0 {
			continue
		}
		total := 0
		for _, c := range res.Buckets[i].Cached {
			total += c
		}
		return total
	}
	return 0
}
