package metrics

import (
	"math"
	"testing"
)

func TestCollectorCounts(t *testing.T) {
	c := NewCollector(metricsTestOpts()...)
	c.Record(true, 4, 1)
	c.Record(false, 6, 2)
	c.Record(true, 2, 0)
	if c.Requests() != 3 || c.Hits() != 2 {
		t.Errorf("requests/hits = %d/%d", c.Requests(), c.Hits())
	}
	if got := c.CumHitRate(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("CumHitRate = %v", got)
	}
	if got := c.CumHops(); math.Abs(got-4) > 1e-12 {
		t.Errorf("CumHops = %v", got)
	}
	if got := c.MeanPathLen(); math.Abs(got-1) > 1e-12 {
		t.Errorf("MeanPathLen = %v", got)
	}
}

func metricsTestOpts() []Option {
	return []Option{WithWindow(2), WithSampleEvery(2)}
}

func TestCollectorWindow(t *testing.T) {
	c := NewCollector(WithWindow(2), WithSampleEvery(3))
	c.Record(true, 1, 0)
	c.Record(true, 1, 0)
	c.Record(false, 4, 0)
	// Window of 2 now holds {hit, miss} and hops {1, 4}; the running
	// totals still cover all three requests.
	series := c.Series()
	if len(series) != 1 {
		t.Fatalf("series length = %d, want 1", len(series))
	}
	p := series[0]
	if math.Abs(p.HitRate-0.5) > 1e-12 || math.Abs(p.Hops-2.5) > 1e-12 {
		t.Errorf("window hit rate/hops = %v/%v, want 0.5/2.5", p.HitRate, p.Hops)
	}
	if math.Abs(p.CumHitRate-2.0/3.0) > 1e-12 || math.Abs(p.CumHops-2) > 1e-12 {
		t.Errorf("cumulative hit rate/hops = %v/%v, want 2/3 and 2", p.CumHitRate, p.CumHops)
	}
}

func TestCollectorSeries(t *testing.T) {
	c := NewCollector(WithWindow(10), WithSampleEvery(2))
	for i := 0; i < 6; i++ {
		c.Record(i%2 == 0, 3, 1)
	}
	series := c.Series()
	if len(series) != 3 {
		t.Fatalf("series length = %d, want 3", len(series))
	}
	for i, p := range series {
		if p.Requests != uint64(2*(i+1)) {
			t.Errorf("sample %d at %d requests", i, p.Requests)
		}
		if p.Hops != 3 || p.CumHops != 3 {
			t.Errorf("sample %d hops = %v/%v", i, p.Hops, p.CumHops)
		}
	}
}

func TestCollectorSeriesDisabled(t *testing.T) {
	c := NewCollector(WithWindow(10), WithSampleEvery(0), WithExpectedRequests(100))
	for i := 0; i < 100; i++ {
		c.Record(true, 1, 1)
	}
	if len(c.Series()) != 0 {
		t.Error("series must be empty when sampling is disabled")
	}
	if c.window != nil || c.hopsWindow != nil || c.series != nil {
		t.Error("a collector that does not sample must not build its windows or series")
	}
	if c.Requests() != 100 || c.CumHitRate() != 1 || c.CumHops() != 1 {
		t.Errorf("running totals = %d/%v/%v", c.Requests(), c.CumHitRate(), c.CumHops())
	}
}

func TestSummarySnapshot(t *testing.T) {
	c := NewCollector(WithSampleEvery(0))
	c.Record(true, 4, 2)
	c.Record(false, 8, 4)
	s := c.Summary()
	if s.Requests != 2 || s.Hits != 1 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.HitRate-0.5) > 1e-12 || math.Abs(s.Hops-6) > 1e-12 || math.Abs(s.PathLen-3) > 1e-12 {
		t.Errorf("summary rates = %+v", s)
	}
}

func TestProxyStatsAddAndRate(t *testing.T) {
	a := ProxyStats{Requests: 10, LocalHits: 4, ForwardRandom: 3}
	b := ProxyStats{Requests: 30, LocalHits: 6, LoopsDetected: 2}
	a.Add(b)
	if a.Requests != 40 || a.LocalHits != 10 || a.ForwardRandom != 3 || a.LoopsDetected != 2 {
		t.Errorf("merged = %+v", a)
	}
}
