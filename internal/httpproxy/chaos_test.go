package httpproxy

import (
	"strings"
	"testing"
	"time"

	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
)

// TestOneScheduleBothDrivers parses one spec once and plays the same plan on
// a virtual-time cluster and on the farm: each applies one kill and one
// restart of proxy 1.
func TestOneScheduleBothDrivers(t *testing.T) {
	plan, err := sim.ParseFaultSpec("kill=p1@2s,restart=p1@5s")
	if err != nil {
		t.Fatal(err)
	}

	objs := make([]ids.ObjectID, 200)
	for i := range objs {
		objs[i] = ids.ObjectID(i % 40)
	}
	res, err := cluster.Run(cluster.Config{
		Algorithm:  cluster.ADC,
		NumProxies: 3,
		Tables:     core.Config{SingleSize: 64, MultipleSize: 64, CachingSize: 32},
		Seed:       1,
		Runtime:    cluster.RuntimeVirtualTime,
		Faults:     plan,
		Recovery:   sim.DefaultRecovery(),
	}, trace.NewSliceSource(objs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Crashes != 1 || res.Faults.Restarts != 1 {
		t.Errorf("cluster crashes/restarts = %d/%d, want 1/1", res.Faults.Crashes, res.Faults.Restarts)
	}

	f := testFarm(t, 3)
	if err := CheckChaos(plan, len(f.Proxies)); err != nil {
		t.Fatal(err)
	}
	// A start 5 s in the past makes every event due at once: nothing sleeps.
	applied := f.PlayChaos(plan, time.Now().Add(-5*time.Second), nil)
	if len(applied) != 2 || applied[0].Action != "kill" || applied[1].Action != "restart" {
		t.Fatalf("farm applied %+v, want kill then restart", applied)
	}
	for _, ap := range applied {
		if ap.A != 1 || ap.Err != nil {
			t.Errorf("farm %s: proxy %d, err %v; want proxy 1, no error", ap.Action, ap.A, ap.Err)
		}
	}
	checkFarmInvariants(t, f)
}

// TestCheckChaos: the farm plays kills, warm restarts and partitions, and
// refuses every other clause with an error naming it and the simulator.
func TestCheckChaos(t *testing.T) {
	plan, err := sim.ParseFaultSpec("partition=p0:p2@1ms+1ms,partition=1:2@3ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckChaos(plan, 3); err != nil {
		t.Fatal(err)
	}
	f := testFarm(t, 3)
	var got []string
	for _, ap := range f.PlayChaos(plan, time.Now().Add(-time.Second), nil) {
		got = append(got, ap.Action)
	}
	if strings.Join(got, ",") != "partition,heal,partition" {
		t.Errorf("farm applied %v, want partition, heal, partition", got)
	}
	// The last tick is centuries into the run: stopped now, nothing fires.
	far, err := sim.ParseFaultSpec("kill=1@9223372036854775807")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	if applied := f.PlayChaos(far, time.Now(), stop); len(applied) != 0 {
		t.Errorf("farm applied %+v from a kill centuries away", applied)
	}

	for spec, want := range map[string]string{
		"loss=0.1":                   "loss=0.1",
		"jitter=5ms":                 "jitter=5000",
		"link=p0>p1:0.5":             "link=0>1:0.5",
		"kill=1@1s,restart=1@2s!":    "restart=1@2000000!",
		"kill=3@1s":                  "farm has 3",
		"partition=0:7@1s":           "outside farm of 3",
		"kill=1@0":                   "must be positive",
		"partition=1:2@0+1s":         "must be positive",
		"kill=1@1s,partition=1:1@2s": "two distinct proxies",
	} {
		plan, err := sim.ParseFaultSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		err = CheckChaos(plan, 3)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("CheckChaos(%s) = %v, want an error containing %q", spec, err, want)
		}
		if strings.Contains(want, "=") && !strings.Contains(err.Error(), "simulator") {
			t.Errorf("CheckChaos(%s) = %v, want it to name the simulator", spec, err)
		}
	}
}
