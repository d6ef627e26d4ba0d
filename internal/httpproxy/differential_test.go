package httpproxy

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/protocol"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
)

// differentialTrace is a fixed stream with a hot head (so objects get cached,
// hit, pushed and dropped) over a cold tail wider than the tables (so
// entries churn through every table and fall off the end).
func differentialTrace() []ids.ObjectID {
	objs := make([]ids.ObjectID, 6000)
	state := uint64(0x5EEDFACADE)
	for i := range objs {
		state = state*6364136223846793005 + 1442695040888963407
		r := state >> 33
		if r%3 == 0 {
			objs[i] = ids.ObjectID(r % 40)
		} else {
			objs[i] = ids.ObjectID(100 + r%600)
		}
	}
	return objs
}

// TestSimAndFarmRunTheSameProtocol is the acceptance test of "one protocol
// core, two drivers": one seeded request stream runs through a simulated
// cluster and is then replayed, request by request through the same entry
// proxies, against an in-process HTTP farm with the same seed, table sizes and
// hop bound. Both drivers feed the same agent the same events, so every
// proxy must end with identical counters and byte-identical mapping tables —
// an extra rng draw, a reordered table call or a missed advertisement on
// either side shows up here. The farm additionally has to keep its payload
// store exactly the caching table's membership.
func TestSimAndFarmRunTheSameProtocol(t *testing.T) {
	const (
		proxies = 5
		seed    = 42
		maxHops = 4
	)
	tables := core.Config{SingleSize: 120, MultipleSize: 80, CachingSize: 40}
	modes := map[string]protocol.Replication{
		"stock":       {},
		"replication": {Enabled: true, HotThreshold: 2, MaxReplicas: 3, Window: 512},
	}
	for name, rep := range modes {
		t.Run(name, func(t *testing.T) {
			// The simulator side: one closed-loop client keeps exactly one
			// request in flight, which is what makes a serial replay the
			// same experiment. Inject events record the entry proxies its
			// private stream picked.
			tr := obs.New(obs.KindInject)
			cl, err := cluster.New(cluster.Config{
				Algorithm:   cluster.ADC,
				NumProxies:  proxies,
				Tables:      tables,
				MaxHops:     maxHops,
				Seed:        seed,
				Clients:     1,
				EntryPolicy: sim.EntryRandom,
				Runtime:     cluster.RuntimeVirtualTime,
				Replication: rep,
				Tracer:      tr,
			}, trace.NewSliceSource(differentialTrace()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			injects := tr.Events()
			if len(injects) != len(differentialTrace()) {
				t.Fatalf("simulator injected %d requests, want %d", len(injects), len(differentialTrace()))
			}

			// The farm side: the same (object, entry proxy) sequence.
			f, err := NewFarm(proxies, Config{
				Tables:      tables,
				MaxHops:     maxHops,
				Seed:        seed,
				Replication: rep,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = f.Close() })
			for i, e := range injects {
				if _, err := f.Get(int(e.To), e.Obj, "d-"+strconv.Itoa(i)); err != nil {
					t.Fatal(err)
				}
			}

			var total metrics.ProxyStats
			for i, sp := range cl.ADCProxies() {
				fp := f.Proxies[i]
				sa := sp.Policy().(*protocol.Agent)
				if got, want := fp.Stats(), sp.Stats(); got != want {
					t.Errorf("proxy %d stats differ:\nfarm %+v\nsim  %+v", i, got, want)
				}
				var want bytes.Buffer
				if err := sa.Tables().Dump(&want, sa.LocalTime()); err != nil {
					t.Fatal(err)
				}
				status, dump := getBody(t, fp.URL()+"/debug/tables")
				if status != http.StatusOK {
					t.Fatalf("proxy %d /debug/tables: status %d", i, status)
				}
				if dump != want.String() {
					t.Errorf("proxy %d mapping tables differ:\n%s", i, firstDifference(dump, want.String()))
				}
				// The dump does not print replica sets; compare them entry
				// by entry.
				fp.mu.Lock()
				for _, each := range []func(func(*core.Entry) bool){
					sa.Tables().Caching().Each, sa.Tables().Multiple().Each, sa.Tables().Single().Each,
				} {
					each(func(e *core.Entry) bool {
						if _, got, _ := fp.adc.Tables().ForwardSet(e.Object); !slices.Equal(got, e.Replicas()) {
							t.Errorf("proxy %d %v: farm replica set %v, sim %v", i, e.Object, got, e.Replicas())
						}
						return true
					})
				}
				for side, agent := range map[string]*protocol.Agent{"sim": sa, "farm": fp.adc} {
					if err := agent.CheckInvariants(); err != nil {
						t.Errorf("proxy %d %s tables: %v", i, side, err)
					}
				}
				fp.mu.Unlock()

				// The payload store is exactly the caching table.
				if err := fp.CheckInvariants(); err != nil {
					t.Error(err)
				}
				total.Add(sp.Stats())
			}

			// Guard against a vacuous pass: the stream must have exercised
			// what the comparison is meant to hold.
			if total.LocalHits == 0 || total.CacheEvictions == 0 || total.LoopsDetected == 0 {
				t.Errorf("stream too tame: %+v", total)
			}
			if rep.Enabled && (total.ReplicaPushes == 0 || total.ReplicaHits == 0 || total.ReplicaDrops == 0) {
				t.Errorf("replication never engaged: %+v", total)
			}
			if !rep.Enabled && total.ReplicaPushes+total.ReplicaHits+total.ReplicaDrops != 0 {
				t.Errorf("stock run grew replica counters: %+v", total)
			}
		})
	}
}

// firstDifference renders the first line where two dumps disagree.
func firstDifference(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\nfarm %q\nsim  %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("farm dump has %d lines, sim dump %d", len(g), len(w))
}
