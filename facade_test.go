package adc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/workload"
)

// TestFacadeKeepsEveryField pins the public types the facade aliases from
// the internal packages. Each must be the internal type itself, and its
// fields must include every field, with its type, that the facade's own
// definition had before it became an alias. Fields the internal type adds
// are listed; anything else new, and any removal, fails.
func TestFacadeKeepsEveryField(t *testing.T) {
	types := map[string]reflect.Type{
		"int": reflect.TypeFor[int](), "int64": reflect.TypeFor[int64](),
		"uint64": reflect.TypeFor[uint64](), "float64": reflect.TypeFor[float64](),
		"bool": reflect.TypeFor[bool](),
	}
	for _, tc := range []struct {
		name             string
		public, internal reflect.Type
		// fields is the facade's own struct body before the alias, one
		// "Names... type" group per semicolon.
		fields string
		added  []string
	}{
		{"ProxyStats", reflect.TypeFor[ProxyStats](), reflect.TypeFor[metrics.ProxyStats](),
			"Requests LocalHits ForwardLearned ForwardRandom ForwardOrigin LoopsDetected RepliesSeen " +
				"CacheInsertions CacheEvictions ExpiredPending StaleInvalidated UnexpectedReplies Shed " +
				"CoalescedMisses ReplicaPushes ReplicaDrops ReplicaHits RetriedFetches FailoverOrigin " +
				"PeerDownRefusals HedgedFetches HedgeWins uint64", nil},
		{"Point", reflect.TypeFor[Point](), reflect.TypeFor[metrics.Point](),
			"Requests uint64; HitRate CumHitRate Hops CumHops float64", nil},
		{"Latency", reflect.TypeFor[Latency](), reflect.TypeFor[sim.LatencyModel](),
			"ClientProxy ProxyProxy ProxyOrigin Service int64; QueueService bool", nil},
	} {
		if tc.public != tc.internal {
			t.Errorf("%s is %v, not an alias of %v", tc.name, tc.public, tc.internal)
		}
		want := map[string]reflect.Type{}
		for _, group := range strings.Split(tc.fields, ";") {
			words := strings.Fields(group)
			typ, ok := types[words[len(words)-1]]
			if !ok {
				t.Fatalf("%s: unknown type in %q", tc.name, group)
			}
			for _, f := range words[:len(words)-1] {
				want[f] = typ
			}
		}
		for name, typ := range want {
			f, ok := tc.public.FieldByName(name)
			if !ok {
				t.Errorf("%s lost field %s", tc.name, name)
			} else if f.Type != typ {
				t.Errorf("%s.%s is %v, was %v", tc.name, name, f.Type, typ)
			}
		}
		for i := range tc.public.NumField() {
			if f := tc.public.Field(i); want[f.Name] == nil && !slices.Contains(tc.added, f.Name) {
				t.Errorf("%s gained unlisted field %s", tc.name, f.Name)
			}
		}
	}
}

// TestPublicNamesMatchTheParsers: every public Algorithm, Runtime,
// EntryPolicy and TableBackend constant is accepted by its one internal
// parser and prints back as itself, and every canonical name a parser lists
// when it rejects a name has a public constant.
func TestPublicNamesMatchTheParsers(t *testing.T) {
	wantList := regexp.MustCompile(`\(want (.+)\)$`)
	for _, tc := range []struct {
		kind   string
		parse  func(string) (fmt.Stringer, error)
		public []string
	}{
		{"algorithm", func(s string) (fmt.Stringer, error) { return cluster.ParseAlgorithm(s) },
			[]string{string(ADC), string(CARP), string(CHash), string(Hierarchical), string(Coordinator)}},
		{"runtime", func(s string) (fmt.Stringer, error) { return cluster.ParseRuntime(s) },
			[]string{string(RuntimeSequential), string(RuntimeVirtualTime)}},
		{"entry policy", func(s string) (fmt.Stringer, error) { return sim.ParseEntryPolicy(s) },
			[]string{string(EntryRandom), string(EntryRoundRobin), string(EntryFixed)}},
		{"backend", func(s string) (fmt.Stringer, error) { return core.ParseBackend(s) },
			[]string{string(BackendBTree), string(BackendList)}},
	} {
		for _, name := range tc.public {
			got, err := tc.parse(name)
			if err != nil {
				t.Errorf("%s %q: %v", tc.kind, name, err)
			} else if got.String() != name {
				t.Errorf("%s %q parses to %v", tc.kind, name, got)
			}
		}
		_, err := tc.parse("no-such-name")
		if err == nil {
			t.Fatalf("%s: an unknown name parsed", tc.kind)
		}
		m := wantList.FindStringSubmatch(err.Error())
		if m == nil {
			t.Fatalf("%s: %q does not list the accepted names", tc.kind, err)
		}
		listed := strings.Split(strings.Replace(m[1], " or ", ", ", 1), ", ")
		for _, name := range listed {
			if !slices.Contains(tc.public, name) {
				t.Errorf("%s %q is accepted but has no public constant", tc.kind, name)
			}
		}
		if len(listed) != len(tc.public) {
			t.Errorf("%s: parser lists %v, public constants are %v", tc.kind, listed, tc.public)
		}
	}
}

// TestSourceAdapterLendsSliceSource: handed to the cluster, a *SliceSource
// lends its unread requests in place — the same values, at the same
// address, the source left exhausted — and any other Source lends nothing
// and is left untouched.
func TestSourceAdapterLendsSliceSource(t *testing.T) {
	objs := []uint64{5, 7, 11, 13, 1 << 63}
	src := NewSliceSource(objs)
	src.Next()
	var a workload.SliceBacked = sourceAdapter{src}
	rest, ok := a.Rest()
	if !ok || len(rest) != len(objs)-1 {
		t.Fatalf("Rest = %v, %v; want the %d unread requests", rest, ok, len(objs)-1)
	}
	for i, obj := range rest {
		if uint64(obj) != objs[i+1] {
			t.Errorf("rest[%d] = %d, want %d", i, obj, objs[i+1])
		}
	}
	if &rest[0] != (*ids.ObjectID)(&objs[1]) {
		t.Error("Rest copied the slice")
	}
	if _, more := src.Next(); more {
		t.Error("the lent source still yields requests")
	}
	if rest, ok := (sourceAdapter{src}).Rest(); !ok || len(rest) != 0 {
		t.Errorf("exhausted source: Rest = %v, %v; want empty and ok", rest, ok)
	}

	gen, err := NewWorkload(WorkloadConfig{Requests: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rest, ok := (sourceAdapter{gen}).Rest(); ok || rest != nil {
		t.Errorf("generated source: Rest = %v, %v; want nothing", rest, ok)
	}
	if n := len(drainPublic(gen)); n != 10 {
		t.Errorf("generated source yields %d requests after Rest, want all 10", n)
	}
}

// TestTraceWritersThroughTheFacade: a traced run exports as one span dump
// holding exactly the spans obs.EventSpans makes of its events.
func TestTraceWritersThroughTheFacade(t *testing.T) {
	cfg := smallConfig()
	cfg.Tracer = NewTracer()
	src := NewSliceSource([]uint64{1, 2, 1, 3, 1, 2})
	if _, err := Run(cfg, src); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, cfg.Tracer); err != nil {
		t.Fatal(err)
	}
	var dumps []obs.SpanDump
	if err := json.Unmarshal(buf.Bytes(), &dumps); err != nil {
		t.Fatal(err)
	}
	want := obs.EventSpans(cfg.Tracer.Events())
	if len(want) == 0 || len(dumps) != 1 || !reflect.DeepEqual(dumps[0].Spans, want) {
		t.Errorf("WriteTrace wrote %d dumps; want one holding EventSpans' %d spans:\n%.300s", len(dumps), len(want), buf.String())
	}
}

func drainPublic(src Source) []uint64 {
	var out []uint64
	for {
		obj, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, obj)
	}
}
