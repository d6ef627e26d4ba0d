package sim

import (
	"reflect"
	"strings"
	"testing"
)

// TestFaultSpecGrammar is the one table for the one failure-schedule
// grammar: each spec either parses to exactly the plan given or fails with
// an error containing the text given.
func TestFaultSpecGrammar(t *testing.T) {
	crash := func(c ...Crash) *FaultPlan { return &FaultPlan{Crashes: c} }
	cases := []struct {
		spec string
		want *FaultPlan
		err  string
	}{
		{spec: "loss=0.01,jitter=2000,seed=7,link=1>2:0.05", want: &FaultPlan{
			Seed: 7, Loss: 0.01, Jitter: 2000, LinkLoss: []LinkLoss{{From: 1, To: 2, Rate: 0.05}},
		}},
		{spec: "kill=p3@5s,restart=p3@15s", want: crash(Crash{Node: 3, At: 5_000_000, RestartAt: 15_000_000})},
		// Ticks and durations name the same instants; p3 and 3 the same proxy.
		{spec: "kill=3@5000000, restart=p3@15000ms", want: crash(Crash{Node: 3, At: 5_000_000, RestartAt: 15_000_000})},
		{spec: "jitter=2ms,link=p1>p2:0.05", want: &FaultPlan{Jitter: 2000, LinkLoss: []LinkLoss{{From: 1, To: 2, Rate: 0.05}}}},
		{spec: "kill=0@100,restart=0@200!", want: crash(Crash{Node: 0, At: 100, RestartAt: 200, LoseTables: true})},
		// A restart takes the latest earlier unpaired kill of its proxy,
		// wherever either clause sits in the spec.
		{spec: "restart=1@300,kill=1@100,kill=2@150,kill=1@200,restart=1@400", want: crash(
			Crash{Node: 1, At: 100, RestartAt: 400},
			Crash{Node: 2, At: 150},
			Crash{Node: 1, At: 200, RestartAt: 300},
		)},
		{spec: "kill=1@1s", want: crash(Crash{Node: 1, At: 1_000_000})},
		{spec: "partition=p1:p2@8s+4s", want: &FaultPlan{Partitions: []Partition{{A: 1, B: 2, At: 8_000_000, HealAt: 12_000_000}}}},
		{spec: "partition=1:2@8s", want: &FaultPlan{Partitions: []Partition{{A: 1, B: 2, At: 8_000_000}}}},
		{spec: "kill=2147483647@1", want: crash(Crash{Node: 2147483647, At: 1})},

		{spec: "", err: "empty fault spec"},
		{spec: "kill=2147483648@1", err: "bad proxy"},
		{spec: "link=4294967297>1:0.5", err: "bad proxy"},
		{spec: "kill=-1@1", err: "bad proxy"},
		{spec: "kill=px@5s", err: "bad proxy"},
		{spec: "restart=1@5s", err: "no earlier kill"},
		{spec: "kill=1@5s,restart=1@5s", err: "no earlier kill"},
		{spec: "kill=1@5s,restart=1@7s,restart=1@9s", err: "no earlier kill"},
		{spec: "crash=0@2000000-4000000!", err: "unknown key \"crash\" (want loss, jitter, seed, link, kill, restart or partition)"},
		{spec: "kill=p1", err: "want PROXY@TIME"},
		{spec: "kill=p1@-5s", err: "negative time"},
		{spec: "kill=p1@5parsecs", err: "bad time"},
		{spec: "partition=p1@5s", err: "want A:B@AT[+SPAN]"},
		{spec: "link=1:2", err: "want FROM>TO:RATE"},
		{spec: "loss", err: "not key=value"},
	}
	for _, tc := range cases {
		got, err := ParseFaultSpec(tc.spec)
		switch {
		case tc.err != "":
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("ParseFaultSpec(%q) = %+v, %v; want an error containing %q", tc.spec, got, err, tc.err)
			}
		case err != nil:
			t.Errorf("ParseFaultSpec(%q): %v", tc.spec, err)
		case !reflect.DeepEqual(got, tc.want):
			t.Errorf("ParseFaultSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

// TestRecoverySpecGrammar: the recovery spec shares the clause splitter and
// the time reader.
func TestRecoverySpecGrammar(t *testing.T) {
	got, err := ParseRecoverySpec("timeout=400ms,retries=8,backoff=2,ttl=1000000")
	want := Recovery{Enabled: true, Timeout: 400_000, MaxRetries: 8, Backoff: 2, PendingTTL: 1_000_000}
	if err != nil || got != want {
		t.Errorf("ParseRecoverySpec = %+v, %v; want %+v", got, err, want)
	}
	if got, err := ParseRecoverySpec(""); err != nil || got != (Recovery{Enabled: true}) {
		t.Errorf(`ParseRecoverySpec("") = %+v, %v; want enabled with defaults`, got, err)
	}
	for _, bad := range []string{"timeout", "timeout=-1s", "depth=3", "retries=x"} {
		if _, err := ParseRecoverySpec(bad); err == nil {
			t.Errorf("ParseRecoverySpec(%q) succeeded, want an error", bad)
		}
	}
}
