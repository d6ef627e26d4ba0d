package obs

import (
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	for k := Kind(0); k < numKinds; k++ {
		if tr.Enabled(k) {
			t.Fatalf("nil tracer Enabled(%v) = true", k)
		}
	}
	// None of these may panic.
	tr.Emit(Ev(KindHit, 0))
	if tr.Len() != 0 {
		t.Errorf("nil tracer Len() = %d", tr.Len())
	}
	if tr.Events() != nil {
		t.Errorf("nil tracer Events() = %v", tr.Events())
	}
}

func TestTracerKindMask(t *testing.T) {
	tr := New(KindHit, KindBackward)
	for k := Kind(0); k < numKinds; k++ {
		want := k == KindHit || k == KindBackward
		if tr.Enabled(k) != want {
			t.Errorf("Enabled(%v) = %v, want %v", k, tr.Enabled(k), want)
		}
	}
	tr.Emit(Ev(KindHit, 0))
	tr.Emit(Ev(KindForward, 0)) // masked out
	tr.Emit(Ev(KindBackward, 1))
	ev := tr.Events()
	if len(ev) != 2 || ev[0].Kind != KindHit || ev[1].Kind != KindBackward {
		t.Fatalf("masked tracer recorded %v", ev)
	}
	// A masked-out event takes no sequence number.
	if ev[0].Seq != 1 || ev[1].Seq != 2 {
		t.Errorf("seq = %d,%d, want 1,2", ev[0].Seq, ev[1].Seq)
	}

	all := New()
	for k := Kind(0); k < numKinds; k++ {
		if !all.Enabled(k) {
			t.Errorf("default tracer Enabled(%v) = false", k)
		}
	}
}

func TestEvClearsNodeReferences(t *testing.T) {
	e := Ev(KindForward, 2)
	if e.To != ids.None || e.Loc != ids.None {
		t.Errorf("Ev left To=%v Loc=%v, want None (NodeID zero value is Proxy[0])", e.To, e.Loc)
	}
}

func TestEventTime(t *testing.T) {
	if got := (Event{Seq: 7}).Time(); got != 7 {
		t.Errorf("clockless Time() = %d, want Seq 7", got)
	}
	if got := (Event{Seq: 7, At: 1234}).Time(); got != 1234 {
		t.Errorf("clocked Time() = %d, want At 1234", got)
	}
}

// TestKindStringRoundTrip: every kind has a name of its own, so an event
// span's Stage (EventSpans) names its kind.
func TestKindStringRoundTrip(t *testing.T) {
	byName := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if strings.HasPrefix(s, "Kind(") {
			t.Fatalf("kind %d has no name", int(k))
		}
		if prev, dup := byName[s]; dup {
			t.Errorf("kinds %d and %d are both named %q", int(prev), int(k), s)
		}
		byName[s] = k
	}
	if s := Kind(200).String(); s != "Kind(200)" {
		t.Errorf("out-of-range kind String = %q", s)
	}
}

func TestOutcomeRoundTrip(t *testing.T) {
	cases := []struct {
		from, to     int
		ce, me, drop bool
	}{
		{0, 1, false, false, false},
		{3, 1, true, false, false},
		{2, 2, false, true, false},
		{1, 0, false, false, true},
		{3, 3, true, true, true},
	}
	for _, c := range cases {
		arg := EncodeOutcome(c.from, c.to, c.ce, c.me, c.drop)
		from, to, ce, me, drop := DecodeOutcome(arg)
		if from != c.from || to != c.to || ce != c.ce || me != c.me || drop != c.drop {
			t.Errorf("round trip %+v → arg %#x → (%d,%d,%v,%v,%v)", c, arg, from, to, ce, me, drop)
		}
	}
	if s := OutcomeString(EncodeOutcome(3, 1, true, false, false)); s != "single→caching (cache-evict)" {
		t.Errorf("OutcomeString = %q", s)
	}
	if s := OutcomeString(EncodeOutcome(0, 2, false, false, false)); s != "none→multiple" {
		t.Errorf("OutcomeString = %q", s)
	}
}

func TestArgStrings(t *testing.T) {
	if got := ForwardReasonString(ReasonSelfOrigin); got != "self-origin" {
		t.Errorf("ForwardReasonString = %q", got)
	}
	if got := ForwardReasonString(99); got != "reason(99)" {
		t.Errorf("ForwardReasonString fallback = %q", got)
	}
	if got := DropCauseString(DropLoss); got != "loss" {
		t.Errorf("DropCauseString = %q", got)
	}
	if got := DropCauseString(99); got != "cause(99)" {
		t.Errorf("DropCauseString fallback = %q", got)
	}
}
