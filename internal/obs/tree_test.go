package obs

import (
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

// emit appends events through a tracer so Seq assignment matches production.
func emit(tr *Tracer, evs ...Event) {
	for _, e := range evs {
		tr.Emit(e)
	}
}

func fwd(node, to ids.NodeID, req ids.RequestID, obj ids.ObjectID, reason int64, hops int32) Event {
	e := Ev(KindForward, node)
	e.Req, e.Obj, e.To, e.Arg, e.Hops = req, obj, to, reason, hops
	return e
}

func TestBuildTreesSingleDeliveredRequest(t *testing.T) {
	client := ids.Client(0)
	req := ids.NewRequestID(0, 1)
	obj := ids.ObjectID(42)
	tr := New()

	inject := Ev(KindInject, client)
	inject.Req, inject.Obj, inject.To = req, obj, 0
	hit := Ev(KindHit, 1)
	hit.Req, hit.Obj, hit.Loc = req, obj, 1
	back := Ev(KindBackward, 1)
	back.Req, back.Obj, back.To, back.Loc = req, obj, 0, 1
	deliver := Ev(KindDeliver, client)
	deliver.Req, deliver.Obj, deliver.Loc = req, obj, 1
	emit(tr, inject, fwd(0, 1, req, obj, ReasonLearned, 1), hit, back, deliver)

	trees := BuildSpanTrees(EventSpans(tr.Events()))
	if len(trees) != 1 {
		t.Fatalf("%d trees, want 1", len(trees))
	}
	tree := trees[0]
	if tree.State() != TreeComplete {
		t.Errorf("tree is %v, want complete", tree.State())
	}
	root := tree.Root
	if root == nil || root.Stage != SpanAttempt || root.ID != uint64(req) || tree.Trace != uint64(req) {
		t.Fatalf("root = %+v, want the attempt span of %v", root, req)
	}
	if root.Obj != uint64(obj) || ids.NodeID(root.Node) != client {
		t.Errorf("attempt identity = obj %v node %v, want %v/%v", root.Obj, ids.NodeID(root.Node), obj, client)
	}
	if got := len(root.Children); got != 5 {
		t.Fatalf("attempt holds %d steps, want 5", got)
	}
	if c := root.Children[1]; c.Stage != "forward" || ids.NodeID(c.Node) != 0 || c.Detail != "→ Proxy[1]  (learned, hops=1)" {
		t.Errorf("forward step = %+v", c.Span)
	}
}

// TestBuildTreesRetransmissionIsOneTree is the recovery-protocol contract:
// a dropped-then-retransmitted request must reconstruct as ONE tree, the
// retry's attempt parented on the attempt its Prev names — never as two
// orphan fragments.
func TestBuildTreesRetransmissionIsOneTree(t *testing.T) {
	client := ids.Client(0)
	first := ids.NewRequestID(0, 1)
	second := ids.NewRequestID(0, 2)
	obj := ids.ObjectID(7)
	tr := New()

	inject := Ev(KindInject, client)
	inject.Req, inject.Obj, inject.To = first, obj, 0
	drop := Ev(KindDrop, 0)
	drop.Req, drop.Obj, drop.To, drop.Arg = first, obj, 1, DropLoss
	timeout := Ev(KindTimeout, client)
	timeout.Req, timeout.Obj = first, obj
	retry := Ev(KindRetry, client)
	retry.Req, retry.Obj, retry.To, retry.Prev, retry.Arg = second, obj, 0, first, 1
	origin := Ev(KindOriginResolve, ids.Origin)
	origin.Req, origin.Obj = second, obj
	deliver := Ev(KindDeliver, client)
	deliver.Req, deliver.Obj, deliver.Loc, deliver.Arg = second, obj, ids.Origin, 1
	emit(tr, inject, fwd(0, 1, first, obj, ReasonRandom, 1), drop, timeout,
		retry, fwd(0, 1, second, obj, ReasonRandom, 1), origin, deliver)

	trees := BuildSpanTrees(EventSpans(tr.Events()))
	if len(trees) != 1 {
		t.Fatalf("%d trees, want 1 (retransmission split into orphans?)", len(trees))
	}
	tree := trees[0]
	// A retried request is truncated: structurally whole, one attempt failed.
	if tree.State() != TreeTruncated {
		t.Errorf("tree is %v, want truncated", tree.State())
	}
	a1 := tree.Root
	if a1 == nil || a1.ID != uint64(first) || a1.Err != "timed out" {
		t.Fatalf("attempt 1 = %+v, want %v timed out", a1, first)
	}
	var a2 *SpanNode
	for _, c := range a1.Children {
		if c.Stage == SpanAttempt {
			a2 = c
		}
	}
	if a2 == nil || a2.ID != uint64(second) || a2.Err != "" {
		t.Fatalf("attempt 2 = %+v, want %v delivered under attempt 1", a2, second)
	}
	if got := len(a2.Children); got != 4 {
		t.Errorf("attempt 2 holds %d steps, want 4 (retry, forward, origin, deliver)", got)
	}

	var sb strings.Builder
	FormatSpanTree(&sb, tree)
	out := sb.String()
	for _, want := range []string{"truncated", "attempt", "ERR timed out", "retry #1", "Client[0]", "Origin", "dropped (loss)"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatSpanTree output missing %q:\n%s", want, out)
		}
	}
}

func TestBuildTreesOrphans(t *testing.T) {
	obj := ids.ObjectID(3)
	tr := New()

	// A retry whose predecessor never appeared: orphan tree.
	ghostPrev := ids.NewRequestID(1, 50)
	retryReq := ids.NewRequestID(1, 51)
	retry := Ev(KindRetry, ids.Client(1))
	retry.Req, retry.Obj, retry.To, retry.Prev, retry.Arg = retryReq, obj, 0, ghostPrev, 1

	// A forward with no inject (trace started mid-flight): orphan tree.
	midReq := ids.NewRequestID(2, 9)
	emit(tr, retry, fwd(0, 1, midReq, obj, ReasonRandom, 1))

	trees := BuildSpanTrees(EventSpans(tr.Events()))
	if len(trees) != 2 {
		t.Fatalf("%d trees, want 2", len(trees))
	}
	for i, tree := range trees {
		if tree.State() != TreeOrphaned {
			t.Errorf("tree %d is %v, want orphaned", i, tree.State())
		}
	}
	// Each fragment is named after the attempt it is missing.
	if trees[0].Trace != uint64(ghostPrev) || trees[1].Trace != uint64(midReq) {
		t.Errorf("orphan traces = %v, %v, want %v, %v",
			ids.RequestID(trees[0].Trace), ids.RequestID(trees[1].Trace), ghostPrev, midReq)
	}
}

func TestBuildTreesIgnoresRequestlessEvents(t *testing.T) {
	inv := Ev(KindInvalidate, 2)
	inv.Obj = 5
	inv.Seq = 1
	if got := BuildSpanTrees(EventSpans([]Event{inv})); len(got) != 0 {
		t.Fatalf("request-less event produced %d trees", len(got))
	}
}
