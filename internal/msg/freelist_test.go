package msg

import (
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

func TestFreelistRequestRoundTrip(t *testing.T) {
	var f Freelist
	r := f.GetRequest()
	if r.Path == nil || len(r.Path) != 0 {
		t.Fatalf("fresh request Path = %v, want empty non-nil", r.Path)
	}
	r.To = 3
	r.ID = ids.NewRequestID(0, 7)
	r.Hops = 5
	r.Path = append(r.Path, 1, 2)
	grown := &r.Path[0]

	f.PutRequest(r)
	r2 := f.GetRequest()
	if r2 != r {
		t.Error("freelist did not reuse the recycled request")
	}
	if r2.To != 0 || r2.ID != 0 || r2.Hops != 0 || len(r2.Path) != 0 {
		t.Errorf("recycled request not zeroed: %+v", r2)
	}
	if cap(r2.Path) < 2 || &r2.Path[:1][0] != grown {
		t.Error("recycled request did not reuse the path backing array")
	}
}

func TestFreelistReplyRoundTrip(t *testing.T) {
	var f Freelist
	rep := f.GetReply()
	rep.To = 9
	rep.Cached = true
	rep.Path = append(rep.Path, 4)
	f.PutReply(rep)

	rep2 := f.GetReply()
	if rep2 != rep {
		t.Error("freelist did not reuse the recycled reply")
	}
	if rep2.To != 0 || rep2.Cached || rep2.Path != nil {
		t.Errorf("recycled reply not zeroed: %+v", rep2)
	}
	// The path backing array moved to the path pool and comes back on the
	// next request.
	r := f.GetRequest()
	if cap(r.Path) == 0 {
		t.Error("reply path was not reclaimed into the path pool")
	}
}

func TestFreelistPathTransfer(t *testing.T) {
	// The Resolve flow: the request's path transfers to the reply, the
	// request is recycled with Path nilled, and recycling both must not
	// double-reclaim the same backing array.
	var f Freelist
	req := f.GetRequest()
	req.Path = append(req.Path, 1, 2, 3)

	rep := f.GetReply()
	rep.InitFrom(req)
	req.Path = nil // transferred
	f.PutRequest(req)

	if rep.PathLen != 3 || len(rep.Path) != 3 {
		t.Fatalf("reply path = %v (PathLen %d), want the request's 3 hops", rep.Path, rep.PathLen)
	}
	rep.Path = rep.Path[:0]
	f.PutReply(rep)

	// Exactly one backing array must be in the pool (from the reply); the
	// nilled request contributed none.
	if n := len(f.paths); n != 1 {
		t.Errorf("path pool holds %d arrays, want 1", n)
	}
}
