package obs

import (
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

func TestValidate(t *testing.T) {
	client := ids.Client(0)
	req := ids.NewRequestID(0, 1)
	good := []Event{
		{Seq: 1, Kind: KindInject, Node: client, Req: req, Obj: 1, To: 0, Loc: ids.None},
		{Seq: 2, Kind: KindForward, Node: 0, Req: req, Obj: 1, To: 1, Loc: ids.None, Hops: 1},
		{Seq: 3, Kind: KindHit, Node: 1, Req: req, Obj: 1, To: ids.None, Loc: 1},
		{Seq: 4, Kind: KindBackward, Node: 1, Req: req, Obj: 1, To: 0, Loc: 1},
		{Seq: 5, Kind: KindDeliver, Node: client, Req: req, Obj: 1, To: ids.None, Loc: 1},
	}
	if err := Validate(good); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}

	bad := []struct {
		name    string
		mutate  func([]Event)
		wantErr string
	}{
		{"non-increasing seq", func(ev []Event) { ev[1].Seq = 1 }, "not strictly increasing"},
		{"forward without dest", func(ev []Event) { ev[1].To = ids.None }, "forward without destination"},
		{"hit without location", func(ev []Event) { ev[2].Loc = ids.None }, "hit without location"},
		{"backward without dest", func(ev []Event) { ev[3].To = ids.None }, "backward without next destination"},
		{"inject from non-client", func(ev []Event) { ev[0].Node = 2 }, "not a client"},
		{"deliver at non-client", func(ev []Event) { ev[4].Node = 2 }, "not a client"},
		{"unknown kind", func(ev []Event) { ev[0].Kind = 200 }, "unknown kind"},
	}
	for _, c := range bad {
		ev := make([]Event, len(good))
		copy(ev, good)
		c.mutate(ev)
		err := Validate(ev)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.wantErr)
		}
	}

	retryNoPrev := []Event{{Seq: 1, Kind: KindRetry, Node: client, Req: req, To: 0, Loc: ids.None}}
	if err := Validate(retryNoPrev); err == nil || !strings.Contains(err.Error(), "without superseded") {
		t.Errorf("retry without prev: err = %v", err)
	}
	dropNoDest := []Event{{Seq: 1, Kind: KindDrop, Node: 0, Req: req, To: ids.None, Loc: ids.None}}
	if err := Validate(dropNoDest); err == nil || !strings.Contains(err.Error(), "drop without destination") {
		t.Errorf("drop without dest: err = %v", err)
	}
}
