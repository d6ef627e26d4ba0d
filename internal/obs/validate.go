package obs

import (
	"fmt"

	"github.com/adc-sim/adc/internal/ids"
)

// Validate checks a trace against the event schema: sequence numbers must
// be strictly increasing, kinds known, and each kind must carry the fields
// its semantics require (forwards a destination, retries a predecessor,
// hits a location, …). It returns the first violation. A trace that
// passes meets EventSpans' precondition.
func Validate(events []Event) error {
	var lastSeq uint64
	for i, e := range events {
		where := func(msg string, args ...any) error {
			return fmt.Errorf("event %d (seq %d, %s): %s", i, e.Seq, e.Kind, fmt.Sprintf(msg, args...))
		}
		if int(e.Kind) >= int(numKinds) {
			return fmt.Errorf("event %d: unknown kind %d", i, int(e.Kind))
		}
		if e.Seq <= lastSeq {
			return where("sequence not strictly increasing (prev %d)", lastSeq)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case KindInject, KindRetry:
			if e.Req == 0 {
				return where("missing request id")
			}
			if !e.Node.IsClient() {
				return where("emitter %v is not a client", e.Node)
			}
			if e.Kind == KindRetry && e.Prev == 0 {
				return where("retry without superseded attempt id")
			}
		case KindForward:
			if e.To == ids.None {
				return where("forward without destination")
			}
			if e.Req == 0 {
				return where("missing request id")
			}
		case KindHit:
			if e.Loc == ids.None {
				return where("hit without location")
			}
		case KindBackward:
			if e.To == ids.None {
				return where("backward without next destination")
			}
		case KindDeliver:
			if !e.Node.IsClient() {
				return where("delivery at %v, not a client", e.Node)
			}
		case KindDrop:
			if e.To == ids.None {
				return where("drop without destination")
			}
		case KindTimeout, KindAbandon, KindStaleReply:
			if e.Req == 0 {
				return where("missing request id")
			}
		case KindExpire, KindInvalidate, KindOriginResolve:
			// Node-local housekeeping; no required references beyond Node.
		}
	}
	return nil
}
