package httpproxy

import (
	"net/http"
	"slices"
	"strconv"
	"strings"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/protocol"
)

// The header codec of hot-object replication over HTTP. The controller
// itself lives in the protocol core (internal/protocol, with the rationale);
// this file only maps its advertisement onto the wire:
//
//   - The simulator piggybacks pushes and advertisements on backwarding
//     replies; here they ride the HTTP response headers, which retrace the
//     chain of waiting handlers just like the backwarding path.
//   - Advert.Replicas/Replicate/AvgHint become X-Adc-Replicas,
//     X-Adc-Replicate and X-Adc-Avg-Hint.
//   - The reply path's "first backwarding hop" (the recent requester a
//     push targets) is the downstream proxy, identified by X-Adc-Sender
//     on the upstream fetch.

// Replication protocol headers (in addition to the stock ADC set).
const (
	// HeaderSender carries the forwarding proxy's ID on upstream
	// fetches, so a holder knows which recent requester to push to.
	HeaderSender = "X-Adc-Sender"
	// HeaderReplicas advertises the resolver's replica set on replies as
	// a comma-separated list of proxy IDs (may be empty).
	HeaderReplicas = "X-Adc-Replicas"
	// HeaderReplicate marks a reply whose replica advertisement is
	// authoritative (a holder spoke); set to "1".
	HeaderReplicate = "X-Adc-Replicate"
	// HeaderAvgHint carries the holder's moving-average inter-request
	// gap, the adoption seed for pushed replicas.
	HeaderAvgHint = "X-Adc-Avg-Hint"
)

// encodeAdvert writes a replica advertisement's headers; the zero Advert —
// all stock ADC produces — writes nothing.
func encodeAdvert(h http.Header, a protocol.Advert) {
	if !a.Replicate {
		return
	}
	h.Set(HeaderReplicate, "1")
	h.Set(HeaderReplicas, formatNodeList(a.Replicas))
	if a.AvgHint > 0 {
		h.Set(HeaderAvgHint, strconv.FormatInt(a.AvgHint, 10))
	}
}

// decodeAdvert reverses encodeAdvert. Bytes from a socket are not trusted:
// without the authoritative marker nothing is read, unparseable replica
// segments are dropped, the set comes out sorted and duplicate-free (what
// the mapping tables require of an advertised set), and a malformed or
// negative hint reads as absent.
func decodeAdvert(h http.Header) protocol.Advert {
	if h.Get(HeaderReplicate) != "1" {
		return protocol.Advert{}
	}
	a := protocol.Advert{Replicate: true, Replicas: parseNodeList(h.Get(HeaderReplicas))}
	if avg, err := strconv.ParseInt(h.Get(HeaderAvgHint), 10, 64); err == nil && avg > 0 {
		a.AvgHint = avg
	}
	return a
}

// formatNodeList renders a sorted node set as "Proxy[0],Proxy[2]".
func formatNodeList(nodes []ids.NodeID) string {
	var b strings.Builder
	for i, n := range nodes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n.String())
	}
	return b.String()
}

// parseNodeList reverses formatNodeList into a sorted, duplicate-free set,
// dropping unparseable segments.
func parseNodeList(s string) []ids.NodeID {
	if s == "" {
		return nil
	}
	var out []ids.NodeID
	for _, part := range strings.Split(s, ",") {
		if n := parseNodeID(part); n != ids.None {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// parseNodeID reverses ids.NodeID.String for proxy IDs; anything else
// (empty, "Origin", out of range) maps to None.
func parseNodeID(s string) ids.NodeID {
	rest, ok := strings.CutPrefix(s, "Proxy[")
	if !ok {
		return ids.None
	}
	rest, ok = strings.CutSuffix(rest, "]")
	if !ok {
		return ids.None
	}
	v, err := strconv.ParseInt(rest, 10, 32)
	if err != nil || v < 0 {
		return ids.None
	}
	return ids.NodeID(v)
}
