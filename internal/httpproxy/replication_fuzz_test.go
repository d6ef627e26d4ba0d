package httpproxy

import (
	"net/http"
	"slices"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

// FuzzReplicaHeaders feeds arbitrary bytes to every X-Adc-* value the
// replication codec reads off a socket. Whatever arrives, decoding must not
// panic and must hand the protocol core only what it may rely on: proxy IDs
// (or None), a strictly ascending replica set, a non-negative hint, and
// nothing at all without the authoritative marker. On everything valid —
// which is what decoding produces — encode and decode are inverses.
func FuzzReplicaHeaders(f *testing.F) {
	f.Add("Proxy[1]", "1", "Proxy[0],Proxy[2]", "17")
	f.Add("", "1", "", "")
	f.Add("Origin", "0", "Proxy[3]", "5")
	f.Add("Proxy[-1]", "1", "Proxy[2],Proxy[2],Proxy[0],,Client[0],Proxy[x]", "-9")
	f.Add("Proxy[99999999999999999999]", "1", "Proxy[2147483648],Proxy[2147483647]", "9223372036854775808")
	f.Add("Proxy[+7]", "yes", "proxy[1]", "1e3")
	f.Fuzz(func(t *testing.T, sender, replicate, replicas, avg string) {
		if n := parseNodeID(sender); n != ids.None {
			if !n.IsProxy() {
				t.Fatalf("parseNodeID(%q) = %v, neither a proxy nor None", sender, n)
			}
			if back := parseNodeID(n.String()); back != n {
				t.Fatalf("parseNodeID(%q) = %v, which re-parses as %v", sender, n, back)
			}
		}

		h := http.Header{}
		h.Set(HeaderReplicate, replicate)
		h.Set(HeaderReplicas, replicas)
		h.Set(HeaderAvgHint, avg)
		a := decodeAdvert(h)
		if replicate != "1" {
			if a.Replicate || a.Replicas != nil || a.AvgHint != 0 {
				t.Fatalf("advert %+v decoded without the authoritative marker", a)
			}
			return
		}
		if !a.Replicate || a.AvgHint < 0 {
			t.Fatalf("decoded %+v from an authoritative reply", a)
		}
		for i, n := range a.Replicas {
			if !n.IsProxy() || (i > 0 && a.Replicas[i-1] >= n) {
				t.Fatalf("replica set %v from %q is not strictly ascending proxy IDs", a.Replicas, replicas)
			}
		}

		again := http.Header{}
		encodeAdvert(again, a)
		b := decodeAdvert(again)
		if b.Replicate != a.Replicate || b.AvgHint != a.AvgHint || !slices.Equal(b.Replicas, a.Replicas) {
			t.Fatalf("round trip changed the advert: %+v → %v → %+v", a, again, b)
		}
		if got := parseNodeList(formatNodeList(a.Replicas)); !slices.Equal(got, a.Replicas) {
			t.Fatalf("node list round trip: %v → %v", a.Replicas, got)
		}
	})
}
