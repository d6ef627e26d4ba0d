package promtext

import (
	"strings"
	"testing"
)

// FuzzPromtextParse feeds Parse the bytes adctop and adcload -lint-metrics
// scrape off a socket. The committed corpus holds a farm proxy's /metrics
// page, cut to one of its five stage histograms so the fuzzer's input
// minimization stays quick; the malformed documents seed the error paths.
// Whatever arrives,
// Parse and Lint must not panic, and a document Lint accepts Parse accepts.
func FuzzPromtextParse(f *testing.F) {
	for _, doc := range malformed {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		_, perr := Parse(strings.NewReader(doc))
		if Lint(strings.NewReader(doc)) == nil && perr != nil {
			t.Fatalf("Lint accepted what Parse refused (%v): %q", perr, doc)
		}
	})
}
