package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"github.com/adc-sim/adc/internal/ids"
)

// MergeDumps aligns and merges per-proxy span dumps into one span list.
// Each proxy stamps spans with its own clock; a dump whose ScrapedUs is set
// is shifted by (ScrapedUs - NowUs), putting every span on the scraper's
// clock to within one scrape round-trip. Dumps without ScrapedUs pass
// through unshifted. The result is sorted by (aligned) start time.
//
// The dumps' spans are shifted in place, and a single dump's spans are
// sorted in place and returned, not copied: the dumps are the merge's to
// change.
func MergeDumps(dumps []SpanDump) []Span {
	n := 0
	for _, d := range dumps {
		if d.ScrapedUs != 0 {
			offset := d.ScrapedUs - d.NowUs
			for i := range d.Spans {
				d.Spans[i].Start += offset
				d.Spans[i].End += offset
			}
		}
		n += len(d.Spans)
	}
	var out []Span
	if len(dumps) == 1 {
		out = dumps[0].Spans
	} else {
		out = make([]Span, 0, n)
		for _, d := range dumps {
			out = append(out, d.Spans...)
		}
	}
	slices.SortStableFunc(out, func(a, b Span) int { return cmp.Compare(a.Start, b.Start) })
	return out
}

// SpanNode is one span with its children, sorted by start time. The span
// is the one in the slice BuildSpanTrees was given, not a copy.
type SpanNode struct {
	*Span
	Children []*SpanNode
}

// TreeState classifies a reconstructed span tree.
type TreeState uint8

const (
	// TreeComplete: the root is present, every parent link resolves, and
	// no span recorded an error.
	TreeComplete TreeState = iota
	// TreeTruncated: structurally sound (root present, links resolve) but
	// at least one span carries an error — the request explicitly saw a
	// failure, e.g. a fetch into a kill window. Truncated trees are the
	// expected shape under chaos; orphaned trees are reconstruction bugs.
	TreeTruncated
	// TreeOrphaned: the root is missing or some span's parent is unknown
	// (ring eviction, an unscraped proxy, or a propagation bug).
	TreeOrphaned
)

// String implements fmt.Stringer.
func (s TreeState) String() string {
	switch s {
	case TreeComplete:
		return "complete"
	case TreeTruncated:
		return "truncated"
	case TreeOrphaned:
		return "orphaned"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// SpanTree is one logical request reconstructed from merged spans.
type SpanTree struct {
	Trace uint64
	// Root is the entry proxy's server span, nil when it never surfaced.
	Root *SpanNode
	// Orphans are spans whose parent is missing from the trace (the root,
	// with Parent 0, is never an orphan).
	Orphans []*SpanNode
	// Spans counts every span attributed to the trace.
	Spans int
	// Errs counts spans that recorded an error.
	Errs int
}

// State classifies the tree (see TreeState).
func (t *SpanTree) State() TreeState {
	switch {
	case t.Root == nil || len(t.Orphans) > 0:
		return TreeOrphaned
	case t.Errs > 0:
		return TreeTruncated
	}
	return TreeComplete
}

// Start returns the tree's earliest span start (for ordering).
func (t *SpanTree) Start() int64 {
	if t.Root != nil {
		return t.Root.Start
	}
	var min int64
	for i, o := range t.Orphans {
		if i == 0 || o.Start < min {
			min = o.Start
		}
	}
	return min
}

// BuildSpanTrees groups spans by trace ID and links children to parents,
// returning trees ordered by start time. A span whose parent ID never
// surfaced is collected under Orphans; a trace with several Parent==0 spans
// keeps the earliest as root and treats the rest as orphans (two proxies
// both claiming to be the entry point is a propagation bug worth seeing).
// The trees' nodes point into spans, which must outlive them unchanged.
func BuildSpanTrees(spans []Span) []*SpanTree {
	// Group the spans by trace, the traces in order of first appearance
	// and each trace's spans in input order: count each trace's spans,
	// turn the counts into group ends, then fill the groups from the back.
	rank := make(map[uint64]int)
	var pos []int
	for i := range spans {
		r, ok := rank[spans[i].Trace]
		if !ok {
			r = len(pos)
			rank[spans[i].Trace] = r
			pos = append(pos, 0)
		}
		pos[r]++
	}
	for r := 1; r < len(pos); r++ {
		pos[r] += pos[r-1]
	}
	nodes := make([]SpanNode, len(spans))
	grouped := make([]*SpanNode, len(spans))
	for i := len(spans) - 1; i >= 0; i-- {
		r := rank[spans[i].Trace]
		pos[r]--
		nodes[i].Span = &spans[i]
		grouped[pos[r]] = &nodes[i]
	}
	pos = append(pos, len(spans)) // trace r's group is grouped[pos[r]:pos[r+1]]

	trees := make([]*SpanTree, 0, len(pos)-1)
	byID := make(map[uint64]*SpanNode)
	for r := 0; r+1 < len(pos); r++ {
		group := grouped[pos[r]:pos[r+1]]
		slices.SortStableFunc(group, func(a, b *SpanNode) int { return cmp.Compare(a.Start, b.Start) })
		// Duplicate IDs (a re-scraped ring, a dump merged twice) keep the
		// first occurrence; only it is linked and counted.
		clear(byID)
		uniq := group[:0]
		for _, n := range group {
			if _, dup := byID[n.ID]; !dup {
				byID[n.ID] = n
				uniq = append(uniq, n)
			}
		}
		t := &SpanTree{Trace: group[0].Trace, Spans: len(uniq)}
		for _, n := range uniq {
			if n.Err != "" {
				t.Errs++
			}
			if n.Parent == 0 {
				if t.Root == nil {
					t.Root = n
				} else {
					t.Orphans = append(t.Orphans, n)
				}
				continue
			}
			if p := byID[n.Parent]; p != nil && p != n {
				p.Children = append(p.Children, n)
			} else {
				t.Orphans = append(t.Orphans, n)
			}
		}
		trees = append(trees, t)
	}
	slices.SortStableFunc(trees, func(a, b *SpanTree) int { return cmp.Compare(a.Start(), b.Start()) })
	return trees
}

// SpanCensus summarises a batch of reconstructed trees.
type SpanCensus struct {
	Trees, Complete, Truncated, Orphaned int
	Spans                                int
}

// CensusSpanTrees tallies tree states across trees.
func CensusSpanTrees(trees []*SpanTree) SpanCensus {
	var c SpanCensus
	c.Trees = len(trees)
	for _, t := range trees {
		c.Spans += t.Spans
		switch t.State() {
		case TreeComplete:
			c.Complete++
		case TreeTruncated:
			c.Truncated++
		default:
			c.Orphaned++
		}
	}
	return c
}

// CompleteFraction is the share of trees that are complete OR truncated —
// i.e. fully reconstructed, counting explicitly-failed requests as
// accounted for. The telemetry-smoke CI gate asserts this ≥ 0.99.
func (c SpanCensus) CompleteFraction() float64 {
	if c.Trees == 0 {
		return 1
	}
	return float64(c.Complete+c.Truncated) / float64(c.Trees)
}

// FormatSpanTree renders one tree as an indented listing.
func FormatSpanTree(w io.Writer, t *SpanTree) {
	fmt.Fprintf(w, "trace %016x  %d spans  %s\n", t.Trace, t.Spans, t.State())
	if t.Root != nil {
		formatSpanNode(w, t.Root, t.Root.Start, 1)
	}
	for _, o := range t.Orphans {
		fmt.Fprintf(w, "  [orphan parent=%x]\n", o.Parent)
		formatSpanNode(w, o, o.Start, 2)
	}
}

func formatSpanNode(w io.Writer, n *SpanNode, base int64, depth int) {
	for i := 0; i < depth; i++ {
		io.WriteString(w, "  ")
	}
	fmt.Fprintf(w, "+%-8d %-14s %-10v  %dus", n.Start-base, n.Stage, ids.NodeID(n.Node), max(n.End-n.Start, 0))
	if n.Detail != "" {
		fmt.Fprintf(w, "  %s", n.Detail)
	}
	if n.Err != "" {
		fmt.Fprintf(w, "  ERR %s", n.Err)
	}
	io.WriteString(w, "\n")
	for _, c := range n.Children {
		formatSpanNode(w, c, base, depth+1)
	}
}
