package core

import (
	"fmt"
	"io"
	"strings"
)

// DumpTable writes an ordered or LRU table in the layout of the paper's
// sample figures (Figs. 1–3): OBJ-ID, PROXY, LAST, AVG, HITS. The now
// argument lets the dump show aged averages next to the stored ones.
func DumpTable(w io.Writer, title string, entries []*Entry, now int64) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d entries)\n", title, len(entries))
	fmt.Fprintf(&b, "%-14s %-10s %6s %6s %6s %6s\n",
		"OBJ-ID", "PROXY", "LAST", "AVG", "HITS", "AGED")
	for _, e := range entries {
		fmt.Fprintf(&b, "%s %6d\n", e, e.AgedAverage(now))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Dump writes all three tables of t in paper order, each ordered table in
// ascending key order.
func (t *Tables) Dump(w io.Writer, now int64) error {
	if err := DumpTable(w, "Caching Table", t.Caching().Entries(), now); err != nil {
		return err
	}
	if err := DumpTable(w, "Multiple-Table", t.Multiple().Entries(), now); err != nil {
		return err
	}
	return DumpTable(w, "Single-Table", t.single.Entries(), now)
}
