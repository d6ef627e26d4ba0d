// Package plot renders experiment results as CSV (for external tooling)
// and as ASCII line charts (so `cmd/adcsweep` can show every figure's
// shape directly in a terminal, next to the paper's description). WriteCSV
// is the one CSV layout of Figs. 11–15: x, then one column per series.
package plot

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Series is one named line of (x, y) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// WriteCSV emits all series as rows of x followed by one y column per
// series. Series are aligned by index; they must share their X vector.
func WriteCSV(w io.Writer, xLabel string, series ...Series) error {
	if len(series) == 0 {
		return fmt.Errorf("plot: no series")
	}
	n := len(series[0].X)
	for _, s := range series {
		if len(s.X) != n || len(s.Y) != n {
			return fmt.Errorf("plot: series %q has mismatched length", s.Name)
		}
	}
	var b strings.Builder
	b.WriteString(csvEscape(xLabel))
	for _, s := range series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		b.WriteString(formatFloat(series[0].X[i]))
		for _, s := range series {
			b.WriteByte(',')
			b.WriteString(formatFloat(s.Y[i]))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// markers distinguish up to six series in ASCII charts.
var markers = []byte{'*', '+', 'o', 'x', '#', '@'}

// RenderASCII draws the series into a width×height character grid with
// axis labels, one marker per series, returning the multi-line chart.
func RenderASCII(title string, width, height int, series ...Series) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		return title + "\n(no data)\n"
	}
	if maxY == minY {
		maxY = minY + 1
	}
	if maxX == minX {
		maxX = minX + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		mark := markers[si%len(markers)]
		for i := range s.X {
			col := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			row := int((s.Y[i] - minY) / (maxY - minY) * float64(height-1))
			grid[height-1-row][col] = mark
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s", markers[si%len(markers)], s.Name)
	}
	b.WriteByte('\n')
	for i, row := range grid {
		var label string
		switch i {
		case 0:
			label = fmt.Sprintf("%9.3g", maxY)
		case height - 1:
			label = fmt.Sprintf("%9.3g", minY)
		default:
			label = strings.Repeat(" ", 9)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, row)
	}
	fmt.Fprintf(&b, "%s +%s+\n", strings.Repeat(" ", 9), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s  %-*.4g%*.4g\n", strings.Repeat(" ", 9), width/2, minX, width-width/2, maxX)
	return b.String()
}
