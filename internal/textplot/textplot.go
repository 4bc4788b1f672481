// Package textplot renders the repository's figures as ASCII charts and CSV
// series. Go has no standard plotting ecosystem, so every experiment emits
// a human-readable chart for the terminal plus a machine-readable CSV for
// external tooling.
package textplot

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Series is one named line on a chart. X and Y must have equal lengths.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// markers are assigned to series in order.
const markers = "*o+x#@%&"

// LineChart renders one or more series on a width×height ASCII grid with
// axis labels and a legend.
func LineChart(title string, series []Series, width, height int) (string, error) {
	if width < 16 || height < 4 {
		return "", fmt.Errorf("textplot: chart %dx%d too small (min 16x4)", width, height)
	}
	if len(series) == 0 {
		return "", fmt.Errorf("textplot: no series")
	}
	if len(series) > len(markers) {
		return "", fmt.Errorf("textplot: %d series exceed %d markers", len(series), len(markers))
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			return "", fmt.Errorf("textplot: series %q has %d x but %d y values", s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) || math.IsInf(s.X[i], 0) || math.IsInf(s.Y[i], 0) {
				return "", fmt.Errorf("textplot: series %q has non-finite point at %d", s.Name, i)
			}
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
			points++
		}
	}
	if points == 0 {
		return "", fmt.Errorf("textplot: all series empty")
	}
	if minX == maxX {
		minX, maxX = minX-1, maxX+1
	}
	if minY == maxY {
		minY, maxY = minY-1, maxY+1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		mark := markers[si]
		for i := range s.X {
			col := int(math.Round((s.X[i] - minX) / (maxX - minX) * float64(width-1)))
			row := int(math.Round((s.Y[i] - minY) / (maxY - minY) * float64(height-1)))
			grid[height-1-row][col] = mark
		}
	}

	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	yLo, yHi := formatTick(minY), formatTick(maxY)
	labelWidth := len(yLo)
	if len(yHi) > labelWidth {
		labelWidth = len(yHi)
	}
	for r := 0; r < height; r++ {
		label := strings.Repeat(" ", labelWidth)
		switch r {
		case 0:
			label = pad(yHi, labelWidth)
		case height - 1:
			label = pad(yLo, labelWidth)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s +%s+\n", strings.Repeat(" ", labelWidth), strings.Repeat("-", width))
	xLo, xHi := formatTick(minX), formatTick(maxX)
	gap := width - len(xLo) - len(xHi)
	if gap < 1 {
		gap = 1
	}
	fmt.Fprintf(&b, "%s  %s%s%s\n", strings.Repeat(" ", labelWidth), xLo, strings.Repeat(" ", gap), xHi)
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", markers[si], s.Name)
	}
	return b.String(), nil
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return strings.Repeat(" ", width-len(s)) + s
}

func formatTick(v float64) string {
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// Table renders an aligned text table.
func Table(headers []string, rows [][]string) (string, error) {
	if len(headers) == 0 {
		return "", fmt.Errorf("textplot: no headers")
	}
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		if len(row) != len(headers) {
			return "", fmt.Errorf("textplot: row has %d cells, want %d", len(row), len(headers))
		}
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String(), nil
}

// WriteCSV emits headers and rows as CSV.
func WriteCSV(w io.Writer, headers []string, rows [][]string) error {
	if len(headers) == 0 {
		return fmt.Errorf("textplot: no headers")
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(headers); err != nil {
		return fmt.Errorf("textplot: writing CSV header: %w", err)
	}
	for i, row := range rows {
		if len(row) != len(headers) {
			return fmt.Errorf("textplot: CSV row %d has %d cells, want %d", i, len(row), len(headers))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("textplot: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("textplot: flushing CSV: %w", err)
	}
	return nil
}

// SeriesCSV renders one or more series as long-format CSV rows
// (series,x,y), convenient for external plotting tools.
func SeriesCSV(w io.Writer, series []Series) error {
	if len(series) == 0 {
		return fmt.Errorf("textplot: no series")
	}
	rows := make([][]string, 0, 64)
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("textplot: series %q has %d x but %d y values", s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			rows = append(rows, []string{
				s.Name,
				strconv.FormatFloat(s.X[i], 'g', -1, 64),
				strconv.FormatFloat(s.Y[i], 'g', -1, 64),
			})
		}
	}
	return WriteCSV(w, []string{"series", "x", "y"}, rows)
}
