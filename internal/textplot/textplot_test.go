package textplot

import (
	"math"
	"strings"
	"testing"
)

func TestLineChartBasic(t *testing.T) {
	s := []Series{
		{Name: "tdma", X: []float64{1, 2, 3, 4}, Y: []float64{5, 5, 5, 5}},
		{Name: "csma", X: []float64{1, 2, 3, 4}, Y: []float64{5, 4.5, 4, 3.5}},
	}
	out, err := LineChart("R(k) by MAC", s, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"R(k) by MAC", "tdma", "csma", "*", "o", "+---"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + height rows + axis + x labels + 2 legend lines
	if len(lines) != 1+10+1+1+2 {
		t.Fatalf("chart has %d lines:\n%s", len(lines), out)
	}
}

func TestLineChartSinglePointDomain(t *testing.T) {
	s := []Series{{Name: "p", X: []float64{2}, Y: []float64{3}}}
	if _, err := LineChart("", s, 20, 5); err != nil {
		t.Fatalf("degenerate domain should render: %v", err)
	}
}

func TestLineChartErrors(t *testing.T) {
	ok := []Series{{Name: "a", X: []float64{1}, Y: []float64{1}}}
	if _, err := LineChart("t", ok, 5, 5); err == nil {
		t.Error("tiny width should error")
	}
	if _, err := LineChart("t", nil, 40, 10); err == nil {
		t.Error("no series should error")
	}
	bad := []Series{{Name: "a", X: []float64{1, 2}, Y: []float64{1}}}
	if _, err := LineChart("t", bad, 40, 10); err == nil {
		t.Error("ragged series should error")
	}
	nan := []Series{{Name: "a", X: []float64{math.NaN()}, Y: []float64{1}}}
	if _, err := LineChart("t", nan, 40, 10); err == nil {
		t.Error("NaN should error")
	}
	many := make([]Series, 9)
	for i := range many {
		many[i] = Series{Name: "s", X: []float64{1}, Y: []float64{1}}
	}
	if _, err := LineChart("t", many, 40, 10); err == nil {
		t.Error("too many series should error")
	}
	empty := []Series{{Name: "a"}}
	if _, err := LineChart("t", empty, 40, 10); err == nil {
		t.Error("empty series should error")
	}
}

func TestTable(t *testing.T) {
	out, err := Table([]string{"n", "rate"}, [][]string{
		{"1", "5.00"},
		{"10", "4.75"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "--") {
		t.Errorf("missing separator:\n%s", out)
	}
	// All rows align to the same width.
	if len(lines[0]) != len(lines[2]) {
		t.Errorf("misaligned table:\n%s", out)
	}
}

func TestTableErrors(t *testing.T) {
	if _, err := Table(nil, nil); err == nil {
		t.Error("no headers should error")
	}
	if _, err := Table([]string{"a"}, [][]string{{"1", "2"}}); err == nil {
		t.Error("ragged row should error")
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	err := WriteCSV(&b, []string{"x", "y"}, [][]string{{"1", "2"}, {"3", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	want := "x,y\n1,2\n3,4\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}

func TestWriteCSVErrors(t *testing.T) {
	var b strings.Builder
	if err := WriteCSV(&b, nil, nil); err == nil {
		t.Error("no headers should error")
	}
	if err := WriteCSV(&b, []string{"a"}, [][]string{{"1", "2"}}); err == nil {
		t.Error("ragged row should error")
	}
}

func TestSeriesCSV(t *testing.T) {
	var b strings.Builder
	err := SeriesCSV(&b, []Series{
		{Name: "a", X: []float64{1, 2}, Y: []float64{3, 4}},
		{Name: "b", X: []float64{1}, Y: []float64{9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "series,x,y\na,1,3\na,2,4\nb,1,9\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}

func TestSeriesCSVErrors(t *testing.T) {
	var b strings.Builder
	if err := SeriesCSV(&b, nil); err == nil {
		t.Error("no series should error")
	}
	if err := SeriesCSV(&b, []Series{{Name: "a", X: []float64{1}}}); err == nil {
		t.Error("ragged series should error")
	}
}
