package core

import (
	"strings"
	"testing"
)

func TestOccupancyDiagramFigure1(t *testing.T) {
	a := mustAlloc(t, figure1Matrix())
	out := OccupancyDiagram(a)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// max load 4 -> 4 levels + separator + channel labels.
	if len(lines) != 6 {
		t.Fatalf("diagram has %d lines, want 6:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[len(lines)-1], "c5") {
		t.Fatalf("missing channel labels:\n%s", out)
	}
	// Channel c1 hosts a radio from every user; the bottom level must show u1.
	bottom := lines[3]
	if !strings.Contains(bottom, "u1") {
		t.Fatalf("bottom level missing u1:\n%s", out)
	}
	// c5 is used only by u2: exactly one radio across all levels.
	count := strings.Count(out, "u2")
	if count != 3 { // u2 has 3 radios total (c1, c3, c5)
		t.Fatalf("u2 appears %d times, want 3:\n%s", count, out)
	}
}

func TestOccupancyDiagramStackedUser(t *testing.T) {
	a := mustAlloc(t, [][]int{
		{2, 0},
		{0, 1},
	})
	out := OccupancyDiagram(a)
	if strings.Count(out, "u1") != 2 {
		t.Fatalf("stacked user should appear twice:\n%s", out)
	}
}

func TestOccupancyDiagramEmpty(t *testing.T) {
	a, err := NewAlloc(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := OccupancyDiagram(a)
	if !strings.Contains(out, "empty") {
		t.Fatalf("empty allocation should say so: %q", out)
	}
}

// TestOccupancyDiagramRefusesOversizedLoad: a channel load above
// users·channels, which no game admits, is reported in one line instead of
// drawn one line per load level.
func TestOccupancyDiagramRefusesOversizedLoad(t *testing.T) {
	a := mustAlloc(t, [][]int{{300, 0}})
	out := OccupancyDiagram(a)
	if strings.Count(out, "\n") != 1 || !strings.Contains(out, "not drawable") {
		t.Fatalf("want one not-drawable line, got %d lines:\n%.200s", strings.Count(out, "\n"), out)
	}
	// At the bound the allocation is still drawn: 2 levels plus axis and labels.
	a = mustAlloc(t, [][]int{{2, 0}})
	if out := OccupancyDiagram(a); strings.Count(out, "\n") != 4 {
		t.Fatalf("load at the bound should be drawn:\n%s", out)
	}
}
