package core

import (
	"fmt"
	"strings"
)

// OccupancyDiagram renders the allocation in the style of the paper's
// Figure 1: one column per channel, user labels stacked by radio. A user
// with multiple radios on a channel appears once per radio. Every game
// caps a user's budget at |C|, so no legal allocation loads a channel
// with more than users·channels radios; past that bound the diagram, one
// line per load level, would be as large as the cell values, and a single
// line saying so is returned instead.
func OccupancyDiagram(a *Alloc) string {
	maxLoad, busiest := a.MaxLoad()
	if maxLoad == 0 {
		return "(empty allocation)\n"
	}
	if bound := a.Users() * a.Channels(); maxLoad > bound {
		return fmt.Sprintf("(allocation not drawable: channel c%d has load %d, above users·channels = %d)\n", busiest+1, maxLoad, bound)
	}
	// columns[c] lists the user label of each radio on channel c,
	// bottom-up, grouped by user for readability.
	columns := make([][]string, a.Channels())
	width := 4
	for c := 0; c < a.Channels(); c++ {
		for i := 0; i < a.Users(); i++ {
			for r := 0; r < a.Radios(i, c); r++ {
				label := fmt.Sprintf("u%d", i+1)
				if len(label) > width {
					width = len(label)
				}
				columns[c] = append(columns[c], label)
			}
		}
	}

	var b strings.Builder
	for level := maxLoad; level >= 1; level-- {
		fmt.Fprintf(&b, "%3d |", level)
		for c := 0; c < a.Channels(); c++ {
			cell := "."
			if len(columns[c]) >= level {
				cell = columns[c][level-1]
			}
			fmt.Fprintf(&b, " %-*s", width, cell)
		}
		b.WriteByte('\n')
	}
	b.WriteString("    +")
	for c := 0; c < a.Channels(); c++ {
		b.WriteString(strings.Repeat("-", width+1))
	}
	b.WriteByte('\n')
	b.WriteString("     ")
	for c := 0; c < a.Channels(); c++ {
		fmt.Fprintf(&b, " %-*s", width, fmt.Sprintf("c%d", c+1))
	}
	b.WriteByte('\n')
	return b.String()
}
