package main

import (
	"fmt"
	"io"
	"strconv"

	"github.com/multiradio/chanalloc"
	"github.com/multiradio/chanalloc/internal/textplot"
)

// figure3MaxK is the largest k_c of the Figure 3 rate curves.
const figure3MaxK = 20

// expFigure1 (fig1) draws Figure 1: the worked example allocation as
// channel occupancy. E1 lists the lemmas it violates.
func expFigure1(out io.Writer, env expEnv) error {
	s, err := chanalloc.ScenarioFigure1(chanalloc.TDMA(1))
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "=== Figure 1: example channel allocation (|N|=4, k=4, |C|=5) ===")
	fmt.Fprint(out, chanalloc.OccupancyDiagram(s.Alloc))
	fmt.Fprintln(out)
	headers, rows := matrixTable(s.Alloc.Matrix())
	return writeCSV(env.csvDir, "figure1.csv", headers, rows)
}

// expFigure2 (fig2) prints Figure 2: the strategy matrix of Figure 1.
func expFigure2(out io.Writer, _ expEnv) error {
	s, err := chanalloc.ScenarioFigure1(chanalloc.TDMA(1))
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "=== Figure 2: strategy matrix of the Figure 1 example ===")
	fmt.Fprintln(out, s.Alloc.String())
	fmt.Fprintln(out)
	return nil
}

// expFigure3 returns a Figure 3 experiment: total rate R(k_c) versus the
// number of radios k_c for reservation TDMA, optimal CSMA/CA and practical
// CSMA/CA. Bianchi's 1 Mbit/s PHY (fig3) gives a practical curve that
// decreases from k=1, as the paper sketches. The 11 Mbit/s 802.11b PHY
// (fig3-80211b) pays its long preamble at 1 Mbit/s, so the raw curve rises
// until k≈3 (see EXPERIMENTS.md). With sim (fig3-sim) a slot-level
// simulation estimate, seeded from the experiment's seed, joins the curves.
func expFigure3(phy string, sim bool, csvName string) func(io.Writer, expEnv) error {
	return func(out io.Writer, env expEnv) error {
		p := chanalloc.Bianchi1Mbps()
		if phy == "80211b" {
			p = chanalloc.Default80211b()
		}
		opt, err := chanalloc.OptimalCSMA(p)
		if err != nil {
			return err
		}
		prac, err := chanalloc.PracticalCSMA(p)
		if err != nil {
			return err
		}
		type curve struct {
			name string
			r    chanalloc.RateFunc
		}
		curves := []curve{
			{"reservation TDMA", chanalloc.TDMA(p.DataRate)},
			{"optimal CSMA/CA", opt},
			{"practical CSMA/CA", prac},
		}
		if sim {
			emp, err := chanalloc.EmpiricalCSMARate(p, figure3MaxK, 150_000, env.seed)
			if err != nil {
				return err
			}
			curves = append(curves, curve{"practical CSMA/CA (simulated)", emp})
		}

		xs := make([]float64, figure3MaxK)
		for k := range xs {
			xs[k] = float64(k + 1)
		}
		series := make([]textplot.Series, len(curves))
		for i, c := range curves {
			ys := make([]float64, figure3MaxK)
			for k := range ys {
				ys[k] = c.r.Rate(k + 1)
			}
			series[i] = textplot.Series{Name: c.name, X: xs, Y: ys}
		}

		fmt.Fprintf(out, "=== Figure 3: total available rate R(k_c) by MAC protocol (%s PHY, Mbit/s) ===\n", phy)
		chart, err := textplot.LineChart("", series, 64, 16)
		if err != nil {
			return err
		}
		fmt.Fprint(out, chart)

		headers := []string{"k"}
		for _, s := range series {
			headers = append(headers, s.Name)
		}
		rows := make([][]string, figure3MaxK)
		for k := range rows {
			row := []string{strconv.Itoa(k + 1)}
			for _, s := range series {
				row = append(row, fmt.Sprintf("%.4f", s.Y[k]))
			}
			rows[k] = row
		}
		table, err := textplot.Table(headers, rows)
		if err != nil {
			return err
		}
		fmt.Fprintln(out)
		fmt.Fprint(out, table)
		fmt.Fprintln(out)

		return writeFile(env.csvDir, csvName, func(w io.Writer) error {
			return textplot.SeriesCSV(w, series)
		})
	}
}

// expFigureNE returns the Figure 4 or 5 experiment: a NE allocation, its
// occupancy diagram, per-user utilities and both NE verdicts.
func expFigureNE(which string, build func(chanalloc.RateFunc) (*chanalloc.Scenario, error)) func(io.Writer, expEnv) error {
	return func(out io.Writer, env expEnv) error {
		s, err := build(chanalloc.TDMA(1))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "=== Figure %s: %s ===\n", which, s.Description)
		fmt.Fprint(out, chanalloc.OccupancyDiagram(s.Alloc))
		fmt.Fprintln(out)
		fmt.Fprintln(out, s.Alloc.String())

		thm, v := chanalloc.TheoremNE(s.Game, s.Alloc)
		oracle, err := s.Game.IsNashEquilibrium(s.Alloc)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nTheorem 1 verdict: NE=%v", thm)
		if v != nil {
			fmt.Fprintf(out, " (%s)", v)
		}
		fmt.Fprintf(out, "\nBest-response oracle: NE=%v\n", oracle)
		fmt.Fprintln(out, "Per-user utilities (R = 1):")
		for i, u := range s.Game.Utilities(s.Alloc) {
			fmt.Fprintf(out, "  u%d: %.4f\n", i+1, u)
		}
		fmt.Fprintln(out)
		headers, rows := matrixTable(s.Alloc.Matrix())
		return writeCSV(env.csvDir, "figure"+which+".csv", headers, rows)
	}
}

// matrixTable lays out a strategy matrix as CSV cells: one row per user,
// one column per channel.
func matrixTable(matrix [][]int) (headers []string, rows [][]string) {
	headers = []string{"user"}
	for c := range matrix[0] {
		headers = append(headers, fmt.Sprintf("c%d", c+1))
	}
	rows = make([][]string, len(matrix))
	for i, r := range matrix {
		row := []string{fmt.Sprintf("u%d", i+1)}
		for _, v := range r {
			row = append(row, strconv.Itoa(v))
		}
		rows[i] = row
	}
	return headers, rows
}
