// Command bench regenerates the paper's evaluation: Table 2, every panel of
// Fig. 11, the in-text visit/traffic claims, the ablations A1-A2, the
// co-location extension E2 and the serving experiments N6, N7 and N10
// (see -list).
//
// Usage:
//
//	bench -exp T2              # one experiment
//	bench -all                 # the whole suite
//	bench -all -md -out experiments.md
//	bench -exp F11a -queries 100 -scale 1.0 -v
//
// Output rows mirror the series the paper plots; absolute numbers differ
// (simulated sites, scaled datasets) but the shapes — who wins, by what
// factor, where crossovers fall — are the reproduction target. Performance
// of the serving path is measured by benchmark/ (see BENCHMARK.json), not
// here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"distreach/internal/exp"
)

func main() {
	var (
		expID   = flag.String("exp", "", "experiment ID to run (see -list)")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		queries = flag.Int("queries", 0, "queries per measurement point (0 = per-experiment default)")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = repo defaults, ~1/100 of the paper)")
		md      = flag.Bool("md", false, "emit GitHub-flavored markdown tables")
		out     = flag.String("out", "", "write output to a file instead of stdout")
		verbose = flag.Bool("v", false, "log progress to stderr")
	)
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return
	}
	var ids []string
	switch {
	case *all:
		ids = exp.IDs()
	case *expID != "":
		ids = strings.Split(*expID, ",")
	default:
		fmt.Fprintln(os.Stderr, "bench: need -exp <id> or -all (use -list to see IDs)")
		os.Exit(2)
	}

	cfg := exp.Config{Queries: *queries, Scale: *scale}
	if *verbose {
		cfg.Log = os.Stderr
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	for _, id := range ids {
		start := time.Now()
		tab, err := exp.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: experiment %s: %v\n", id, err)
			os.Exit(1)
		}
		if *md {
			renderMarkdown(w, tab, time.Since(start))
		} else {
			renderPlain(w, tab, time.Since(start))
		}
	}
}

func renderPlain(w *os.File, t exp.Table, took time.Duration) {
	fmt.Fprintf(w, "\n== %s — %s (ran in %v)\n", t.ID, t.Title, took.Round(time.Millisecond))
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		for i, c := range cols {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", t.Notes)
	}
}

func renderMarkdown(w *os.File, t exp.Table, took time.Duration) {
	fmt.Fprintf(w, "\n### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "\n*%s*\n", t.Notes)
	}
	fmt.Fprintf(w, "\n(ran in %v)\n", took.Round(time.Millisecond))
}
