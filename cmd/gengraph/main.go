// Command gengraph produces synthetic labeled graphs in the text format of
// internal/graph, for feeding cmd/disreach or external tooling.
//
// Usage:
//
//	gengraph -nodes 10000 -edges 40000 -labels 8 -model powerlaw -seed 1 > g.txt
//	gengraph -dataset Youtube > youtube.txt
//	gengraph -snap p2p-Gnutella08.txt.gz -labels 4 > gnutella.txt
//
// -snap converts a SNAP edge-list file (plain or gzipped, IDs remapped
// deterministically; see internal/graph.ReadSNAP) into the labeled text
// format the rest of the tooling consumes.
package main

import (
	"flag"
	"fmt"
	"os"

	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/workload"
)

func main() {
	var (
		nodes   = flag.Int("nodes", 1000, "number of nodes")
		edges   = flag.Int("edges", 4000, "number of edges")
		labels  = flag.Int("labels", 0, "label alphabet size (0 = unlabeled)")
		skew    = flag.Float64("skew", 1.0, "Zipf exponent for label frequencies")
		model   = flag.String("model", "powerlaw", "generator: powerlaw | uniform | layered | cycle")
		seed    = flag.Uint64("seed", 1, "generator seed")
		dataset = flag.String("dataset", "", "generate a named dataset analogue instead (see internal/workload)")
		snap    = flag.String("snap", "", "convert a SNAP edge-list file (plain or gzip) instead of generating")
	)
	flag.Parse()

	var g *graph.Graph
	if *snap != "" {
		var alphabet []string
		if *labels > 0 {
			alphabet = gen.LabelAlphabet(*labels)
		}
		var err error
		if g, err = graph.OpenSNAP(*snap, alphabet); err != nil {
			fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
			os.Exit(1)
		}
	} else if *dataset != "" {
		d, ok := workload.ByName(*dataset)
		if !ok {
			fmt.Fprintf(os.Stderr, "gengraph: unknown dataset %q\n", *dataset)
			os.Exit(2)
		}
		g = d.Generate()
	} else {
		cfg := gen.Config{Nodes: *nodes, Edges: *edges, LabelSkew: *skew, Seed: *seed}
		if *labels > 0 {
			cfg.Labels = gen.LabelAlphabet(*labels)
		}
		switch *model {
		case "powerlaw":
			g = gen.PowerLaw(cfg)
		case "uniform":
			g = gen.Uniform(cfg)
		case "layered":
			g = gen.Layered(*nodes/100+2, 100, 0.05, cfg.Labels, *seed)
		case "cycle":
			g = gen.Cycle(*nodes, cfg.Labels, *seed)
		default:
			fmt.Fprintf(os.Stderr, "gengraph: unknown model %q\n", *model)
			os.Exit(2)
		}
	}
	if err := graph.Write(os.Stdout, g); err != nil {
		fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "gengraph: wrote %v\n", g)
}
