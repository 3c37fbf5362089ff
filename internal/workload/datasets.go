// Package workload provides the experiment inputs of Section 7: dataset
// analogues standing in for the paper's real-life graphs, and random query
// generators for the three query classes.
//
// Substitution note: the paper's SNAP datasets are not
// redistributable inside this offline reproduction, so each is replaced by
// a deterministic synthetic graph with the same |E|/|V| ratio, a power-law
// degree distribution, and the same label-alphabet size, scaled down ~100×
// so that the full experiment suite runs on one machine in minutes. The
// comparisons in the paper are between communication structures of
// algorithms, which depend on degree distribution and fragment cuts rather
// than on the concrete node identities.
package workload

import (
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// Dataset describes one experiment graph.
type Dataset struct {
	Name   string
	V, E   int
	Labels int // size of the label alphabet; 0 for unlabeled graphs
	CardF  int // default fragment count used by the paper for this dataset
	Seed   uint64
}

// Generate materializes the dataset's graph. The result is deterministic in
// the dataset definition.
func (d Dataset) Generate() *graph.Graph {
	cfg := gen.Config{
		Nodes:     d.V,
		Edges:     d.E,
		LabelSkew: 1.0,
		Seed:      d.Seed,
	}
	if d.Labels > 0 {
		cfg.Labels = gen.LabelAlphabet(d.Labels)
	}
	return gen.PowerLaw(cfg)
}

// ReachDatasets are the five unlabeled graphs of Table 2 (Exp-1/Exp-2),
// scaled ~1/100: LiveJournal, WikiTalk, BerkStan, NotreDame, Amazon.
var ReachDatasets = []Dataset{
	{Name: "LiveJournal", V: 25410, E: 200000, CardF: 4, Seed: 101},
	{Name: "WikiTalk", V: 23944, E: 50214, CardF: 4, Seed: 102},
	{Name: "BerkStan", V: 6852, E: 76006, CardF: 4, Seed: 103},
	{Name: "NotreDame", V: 3257, E: 14971, CardF: 4, Seed: 104},
	{Name: "Amazon", V: 2621, E: 12349, CardF: 4, Seed: 105},
}

// LabeledDatasets are the four labeled graphs of Exp-3 (Fig. 11(e)/(f)),
// scaled ~1/100, with the paper's card(F) values: Citation, MEME, Youtube,
// Internet. Alphabet sizes are scaled alongside the node counts so label
// selectivity is preserved.
var LabeledDatasets = []Dataset{
	{Name: "Citation", V: 15723, E: 20840, Labels: 63, CardF: 10, Seed: 201},
	{Name: "MEME", V: 7000, E: 8000, Labels: 128, CardF: 11, Seed: 202},
	{Name: "Youtube", V: 2345, E: 4549, Labels: 12, CardF: 12, Seed: 203},
	{Name: "Internet", V: 580, E: 1035, Labels: 16, CardF: 10, Seed: 204},
}

// ByName returns the dataset with the given name from either registry.
func ByName(name string) (Dataset, bool) {
	for _, d := range ReachDatasets {
		if d.Name == name {
			return d, true
		}
	}
	for _, d := range LabeledDatasets {
		if d.Name == name {
			return d, true
		}
	}
	return Dataset{}, false
}

// Synthetic builds a densification-law graph (|E| = |V|^a with the exponent
// chosen to land near the requested edge count), the growth model of the
// paper's synthetic scalability experiments.
func Synthetic(nodes, edges, labels int, seed uint64) *graph.Graph {
	cfg := gen.Config{Nodes: nodes, Edges: edges, LabelSkew: 1.0, Seed: seed}
	if labels > 0 {
		cfg.Labels = gen.LabelAlphabet(labels)
	}
	return gen.PowerLaw(cfg)
}
