package baseline

import (
	"distreach/internal/automaton"
	"distreach/internal/cluster"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// DisRPQD evaluates qrr(s, t, R) following Suciu's algorithm for
// distributed regular path queries on semistructured data [30], the
// comparison point the paper calls disRPQd. Like disRPQ it is based on
// per-site relations rather than node-by-node message passing, but its
// communication pattern differs in the two ways the paper highlights:
//
//   - each site is visited twice: once to receive the query and compute
//     its local boundary relation, and a second time to receive the
//     union of all sites' relations, against which every site computes
//     the global accessibility of its own nodes;
//   - consequently the total network traffic carries the combined
//     relation to every site — a factor card(F) more than disRPQ, which
//     assembles the equations at the coordinator only (bounded by the n²
//     cross-node bound of [30]).
//
// The local computation reuses the same product-graph machinery as
// disRPQ so that the comparison isolates the communication structure.
func DisRPQD(cl *cluster.Cluster, fr *fragment.Fragmentation, s, t graph.NodeID, a *automaton.Automaton) core.Result {
	run := cl.NewRun()
	if s == t && a.AcceptsLabels(nil) {
		return core.Result{Answer: true, Report: run.Finish()}
	}
	frags := fr.Fragments()
	k := fr.Card()

	// Visit 1: the coordinator posts the query automaton to every site;
	// sites compute their boundary relations in parallel and ship them
	// back.
	qBytes := a.EncodedSize() + querySize
	for i := 0; i < k; i++ {
		run.Post(i, qBytes)
	}
	run.NetPhase(qBytes)

	partial := make([]*core.Rows, k)
	run.Parallel(func(site int) {
		partial[site] = core.LocalEvalRPQ(frags[site], s, t, a)
	})
	total := 0
	maxReply := 0
	for i, rv := range partial {
		b := core.RPQWireSize(frags[i], rv, a)
		run.Reply(i, b)
		total += b
		if b > maxReply {
			maxReply = b
		}
	}
	run.NetPhase(maxReply)

	// Visit 2: the coordinator multicasts the union of all relations to
	// every site (k copies of the combined relation ship in parallel, one
	// per downlink), and each site computes the accessibility of its nodes
	// against the global relation. The site owning s reports the answer.
	for i := 0; i < k; i++ {
		run.Post(i, total)
	}
	run.NetPhase(total)
	answers := make([]bool, k)
	run.Parallel(func(site int) {
		answers[site] = core.SolveRPQ(partial, s, a)
	})
	run.Reply(fr.Owner(s), 1)
	run.NetPhase(1)
	return core.Result{Answer: answers[fr.Owner(s)], Report: run.Finish()}
}
