// Package core implements the paper's partial-evaluation algorithms:
// disReach for reachability queries (Section 3), disDist for bounded
// reachability queries (Section 4), and disRPQ for regular reachability
// queries (Section 5). Each runs in the three-phase scheme of Section 2.2:
//
//  1. the coordinator posts the query, as is, to every site;
//  2. every site partially evaluates the query on its fragment in parallel,
//     producing Boolean (or arithmetic, or vector) equations over variables
//     that stand for the unknown answers at virtual nodes;
//  3. the coordinator assembles the equations into a dependency graph and
//     solves the resulting — possibly recursive — equation system.
//
// The performance guarantees are enforced structurally: sites receive
// exactly one message each (the posted query), all further communication is
// replies to the coordinator, and the reply sizes depend only on the
// fragmentation (|Vf|) and the query, never on |G|.
//
// Phase 2 is one file per query class (disreach.go, disdist.go, disrpq.go:
// the LocalEval* procedures). All share one equation type, Rows (rows.go):
// Boolean for qr and over qrr's (node, state) products, weighted for qbr.
// Phases 1 and 3 are written once, in assemble.go:
// threePhase is the driver every Dis* runs through, and the assemble
// functions there build the one dependency graph per query that both
// decides it and names the sites the decision depends on (touched.go says
// why that set is what a cache may invalidate by).
package core

import "distreach/internal/reachindex"

// Options tunes the evaluation algorithms. The zero value is ready to use.
type Options struct {
	// NoFragmentIndex keeps TargetOnlyReach off the fragment's
	// reachability index (fragment.IndexProbe), forcing the frontier-cut
	// BFS. Cross-checks use it to compare the labels with the search on
	// the same deployment.
	NoFragmentIndex bool

	// Metrics, if non-nil, receives the outcomes of the index probes of
	// the local evaluation: how often the labels answered, and why they
	// did not when they did not. The struct is written by the single
	// evaluating goroutine with no synchronization; callers wanting
	// aggregates across queries must copy it out per evaluation (the
	// traced query path turns it into the eval span's reachindex outcome).
	Metrics *EvalMetrics
}

// EvalMetrics counts, for one local evaluation, the index probes the
// fragment's labels answered and the ones that fell back to BFS with an
// index installed — the reachindex outcome tagging observability needs to
// tune index budgets in production. A probe asks whether one in-node SCC
// reaches the query's target (TargetOnlyReach).
type EvalMetrics struct {
	IndexedEqs    int64 // answered from the fragment's interval labels
	StaleEqs      int64 // BFS because a mutation invalidated the labels
	OverBudgetEqs int64 // BFS because the label budget excluded the SCC's label
}

// count tallies one index probe's outcome in o.Metrics, if any.
func (o *Options) count(out reachindex.Outcome) {
	if o == nil || o.Metrics == nil {
		return
	}
	switch out {
	case reachindex.OutcomeHit:
		o.Metrics.IndexedEqs++
	case reachindex.OutcomeStale:
		o.Metrics.StaleEqs++
	case reachindex.OutcomeOverBudget:
		o.Metrics.OverBudgetEqs++
	}
}
