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
// the LocalEval* procedures). qr and qbr share one equation type, Rows
// (rows.go): Boolean for qr, weighted for qbr; qrr has its own vector
// equations, RPQPartial. Phases 1 and 3 are written once, in assemble.go:
// threePhase is the driver every Dis* runs through, and the assemble
// functions there build the one dependency graph per query that both
// decides it and names the sites the decision depends on (touched.go says
// why that set is what a cache may invalidate by).
package core

// Options tunes the evaluation algorithms. The zero value is ready to use.
type Options struct {
	// NoFragmentIndex disables consulting the fragment's own reachability
	// index (fragment.ReachIndex) during local evaluation, forcing the
	// direct frontier-cut BFS. Cross-checks use it to compare the indexed
	// and direct paths on the same deployment.
	NoFragmentIndex bool

	// Cancel, if non-nil, is polled at cooperative checkpoints during local
	// evaluation (between in-node equations and periodically inside the
	// fallback BFS). When it returns true the evaluation abandons its work
	// and returns nil: the coordinator has already answered the query from
	// other sites' partials and broadcast a cancel frame. Must be safe for
	// concurrent use (it is typically an atomic load).
	Cancel func() bool

	// Metrics, if non-nil, receives per-equation counters from the local
	// evaluation: how often the fragment index answered, and why it was
	// bypassed when it was. The struct is written by the single evaluating
	// goroutine with no synchronization; callers wanting aggregates across
	// queries must copy it out per evaluation (the traced query path turns
	// it into the eval span's reachindex outcome).
	Metrics *EvalMetrics
}

// EvalMetrics counts, for one local evaluation, the in-node equations the
// fragment reachability index answered and the ones that had an index
// installed but fell back to BFS anyway — the reachindex outcome tagging
// observability needs to tune index budgets in production.
type EvalMetrics struct {
	IndexedEqs    int64 // answered from the fragment reachability index
	StaleEqs      int64 // BFS because the index entry was invalidated by a mutation
	OverBudgetEqs int64 // BFS because the label budget excluded the entry (or it is undecided mid-rebuild)
}

// cancelled reports whether a cooperative cancellation was requested. Safe
// on a nil receiver so the hot paths need no option-presence checks.
func (o *Options) cancelled() bool { return o != nil && o.Cancel != nil && o.Cancel() }
