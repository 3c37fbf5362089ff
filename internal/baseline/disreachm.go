package baseline

import (
	"distreach/internal/cluster"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// DisReachM evaluates qr(s, t) with the message-passing distributed BFS the
// paper describes as disReachm (Section 7), following Pregel [21]:
//
//   - every node carries a status in {inactive, active}, initially inactive;
//   - the source s becomes active and sends "T" to its inactive children,
//     which become active and propagate the message onward;
//   - cross-fragment messages travel through the master and count as visits
//     to the destination site;
//   - the algorithm stops when t becomes active (answer true) or when no
//     message is in flight (answer false).
//
// In contrast to disReach, the number of visits per site is unbounded and
// propagation serializes across supersteps.
func DisReachM(cl *cluster.Cluster, fr *fragment.Fragmentation, s, t graph.NodeID) core.Result {
	run := cl.NewRun()
	if s == t {
		return core.Result{Answer: true, Report: run.Finish()}
	}
	// The master posts the query to every worker first.
	for i := 0; i < fr.Card(); i++ {
		run.Post(i, querySize)
	}
	run.NetPhase(querySize)

	type msg struct{}
	res := Run[bool, msg](run, fr, Config[bool, msg]{
		InitialActive: []graph.NodeID{s},
		DeliverOnce:   true,
		Compute: func(ctx *Context[msg], v graph.NodeID, active *bool, msgs []msg) {
			defer ctx.VoteToHalt()
			if *active {
				return // no active node becomes inactive or re-propagates
			}
			if v != s && len(msgs) == 0 {
				return
			}
			*active = true
			if v == t {
				ctx.Signal()
				return
			}
			ctx.SendToNeighbors(msg{})
		},
	})
	return core.Result{Answer: res.Values[t], Report: run.Finish()}
}
