// Package distreach is a library for evaluating reachability queries on
// distributed graphs with performance guarantees, reproducing
//
//	Wenfei Fan, Xin Wang, Yinghui Wu.
//	"Performance Guarantees for Distributed Reachability Queries."
//	PVLDB 5(11), 2012.
//
// A graph is partitioned into fragments, each hosted by a site; queries are
// evaluated by partial evaluation: every site computes a partial answer on
// its fragment in parallel, as Boolean equations over variables that stand
// for the unknown answers at other sites, and a coordinator assembles and
// solves the resulting equation system. The evaluators guarantee that
//
//   - each site is visited exactly once per query,
//   - total network traffic depends only on the query and the
//     fragmentation (|Vf|), never on the size of the graph, and
//   - the response time is governed by the largest fragment, not by the
//     whole graph.
//
// Three query classes are supported: plain reachability (Reach), bounded
// reachability (ReachWithin), and regular reachability (ReachRegex), plus a
// MapReduce-style execution (ReachRegexMR).
//
// Quick start:
//
//	b := distreach.NewBuilder(3)
//	ann := b.AddNode("CTO")
//	walt := b.AddNode("HR")
//	mark := b.AddNode("FA")
//	b.AddEdge(ann, walt)
//	b.AddEdge(walt, mark)
//	g, _ := b.Build()
//	fr, _ := distreach.PartitionRandom(g, 2, 1)
//	cl := distreach.NewCluster(2, distreach.NetModel{})
//	res := distreach.Reach(cl, fr, ann, mark)
//	fmt.Println(res.Answer) // true
package distreach

import (
	"fmt"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/cluster"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/graph"
	"distreach/internal/mapreduce"
	"distreach/internal/netsite"
	"distreach/internal/rx"
)

// NodeID identifies a node of a Graph.
type NodeID = graph.NodeID

// Graph is an immutable node-labeled directed graph.
type Graph = graph.Graph

// Builder incrementally constructs a Graph.
type Builder = graph.Builder

// NewBuilder returns a graph builder sized for n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// Fragmentation is a partition of a graph into fragments plus the fragment
// graph Gf of cross edges.
type Fragmentation = fragment.Fragmentation

// PartitionRandom partitions g into k balanced fragments uniformly at
// random (the paper's default fragmentation).
func PartitionRandom(g *Graph, k int, seed uint64) (*Fragmentation, error) {
	return fragment.Random(g, k, seed)
}

// PartitionContiguous partitions g into k fragments of consecutive node IDs.
func PartitionContiguous(g *Graph, k int) (*Fragmentation, error) {
	return fragment.Contiguous(g, k)
}

// PartitionEdgeCut partitions g into k fragments with the balance-aware
// greedy edge-cut (LDG) strategy: each node goes to the fragment holding
// most of its neighbors, discounted by how full that fragment is. It
// minimizes both |Fm| and |Vf| — the two parameters of the paper's
// guarantees — and is the strategy live rebalancing uses by default.
func PartitionEdgeCut(g *Graph, k int, seed uint64) (*Fragmentation, error) {
	return fragment.EdgeCut(g, k, seed)
}

// Partitioner chooses node-to-fragment assignments; see the fragment
// package for the built-in strategies and PartitionerByName.
type Partitioner = fragment.Partitioner

// PartitionerByName resolves a partitioner from its textual name
// ("random", "contiguous", "edgecut").
func PartitionerByName(name string, seed uint64) (Partitioner, error) {
	return fragment.ByName(name, seed)
}

// PartitionBy fragments g with an explicit partitioner.
func PartitionBy(g *Graph, p Partitioner, k int) (*Fragmentation, error) {
	return fragment.Partition(g, p, k)
}

// BalanceStats summarizes a fragmentation's health: largest/mean fragment
// size (local work), |Vf| and cross edges (network traffic), and the Skew
// that triggers rebalancing. Obtain it from Fragmentation.BalanceStats or
// from every live-update reply.
type BalanceStats = fragment.BalanceStats

// Op is one mutation of a transactional update batch: an edge insert or
// delete, a node insert, or a node delete.
type Op = fragment.Op

// The mutation kinds of Op.
const (
	OpInsertEdge = fragment.OpInsertEdge
	OpDeleteEdge = fragment.OpDeleteEdge
	OpInsertNode = fragment.OpInsertNode
	OpDeleteNode = fragment.OpDeleteNode
)

// PartitionWith builds a fragmentation from an explicit node-to-fragment
// assignment (assign[v] in [0, k) is the site storing node v). The paper
// places no constraints on fragmentations, so any assignment is legal.
func PartitionWith(g *Graph, assign []int, k int) (*Fragmentation, error) {
	return fragment.Build(g, assign, k)
}

// NetModel describes the simulated interconnect used for modeled network
// time: per-message latency plus bandwidth. The zero value models a free
// network (pure compute measurements).
type NetModel = cluster.NetModel

// Cluster describes a deployment of one site per fragment.
type Cluster = cluster.Cluster

// NewCluster returns a cluster of k sites with the given interconnect.
func NewCluster(k int, net NetModel) *Cluster { return cluster.New(k, net) }

// Report carries the per-query accounting: visits per site, bytes shipped,
// message and round counts, and response time.
type Report = cluster.Report

// Result is the outcome of a Boolean evaluation.
type Result = core.Result

// DistResult is the outcome of a bounded-reachability evaluation.
type DistResult = core.DistResult

// Automaton is a compiled query automaton Gq(R).
type Automaton = automaton.Automaton

// CompileRegex parses a regular expression (labels, concatenation by
// juxtaposition, '|', '*', '+', '?', '_' wildcard, '()' for ε) and builds
// its query automaton.
func CompileRegex(expr string) (*Automaton, error) {
	ast, err := rx.Parse(expr)
	if err != nil {
		return nil, fmt.Errorf("distreach: %w", err)
	}
	return automaton.FromRegex(ast), nil
}

// Reach evaluates the reachability query qr(s, t): can s reach t?
// It runs algorithm disReach: one visit per site, O(|Vf|²) traffic.
func Reach(cl *Cluster, fr *Fragmentation, s, t NodeID) Result {
	return core.DisReach(cl, fr, s, t)
}

// ReachWithin evaluates the bounded reachability query qbr(s, t, l): is
// dist(s, t) <= l? It runs algorithm disDist with the same guarantees as
// Reach.
func ReachWithin(cl *Cluster, fr *Fragmentation, s, t NodeID, l int) DistResult {
	return core.DisDist(cl, fr, s, t, l)
}

// ReachRegex evaluates the regular reachability query qrr(s, t, R): is
// there a path from s to t whose label is in L(R)? It runs algorithm
// disRPQ: one visit per site, O(|R|²·|Vf|²) traffic.
func ReachRegex(cl *Cluster, fr *Fragmentation, s, t NodeID, a *Automaton) Result {
	return core.DisRPQ(cl, fr, s, t, a)
}

// ReachRegexExpr is ReachRegex for a textual regular expression.
func ReachRegexExpr(cl *Cluster, fr *Fragmentation, s, t NodeID, expr string) (Result, error) {
	a, err := CompileRegex(expr)
	if err != nil {
		return Result{}, err
	}
	return ReachRegex(cl, fr, s, t, a), nil
}

// Coalesce places multiple fragments on fewer sites (placement[i] is the
// site of fragment i), merging co-located fragments: the paper's remark
// that "multiple fragments may reside in a single site". Cross edges
// between co-located fragments become internal, shrinking |Vf|.
func Coalesce(fr *Fragmentation, placement []int, sites int) (*Fragmentation, error) {
	return fragment.Coalesce(fr, placement, sites)
}

// MRStats is the MapReduce cost accounting (ECC per Afrati-Ullman).
type MRStats = mapreduce.Stats

// ReachMR evaluates qr(s, t) with the MapReduce adaptation of disReach.
func ReachMR(g *Graph, s, t NodeID, mappers int) (bool, MRStats, error) {
	return mapreduce.MRdReach(g, s, t, mappers)
}

// ReachWithinMR evaluates qbr(s, t, l) with the MapReduce adaptation of
// disDist; it returns the answer and the exact distance when within l.
func ReachWithinMR(g *Graph, s, t NodeID, l, mappers int) (bool, int64, MRStats, error) {
	return mapreduce.MRdDist(g, s, t, l, mappers)
}

// SiteServer serves one fragment over TCP (a real worker site).
type SiteServer = netsite.Site

// Coordinator evaluates queries against running TCP sites.
type Coordinator = netsite.Coordinator

// WireStats is the on-the-wire accounting of one TCP query round.
type WireStats = netsite.WireStats

// Serve starts one TCP site per fragment on loopback ports; callers must
// Close every returned site. Use ListenSiteFor for explicit addresses.
func Serve(fr *Fragmentation) ([]*SiteServer, []string, error) {
	return netsite.ServeFragmentation(fr)
}

// ListenSiteFor serves fragment fragID of fr on the given TCP address,
// keeping fr as the site's replica of the deployment so broadcast edge
// updates (Coordinator.Update) can be applied.
func ListenSiteFor(addr string, fr *Fragmentation, fragID int) (*SiteServer, error) {
	return netsite.NewSiteFor(addr, fr, fragID, netsite.SiteOptions{})
}

// DialSites connects a coordinator to running sites.
func DialSites(addrs []string, timeout time.Duration) (*Coordinator, error) {
	return netsite.Dial(addrs, timeout)
}

// UpdateOp selects the edge operation of a live update: UpdateInsert or
// UpdateDelete.
type UpdateOp = netsite.UpdateOp

// The two edge operations of Coordinator.Update.
const (
	UpdateInsert = netsite.UpdateInsert
	UpdateDelete = netsite.UpdateDelete
)

// UpdateResult reports the effect of one live update batch: whether the
// graph changed, which fragments were dirtied, the IDs of inserted nodes,
// and the post-update balance stats.
type UpdateResult = netsite.UpdateResult

// RebalanceResult reports the outcome of a live re-fragmentation
// (Coordinator.Rebalance): the epoch reached and the new balance.
type RebalanceResult = netsite.RebalanceResult

// ReachRegexMR evaluates qrr(s, t, R) with the MapReduce algorithm MRdRPQ:
// the graph is partitioned into `mappers` fragments, each mapper runs local
// evaluation, and a single reducer assembles the answer.
func ReachRegexMR(g *Graph, s, t NodeID, a *Automaton, mappers int) (bool, MRStats, error) {
	res, err := mapreduce.MRdRPQ(g, s, t, a, mappers)
	if err != nil {
		return false, MRStats{}, err
	}
	return res.Answer, res.Stats, nil
}
