// Command disreach evaluates (bounded, regular) reachability queries on a
// graph file, simulating a distributed deployment: the graph is partitioned
// into fragments, one site per fragment, and the query is evaluated by
// partial evaluation with the paper's performance guarantees. It prints the
// answer together with the accounting (visits per site, traffic, response
// time) and, for comparison, can run the message-passing and ship-all
// baselines.
//
// Usage:
//
//	gengraph -dataset Youtube > g.txt
//	disreach -graph g.txt -k 8 -s 0 -t 99                 # reachability
//	disreach -graph g.txt -k 8 -s 0 -t 99 -l 6            # bounded
//	disreach -graph g.txt -k 8 -s 0 -t 99 -r "L0 (L1|L2)*" # regular
//	disreach -graph g.txt -k 8 -s 0 -t 99 -compare
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"distreach"
	"distreach/internal/baseline"
	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/graph"
)

func main() {
	var (
		path      = flag.String("graph", "", "graph file (format of cmd/gengraph)")
		k         = flag.Int("k", 4, "number of fragments / sites")
		s         = flag.Int("s", 0, "source node")
		t         = flag.Int("t", 1, "target node")
		l         = flag.Int("l", -1, "distance bound (>= 0 enables bounded reachability)")
		re        = flag.String("r", "", "regular expression (enables regular reachability)")
		partition = flag.String("partition", "random", "partitioner: random, hash, contiguous, greedy or edgecut")
		seed      = flag.Uint64("seed", 1, "partitioner seed")
		compare   = flag.Bool("compare", false, "also run the baseline algorithms")
		latency   = flag.Duration("latency", 500*time.Microsecond, "modeled per-message latency")
		bandwidth = flag.Float64("bandwidth", 125e6, "modeled link bandwidth in bytes/s (0 = infinite)")
	)
	flag.Parse()
	if *path == "" {
		fmt.Fprintln(os.Stderr, "disreach: -graph is required")
		os.Exit(2)
	}
	f, err := os.Open(*path)
	if err != nil {
		fatal(err)
	}
	g, err := graph.Read(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if *s < 0 || *s >= g.NumNodes() || *t < 0 || *t >= g.NumNodes() {
		fatal(fmt.Errorf("endpoints (%d,%d) out of range [0,%d)", *s, *t, g.NumNodes()))
	}

	pt, err := fragment.ByName(*partition, *seed)
	if err != nil {
		fatal(err)
	}
	fr, err := fragment.Partition(g, pt, *k)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: %v\nfragmentation: %v\n", g, fr)

	net := cluster.NetModel{Latency: *latency, BytesPerSecond: *bandwidth}
	cl := distreach.NewCluster(*k, net)
	src, dst := graph.NodeID(*s), graph.NodeID(*t)

	switch {
	case *re != "":
		a, err := distreach.CompileRegex(*re)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("query: qrr(%d, %d, %s)  (|Vq|=%d, |Eq|=%d)\n", src, dst, *re, a.NumStates(), a.NumTransitions())
		res := distreach.ReachRegex(cl, fr, src, dst, a)
		printReport("disRPQ", res.Answer, res.Report)
		if *compare {
			r := baseline.DisRPQD(cl, fr, src, dst, a)
			printReport("disRPQd", r.Answer, r.Report)
			r = baseline.DisRPQN(cl, fr, src, dst, a)
			printReport("disRPQn", r.Answer, r.Report)
		}
	case *l >= 0:
		fmt.Printf("query: qbr(%d, %d, %d)\n", src, dst, *l)
		res := distreach.ReachWithin(cl, fr, src, dst, *l)
		printReport("disDist", res.Answer, res.Report)
		if res.Answer {
			fmt.Printf("  dist(s,t) = %d\n", res.Distance)
		}
		if *compare {
			r := baseline.DisDistN(cl, fr, src, dst, *l)
			printReport("disDistn", r.Answer, r.Report)
		}
	default:
		fmt.Printf("query: qr(%d, %d)\n", src, dst)
		res := distreach.Reach(cl, fr, src, dst)
		printReport("disReach", res.Answer, res.Report)
		if *compare {
			r := baseline.DisReachN(cl, fr, src, dst)
			printReport("disReachn", r.Answer, r.Report)
			r2 := baseline.DisReachM(cl, fr, src, dst)
			printReport("disReachm", r2.Answer, r2.Report)
		}
	}
}

func printReport(name string, answer bool, rep distreach.Report) {
	fmt.Printf("%-9s answer=%-5v visits=%d (max/site %d)  traffic=%dB  msgs=%d  response=%v\n",
		name, answer, rep.TotalVisits, rep.MaxVisits, rep.Bytes, rep.Messages,
		rep.Response.Round(time.Microsecond))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "disreach: %v\n", err)
	os.Exit(1)
}
