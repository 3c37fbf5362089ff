// Command disreach evaluates (bounded, regular) reachability queries on a
// graph file by partial evaluation with the paper's performance
// guarantees. By default it simulates the deployment: the graph is
// partitioned into fragments, one site per fragment, and the answer is
// printed with the accounting (visits per site, traffic, response time)
// and, with -compare, the message-passing and ship-all baselines. Two
// more modes drive a real deployment of cmd/site processes:
//
//   - -writeassign a.txt partitions the graph, writes the assignment file
//     the sites load, and exits;
//   - -sites addr1,addr2,... evaluates the query over TCP against running
//     sites and prints the answer with the wire accounting.
//
// Usage:
//
//	gengraph -dataset Youtube > g.txt
//	disreach -graph g.txt -k 8 -s 0 -t 99                 # reachability
//	disreach -graph g.txt -k 8 -s 0 -t 99 -l 6            # bounded
//	disreach -graph g.txt -k 8 -s 0 -t 99 -r "L0 (L1|L2)*" # regular
//	disreach -graph g.txt -k 8 -s 0 -t 99 -compare
//	disreach -graph g.txt -k 3 -writeassign a.txt
//	disreach -graph g.txt -sites 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -s 0 -t 99
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"distreach"
	"distreach/internal/baseline"
	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/graph"
	"distreach/internal/netsite"
)

// dialTimeout bounds the connection attempt to each site in -sites mode.
const dialTimeout = 3 * time.Second

func main() {
	var (
		path      = flag.String("graph", "", "graph file (format of cmd/gengraph)")
		k         = flag.Int("k", 4, "number of fragments / sites (ignored with -sites)")
		s         = flag.Int("s", 0, "source node")
		t         = flag.Int("t", 1, "target node")
		l         = flag.Int("l", -1, "distance bound (>= 0 enables bounded reachability)")
		re        = flag.String("r", "", "regular expression (enables regular reachability)")
		partition = flag.String("partition", "random", "partitioner: "+strings.Join(fragment.Names(), ", "))
		seed      = flag.Uint64("seed", 1, "partitioner seed")
		assignOut = flag.String("writeassign", "", "write the assignment file for cmd/site and exit")
		sites     = flag.String("sites", "", "comma-separated cmd/site addresses: run the query over TCP instead of simulating")
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
	partitioned := func() *fragment.Fragmentation {
		pt, err := fragment.ByName(*partition, *seed)
		if err != nil {
			fatal(err)
		}
		fr, err := fragment.Partition(g, pt, *k)
		if err != nil {
			fatal(err)
		}
		return fr
	}
	if *assignOut != "" {
		fr := partitioned()
		if err := writeAssignment(*assignOut, fr); err != nil {
			fatal(err)
		}
		fmt.Printf("disreach: wrote %v to %s\n", fr, *assignOut)
		return
	}
	if *s < 0 || *s >= g.NumNodes() || *t < 0 || *t >= g.NumNodes() {
		fatal(fmt.Errorf("endpoints (%d,%d) out of range [0,%d)", *s, *t, g.NumNodes()))
	}
	src, dst := graph.NodeID(*s), graph.NodeID(*t)
	if *sites != "" {
		if err := queryWire(strings.Split(*sites, ","), src, dst, *l, *re); err != nil {
			fatal(err)
		}
		return
	}

	fr := partitioned()
	fmt.Printf("graph: %v\nfragmentation: %v\n", g, fr)

	net := cluster.NetModel{Latency: *latency, BytesPerSecond: *bandwidth}
	cl := distreach.NewCluster(*k, net)

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

// writeAssignment writes fr's node-to-fragment assignment where cmd/site
// -assign reads it.
func writeAssignment(path string, fr *fragment.Fragmentation) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fragment.Write(out, fr); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// queryWire evaluates the query against running sites and prints the
// answer with the wire accounting.
func queryWire(addrs []string, src, dst graph.NodeID, l int, re string) error {
	co, err := netsite.Dial(addrs, dialTimeout)
	if err != nil {
		return err
	}
	defer co.Close()
	var st netsite.WireStats
	switch {
	case re != "":
		a, err := distreach.CompileRegex(re)
		if err != nil {
			return err
		}
		var ans bool
		if ans, st, err = co.ReachRegex(src, dst, a); err != nil {
			return err
		}
		fmt.Printf("qrr(%d, %d, %s) = %v\n", src, dst, re, ans)
	case l >= 0:
		ans, dist, wst, err := co.ReachWithin(src, dst, l)
		if err != nil {
			return err
		}
		st = wst
		fmt.Printf("qbr(%d, %d, %d) = %v", src, dst, l, ans)
		if ans {
			fmt.Printf(" (dist = %d)", dist)
		}
		fmt.Println()
	default:
		var ans bool
		if ans, st, err = co.Reach(src, dst); err != nil {
			return err
		}
		fmt.Printf("qr(%d, %d) = %v\n", src, dst, ans)
	}
	// One request and one reply per site is the paper's visit bound; more
	// means the round straddled a rebalance or an update and retried, fewer
	// replies that the ones in hand decided it early. A one-shot
	// coordinator holds no boundary rows, so every site that answered a
	// reach query shipped its own.
	fmt.Printf("  sites: %d  frames sent: %d  received: %d  shipped rows: %d  sent: %dB  received: %dB  round trip: %v\n",
		len(addrs), st.FramesSent, st.FramesReceived, st.RowsReplies, st.BytesSent, st.BytesReceived, st.RoundTrip.Round(time.Microsecond))
	return nil
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
