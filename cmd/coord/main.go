// Command coord is the coordinator of a real distributed deployment (see
// cmd/site). It has two modes:
//
//   - partitioning: -k N -writeassign a.txt computes a fragmentation of the
//     graph and writes the assignment file the sites load;
//   - querying: -sites addr1,addr2,... evaluates qr / qbr / qrr against
//     running sites and prints the answer with the wire accounting.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"distreach"
	"distreach/internal/fragment"
	"distreach/internal/graph"
	"distreach/internal/netsite"
)

func main() {
	var (
		graphPath   = flag.String("graph", "", "graph file (format of cmd/gengraph)")
		k           = flag.Int("k", 4, "fragment count (partitioning mode)")
		seed        = flag.Uint64("seed", 1, "partitioner seed")
		partition   = flag.String("partition", "random", "partitioner: random, hash, contiguous, greedy or edgecut")
		writeAssign = flag.String("writeassign", "", "write the assignment file and exit")
		sites       = flag.String("sites", "", "comma-separated site addresses (query mode)")
		s           = flag.Int("s", 0, "source node")
		t           = flag.Int("t", 1, "target node")
		l           = flag.Int("l", -1, "distance bound (>= 0 enables bounded reachability)")
		re          = flag.String("r", "", "regular expression (enables regular reachability)")
		timeout     = flag.Duration("timeout", 3*time.Second, "dial timeout")
	)
	flag.Parse()
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "coord: -graph is required")
		os.Exit(2)
	}
	gf, err := os.Open(*graphPath)
	if err != nil {
		fatal(err)
	}
	g, err := graph.Read(gf)
	gf.Close()
	if err != nil {
		fatal(err)
	}

	if *writeAssign != "" {
		pt, err := fragment.ByName(*partition, *seed)
		if err != nil {
			fatal(err)
		}
		fr, err := fragment.Partition(g, pt, *k)
		if err != nil {
			fatal(err)
		}
		out, err := os.Create(*writeAssign)
		if err != nil {
			fatal(err)
		}
		if err := fragment.Write(out, fr); err != nil {
			fatal(err)
		}
		if err := out.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("coord: wrote %v to %s\n", fr, *writeAssign)
		return
	}

	if *sites == "" {
		fmt.Fprintln(os.Stderr, "coord: need -sites (query mode) or -writeassign (partition mode)")
		os.Exit(2)
	}
	addrs := strings.Split(*sites, ",")
	co, err := netsite.Dial(addrs, *timeout)
	if err != nil {
		fatal(err)
	}
	defer co.Close()
	src, dst := graph.NodeID(*s), graph.NodeID(*t)

	switch {
	case *re != "":
		a, err := distreach.CompileRegex(*re)
		if err != nil {
			fatal(err)
		}
		ans, st, err := co.ReachRegex(src, dst, a)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("qrr(%d, %d, %s) = %v\n", src, dst, *re, ans)
		printStats(st, len(addrs))
	case *l >= 0:
		ans, dist, st, err := co.ReachWithin(src, dst, *l)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("qbr(%d, %d, %d) = %v", src, dst, *l, ans)
		if ans {
			fmt.Printf(" (dist = %d)", dist)
		}
		fmt.Println()
		printStats(st, len(addrs))
	default:
		ans, st, err := co.Reach(src, dst)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("qr(%d, %d) = %v\n", src, dst, ans)
		printStats(st, len(addrs))
	}
}

func printStats(st netsite.WireStats, sites int) {
	fmt.Printf("  sites: %d (one visit each)  sent: %dB  received: %dB  round trip: %v\n",
		sites, st.BytesSent, st.BytesReceived, st.RoundTrip.Round(time.Microsecond))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "coord: %v\n", err)
	os.Exit(1)
}
