// Command site runs one worker site of a real distributed deployment: it
// loads a graph and a fragmentation assignment, takes ownership of one
// fragment, and serves partial-evaluation requests over TCP. Pair it with
// cmd/disreach:
//
//	gengraph -dataset Youtube > g.txt
//	# partition once, shared by all sites
//	disreach -graph g.txt -k 3 -writeassign a.txt
//	site -graph g.txt -assign a.txt -fragment 0 -listen 127.0.0.1:7000 &
//	site -graph g.txt -assign a.txt -fragment 1 -listen 127.0.0.1:7001 &
//	site -graph g.txt -assign a.txt -fragment 2 -listen 127.0.0.1:7002 &
//	disreach -graph g.txt -sites 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -s 0 -t 99
//
// With -wal DIR the site is durable: every applied update batch is
// appended to a segmented CRC-framed log, a checkpoint is written every
// -snapshot-every batches (truncating the log behind it), and a restarted
// site recovers from snapshot+log instead of the original files — it
// rejoins the deployment trailing only what it missed while down, which
// the gateway's catch-up replication streams over automatically.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"

	"distreach/internal/fragment"
	"distreach/internal/graph"
	"distreach/internal/netsite"
	"distreach/internal/obs"
	"distreach/internal/oplog"
	"distreach/internal/reachindex"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "graph file (format of cmd/gengraph)")
		assignPath = flag.String("assign", "", "fragmentation assignment file (written by disreach -writeassign)")
		fragID     = flag.Int("fragment", 0, "index of the fragment this site owns")
		listen     = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		wal        = flag.String("wal", "", "durability: log/snapshot directory; applied batches are logged and a restart recovers from snapshot+log")
		snapEvery  = flag.Int("snapshot-every", 256, "with -wal: checkpoint and truncate the log every N applied batches (0 = never)")
		fsync      = flag.String("fsync", "always", "with -wal: fsync policy, always | never")
		idxBudget  = flag.Int64("reachindex-budget", reachindex.DefaultBudget, "per-fragment reachability index label budget in bytes (0 disables the index)")
		metrics    = flag.String("metrics", "", "HTTP listen address for GET /metrics (Prometheus text exposition); empty = off")
		pprofOn    = flag.Bool("pprof", false, "with -metrics: also serve net/http/pprof under /debug/pprof/")
	)
	flag.Parse()
	if *graphPath == "" || *assignPath == "" {
		fmt.Fprintln(os.Stderr, "site: -graph and -assign are required")
		os.Exit(2)
	}
	g, err := loadGraph(*graphPath)
	if err != nil {
		fatal(err)
	}
	af, err := os.Open(*assignPath)
	if err != nil {
		fatal(err)
	}
	fr, err := fragment.Read(af, g)
	af.Close()
	if err != nil {
		fatal(err)
	}
	if *fragID < 0 || *fragID >= fr.Card() {
		fatal(fmt.Errorf("fragment %d out of range [0,%d)", *fragID, fr.Card()))
	}

	// The site keeps the whole fragmentation as its replica of the
	// deployment (it loaded the full graph and assignment anyway), which
	// lets it apply broadcast update frames and report which fragments
	// they dirtied. With -wal, the replica recovers from the store — the
	// newest snapshot plus the log suffix — rather than serving the
	// original (possibly stale) files.
	rep := fragment.NewReplica(fr)
	opts := netsite.SiteOptions{}
	if *metrics != "" {
		reg := obs.NewRegistry()
		opts.Metrics = reg
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		go func() {
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				fmt.Fprintf(os.Stderr, "site: metrics listener: %v\n", err)
			}
		}()
		fmt.Printf("site: metrics on http://%s/metrics\n", *metrics)
	} else if *pprofOn {
		fmt.Fprintln(os.Stderr, "site: -pprof needs -metrics for the HTTP listener")
		os.Exit(2)
	}
	if *wal != "" {
		policy, err := oplog.ParseSyncPolicy(*fsync)
		if err != nil {
			fatal(err)
		}
		store, err := oplog.OpenStore(*wal, oplog.LogOptions{Fsync: policy})
		if err != nil {
			fatal(err)
		}
		defer store.Close()
		rep, err = oplog.Recover(store, fr)
		if err != nil {
			fatal(err)
		}
		opts.Store = store
		opts.SnapshotEvery = *snapEvery
		_, epoch, lsn := rep.State()
		fmt.Printf("site: recovered from %s at LSN %d, epoch %d (snapshot LSN %d)\n",
			*wal, lsn, epoch, store.SnapshotLSN())
	}
	cur, _, _ := rep.State()
	if *fragID >= cur.Card() {
		fatal(fmt.Errorf("fragment %d out of range [0,%d) after recovery", *fragID, cur.Card()))
	}
	if *idxBudget > 0 {
		// The index is built from the recovered state, never restored:
		// queries fall back to direct evaluation until each fragment's
		// build lands.
		cur.EnableReachIndex(*idxBudget)
		fmt.Printf("site: reachability index on (budget %d)\n", *idxBudget)
	}
	f := cur.Fragments()[*fragID]
	s, err := netsite.NewSiteReplica(*listen, rep, *fragID, opts)
	if err != nil {
		fatal(err)
	}
	s.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "site: "+format+"\n", args...)
	}
	fmt.Printf("site: serving fragment %d (|V|=%d, |O|=%d, |I|=%d) on %s\n",
		*fragID, f.NumLocal(), f.NumVirtual(), len(f.InNodes()), s.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("site: shutting down")
	s.Close()
}

func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(f)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "site: %v\n", err)
	os.Exit(1)
}
