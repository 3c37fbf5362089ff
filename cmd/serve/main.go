// Command serve is the query gateway: an HTTP/JSON front end over a
// distributed deployment. It dials the worker sites once, multiplexes all
// HTTP traffic over those connections (many queries in flight at a time),
// and fronts the coordinator with an LRU answer cache so repeat queries
// never touch the wire.
//
// Two deployment modes:
//
//	serve -sites 10.0.0.1:7000,10.0.0.2:7000          # real sites (cmd/site)
//	serve -graph g.txt -k 4                           # self-contained: in-process loopback sites
//
// API:
//
//	GET  /reach?s=0&t=99           qr(s,t)
//	GET  /reachwithin?s=0&t=99&l=6 qbr(s,t,l)
//	GET  /reachregex?s=0&t=99&r=A(B|C)*  qrr(s,t,R) (URL-encode r)
//	POST /batch                    many queries, one wire frame per site
//	POST /update                   live mutations: {"op":"insert","u":0,"v":99}
//	                               or a transactional batch {"ops":[...]} of
//	                               insert|delete|insertnode|deletenode
//	POST /rebalance                live re-fragmentation (zero-downtime epoch switch)
//	GET  /stats                    queries served, cache hits/misses, balance, epoch
//	GET  /metrics                  Prometheus text exposition (same instruments as /stats)
//	GET  /trace/{id}               assembled trace tree of one recent query (?format=text)
//	GET  /traces                   recent traced queries, newest first (?n=)
//	GET  /guarantees               the live auditor's verdict on the paper's bounds
//	POST /flush                    invalidate the answer cache wholesale
//	GET  /healthz                  liveness
//
// The cache has no per-entry expiry. On a static fragmentation answers
// never go stale; under live updates (POST /update) the gateway evicts
// exactly the cached answers whose evaluation touched a dirtied fragment,
// so the rest keep serving hits. POST /flush (or redeploying) still
// invalidates wholesale when the graph is swapped entirely, and a
// rebalance flushes by generation (fragment IDs change meaning across
// epochs).
//
// -timeout applies a per-request deadline to the wire round trips: a
// stalled site turns into a prompt 504 instead of a hung client.
// -maxinflight bounds concurrent requests; excess traffic gets 429 +
// Retry-After instead of queueing. -skew S makes the gateway
// self-rebalancing: every update reply carries the deployment's balance
// stats, and when max/mean fragment size crosses S a background
// re-fragmentation (the coordinator's one strategy, edgecut) restores it.
//
// Anytime answers are always on: the coordinator answers a reach query the
// instant the replies in hand prove it, and the straggler sites are told to
// stop. Every cache miss is answered by its own request's wire round: one
// round per GET, and one per POST /batch for all of its distinct misses.
//
// SIGINT or SIGTERM shuts the gateway down: the HTTP server stops, a
// checkpoint in flight finishes, and the store and the sites close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/graph"
	"distreach/internal/netsite"
	"distreach/internal/oplog"
	"distreach/internal/reachindex"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		sites     = flag.String("sites", "", "comma-separated site addresses (dial a running deployment)")
		graphPath = flag.String("graph", "", "graph file for self-contained mode (format of cmd/gengraph)")
		k         = flag.Int("k", 4, "fragment count (self-contained mode)")
		partition = flag.String("partition", "random", "partitioner: "+strings.Join(fragment.Names(), ", "))
		seed      = flag.Uint64("seed", 1, "partitioner seed")
		cacheCap  = flag.Int("cache", 4096, "answer cache capacity (entries)")
		dialTO    = flag.Duration("dialtimeout", 3*time.Second, "site dial timeout")
		reqTO     = flag.Duration("timeout", 0, "per-request wire deadline (0 = none); expiry returns 504")
		inflight  = flag.Int("maxinflight", 0, "backpressure: max concurrent query/update requests (0 = default 1024); excess gets 429")
		skew      = flag.Float64("skew", 0, "auto-rebalance when max/mean fragment size crosses this (0 = manual /rebalance only; try 2.0)")
		idxBudget = flag.Int64("reachindex-budget", reachindex.DefaultBudget, "self-contained mode: per-fragment reachability index label budget in bytes (0 disables the index)")
		wal       = flag.String("wal", "", "durability: write-ahead log directory; every update batch is sequenced and logged before broadcast, and a restarted gateway resumes the order and replays missed batches to the sites")
		snapEvery = flag.Int("snapshot-every", 256, "with -wal: checkpoint the deployment and truncate the log every N update batches (0 = never)")
		fsync     = flag.String("fsync", "always", "with -wal: fsync policy, always | never")
		trace     = flag.Bool("trace", true, "distributed tracing: query frames carry a trace context, sites report spans, trees land at GET /trace/{id}")
		slowQuery = flag.Duration("slowquery", 0, "with -trace: dump the full trace tree of queries slower than this to stderr (0 = off)")
		pprofOn   = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the gateway listener")
	)
	flag.Parse()

	// Bind the listen address before building the deployment, so a port
	// picked for this process cannot go to the loopback sockets the
	// deployment opens in the meantime.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	var (
		co    *netsite.Coordinator
		owned []*netsite.Site
		rep   *fragment.Replica
	)
	switch {
	case *sites != "":
		co, err = netsite.Dial(strings.Split(*sites, ","), *dialTO)
		if err != nil {
			fatal(err)
		}
	case *graphPath != "":
		var addrs []string
		owned, addrs, rep, err = selfDeploy(*graphPath, *partition, *k, *seed, *idxBudget)
		if err != nil {
			fatal(err)
		}
		co, err = netsite.Dial(addrs, *dialTO)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("serve: self-contained deployment, %d loopback sites\n", len(owned))
	default:
		fmt.Fprintln(os.Stderr, "serve: need -sites (running deployment) or -graph (self-contained)")
		os.Exit(2)
	}
	defer co.Close()
	defer func() {
		for _, s := range owned {
			s.Close()
		}
	}()

	var store *oplog.Store
	if *wal != "" {
		policy, err := oplog.ParseSyncPolicy(*fsync)
		if err != nil {
			fatal(err)
		}
		store, err = oplog.OpenStore(*wal, oplog.LogOptions{Fsync: policy})
		if err != nil {
			fatal(err)
		}
		defer store.Close()
		fmt.Printf("serve: write-ahead log in %s (recovered LSN %d, snapshot LSN %d, fsync %s)\n",
			*wal, store.LastLSN(), store.SnapshotLSN(), *fsync)
	}

	opts := gwOptions{
		cacheCap:    *cacheCap,
		timeout:     *reqTO,
		maxInflight: *inflight,
		skew:        *skew,
		seed:        *seed,
		store:       store,
		snapEvery:   *snapEvery,
		trace:       *trace,
		slowQuery:   *slowQuery,
	}
	if rep != nil {
		opts.idxStats = func() fragment.ReachIndexStats {
			cur, _ := rep.Current()
			return cur.ReachIndexStats()
		}
	}
	gw := newGateway(co, opts)
	if rep != nil {
		// Seed the guarantee auditor's |Vf| and |G| before the first update
		// reply refreshes them.
		if cur, _ := rep.Current(); cur != nil {
			gw.ob.setDeployment(cur.BalanceStats())
		}
	}
	if store != nil {
		// Boot-time recovery: the sites may be behind the write-ahead log
		// (a self-deployed gateway restarts its sites from the original
		// graph file; a batch may have been logged but never broadcast).
		// One catch-up round replays the delta before traffic lands on a
		// stale replica.
		go gw.heal()
	}
	mux := gw.routes()
	if *pprofOn {
		registerPprof(mux)
	}
	fmt.Printf("serve: gateway on http://%s (cache %d entries, request timeout %v, max in-flight %d, skew threshold %.1f)\n",
		*listen, *cacheCap, *reqTO, cap(gw.sem), *skew)
	srv := &http.Server{Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop() // a second signal kills the process as before
		srv.Shutdown(context.Background())
	}()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	gw.Close()
}

// registerPprof mounts the standard profiling endpoints on our own mux
// (the handlers net/http/pprof installs on http.DefaultServeMux, which
// the gateway does not serve).
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// selfDeploy loads the graph, partitions it, enables the per-fragment
// reachability index (budget > 0), and serves every fragment on a loopback
// site inside this process. The returned replica is the handle whose
// current fragmentation /stats reads index counters from; live rebalances
// carry the index budget across the epoch swap.
func selfDeploy(graphPath, partition string, k int, seed uint64, idxBudget int64) ([]*netsite.Site, []string, *fragment.Replica, error) {
	f, err := os.Open(graphPath)
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := graph.Read(f)
	f.Close()
	if err != nil {
		return nil, nil, nil, err
	}
	pt, err := fragment.ByName(partition, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	fr, err := fragment.Partition(g, pt, k)
	if err != nil {
		return nil, nil, nil, err
	}
	if idxBudget > 0 {
		fr.EnableReachIndex(idxBudget)
	}
	rep := fragment.NewReplica(fr)
	sites, addrs, err := netsite.ServeReplica(rep, netsite.SiteOptions{})
	if err != nil {
		return nil, nil, nil, err
	}
	return sites, addrs, rep, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "serve: %v\n", err)
	os.Exit(1)
}
