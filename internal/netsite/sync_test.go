package netsite

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/oplog"
)

// distDeployment is the separate-process deployment shape: every site owns
// an independent Replica over its own clone of the graph, so nothing is
// shared behind the wire's back — exactly what cmd/site processes look
// like.
type distDeployment struct {
	reps  []*fragment.Replica
	sites []*Site
	addrs []string
}

func deployIndependent(t *testing.T, g *graph.Graph, assign []int, k int, opts func(i int) SiteOptions) *distDeployment {
	t.Helper()
	d := &distDeployment{}
	for i := 0; i < k; i++ {
		fr, err := fragment.Build(g.Clone(), assign, k)
		if err != nil {
			t.Fatal(err)
		}
		rep := fragment.NewReplica(fr)
		o := SiteOptions{}
		if opts != nil {
			o = opts(i)
		}
		site, err := NewSiteReplica("127.0.0.1:0", rep, i, o)
		if err != nil {
			t.Fatal(err)
		}
		d.reps = append(d.reps, rep)
		d.sites = append(d.sites, site)
		d.addrs = append(d.addrs, site.Addr())
	}
	t.Cleanup(func() {
		for _, s := range d.sites {
			s.Close()
		}
	})
	return d
}

func (d *distDeployment) fingerprints() []uint64 {
	fps := make([]uint64, len(d.reps))
	for i, r := range d.reps {
		fr, _, _ := r.State()
		fps[i] = fr.Fingerprint()
	}
	return fps
}

// TestSiteCatchUpAfterRestart is the acceptance check for the durable
// oplog subsystem, randomized over ~50 graphs: a durable site is killed
// mid-churn, updates keep applying to the surviving replicas (the batch is
// sequenced and write-ahead logged, the dead site is reported as a
// laggard), the site restarts from its own snapshot+log — NOT from the
// current deployment state — and catch-up replication streams exactly the
// missed delta. Queries racing the recovery may fail (the LSN tag splits
// the round) but must never return a wrong answer; after the sync every
// replica reports the same fingerprint and every answer matches the BFS
// oracle on the churned graph.
func TestSiteCatchUpAfterRestart(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := gen.NewRNG(411)
	for trial := 0; trial < 50; trial++ {
		n := 12 + rng.Intn(60)
		e := n + rng.Intn(3*n)
		seed := uint64(7000 + trial)
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = gen.Uniform(gen.Config{Nodes: n, Edges: e, Labels: labels, Seed: seed})
		case 1:
			g = gen.PowerLaw(gen.Config{Nodes: n, Edges: e, Labels: labels, Seed: seed})
		case 2:
			g = gen.Layered(2+rng.Intn(4), 3+rng.Intn(6), 0.3, labels, seed)
		}
		nn := g.NumNodes()
		k := 2 + rng.Intn(3)
		frTmp, err := fragment.Random(g.Clone(), k, seed)
		if err != nil {
			t.Fatal(err)
		}
		assign := make([]int, nn)
		for v := range assign {
			assign[v] = frTmp.Owner(graph.NodeID(v))
		}
		victim := k - 1
		victimDir := t.TempDir()
		victimStore, err := oplog.OpenStore(victimDir, oplog.LogOptions{Fsync: oplog.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		d := deployIndependent(t, g, assign, k, func(i int) SiteOptions {
			if i == victim {
				return SiteOptions{Store: victimStore, SnapshotEvery: 3}
			}
			return SiteOptions{}
		})
		// The gateway side: a durable sequencer whose write-ahead log is the
		// replay source.
		gwStore, err := oplog.OpenStore(t.TempDir(), oplog.LogOptions{Fsync: oplog.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		seq := oplog.NewDurableSequencer(gwStore)
		co, err := Dial(d.addrs, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		co.UseSequencer(seq)

		mirror := g.Clone() // the always-up oracle, fed the same mutations
		churn := func(steps int, expectMissed bool) {
			for s := 0; s < steps; s++ {
				var op Op
				if rng.Intn(4) == 0 {
					op = Op{Kind: OpDeleteEdge, U: graph.NodeID(rng.Intn(nn)), V: graph.NodeID(rng.Intn(nn))}
				} else {
					op = Op{Kind: OpInsertEdge, U: graph.NodeID(rng.Intn(nn)), V: graph.NodeID(rng.Intn(nn))}
				}
				res, _, err := co.Apply([]Op{op})
				if err != nil {
					t.Fatalf("trial %d churn: %v", trial, err)
				}
				if expectMissed && len(res.Missed) != 1 {
					t.Fatalf("trial %d: update with a dead site reported missed=%v, want [%d]", trial, res.Missed, victim)
				}
				if op.Kind == OpInsertEdge {
					mirror.InsertEdge(op.U, op.V)
				} else {
					mirror.DeleteEdge(op.U, op.V)
				}
			}
		}
		churn(6, false)
		preKill := seq.LSN()
		d.sites[victim].Close() // crash: in-memory state gone
		churn(6, true)          // the deployment keeps accepting writes

		// Restart from durable state: the base files are the ORIGINAL graph
		// and assignment (what a site loads from disk); snapshot+log bring it
		// to where it crashed, not further.
		baseFr, err := fragment.Build(g.Clone(), assign, k)
		if err != nil {
			t.Fatal(err)
		}
		recovered, err := oplog.Recover(victimStore, baseFr)
		if err != nil {
			t.Fatalf("trial %d: recovery: %v", trial, err)
		}
		if got := recovered.LSN(); got != preKill {
			t.Fatalf("trial %d: recovered at LSN %d, want %d (crash point)", trial, got, preKill)
		}
		site2, err := NewSiteReplica("127.0.0.1:0", recovered, victim, SiteOptions{Store: victimStore, SnapshotEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		d.sites[victim] = site2
		d.reps[victim] = recovered
		addrs2 := append([]string(nil), d.addrs...)
		addrs2[victim] = site2.Addr()
		co.Close()
		co2, err := Dial(addrs2, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		co2.UseSequencer(seq)

		// Queries race the recovery: failures are allowed (the round's LSN
		// tag refuses to mix stale and fresh partials), wrong answers are
		// not.
		var wrong atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				qrng := gen.NewRNG(seed)
				for {
					select {
					case <-stop:
						return
					default:
					}
					s, tt := graph.NodeID(qrng.Intn(nn)), graph.NodeID(qrng.Intn(nn))
					got, _, err := co2.Reach(s, tt)
					if err != nil {
						continue // unavailability during recovery is legal
					}
					if got != mirror.Reachable(s, tt) {
						wrong.Add(1)
						return
					}
				}
			}(uint64(500 + trial*2 + w))
		}

		rep, err := co2.SyncReplicas(context.Background(), SyncOptions{
			Log: gwStore.Log(),
			Snapshot: func() (*oplog.Snapshot, bool) {
				s, ok, err := gwStore.LoadSnapshot()
				return s, ok && err == nil
			},
			Seed: seed,
		})
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("trial %d: sync: %v", trial, err)
		}
		if wrong.Load() != 0 {
			t.Fatalf("trial %d: %d wrong answers served during recovery", trial, wrong.Load())
		}
		if rep.LSN != seq.LSN() {
			t.Fatalf("trial %d: sync ended at LSN %d, sequencer at %d", trial, rep.LSN, seq.LSN())
		}
		if rep.Replayed == 0 {
			t.Fatalf("trial %d: catch-up replayed nothing for a site %d batches behind", trial, seq.LSN()-preKill)
		}
		fps := d.fingerprints()
		for i, fp := range fps {
			if fp != fps[0] {
				t.Fatalf("trial %d: replica %d fingerprint differs after catch-up (%x vs %x)", trial, i, fp, fps[0])
			}
		}
		// Quiescent: every answer matches the oracle on the churned graph.
		for q := 0; q < 8; q++ {
			s, tt := graph.NodeID(rng.Intn(nn)), graph.NodeID(rng.Intn(nn))
			got, st, err := co2.Reach(s, tt)
			if err != nil {
				t.Fatalf("trial %d post-sync: %v", trial, err)
			}
			if want := mirror.Reachable(s, tt); got != want {
				t.Fatalf("trial %d post-sync: qr(%d,%d) = %v, oracle %v", trial, s, tt, got, want)
			}
			if s != tt && st.LSN != rep.LSN {
				t.Fatalf("trial %d post-sync: answer from LSN %d, want %d", trial, st.LSN, rep.LSN)
			}
		}
		co2.Close()
		victimStore.Close()
		gwStore.Close()
	}
}

// TestTwoGatewaysConverge: two gateways (coordinators) submit interleaved
// update batches concurrently through ONE shared sequencer — the
// configuration the sequencer exists for. Every replica (independent per
// site) must converge to the identical fingerprint, the LSN must account
// for every batch exactly once, and both writers' node inserts must land.
func TestTwoGatewaysConverge(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 80, Edges: 320, Labels: []string{"A", "B"}, Seed: 421})
	assign := make([]int, 80)
	for v := range assign {
		assign[v] = v % 3
	}
	d := deployIndependent(t, g, assign, 3, nil)
	seq := oplog.NewSequencer(0)
	coA, err := Dial(d.addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer coA.Close()
	coB, err := Dial(d.addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer coB.Close()
	coA.UseSequencer(seq)
	coB.UseSequencer(seq)

	const perWriter = 30
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for w, co := range []*Coordinator{coA, coB} {
		wg.Add(1)
		go func(w int, co *Coordinator) {
			defer wg.Done()
			rng := gen.NewRNG(uint64(600 + w))
			for i := 0; i < perWriter; i++ {
				var ops []Op
				switch i % 3 {
				case 0:
					ops = []Op{{Kind: OpInsertEdge, U: graph.NodeID(rng.Intn(80)), V: graph.NodeID(rng.Intn(80))}}
				case 1:
					ops = []Op{{Kind: OpInsertNode, Label: fmt.Sprintf("W%d", w), Frag: -1}}
				case 2:
					ops = []Op{
						{Kind: OpDeleteEdge, U: graph.NodeID(rng.Intn(80)), V: graph.NodeID(rng.Intn(80))},
						{Kind: OpInsertEdge, U: graph.NodeID(rng.Intn(80)), V: graph.NodeID(rng.Intn(80))},
					}
				}
				if _, _, err := co.Apply(ops); err != nil {
					errc <- fmt.Errorf("writer %d batch %d: %w", w, i, err)
					return
				}
			}
		}(w, co)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if got := seq.LSN(); got != 2*perWriter {
		t.Fatalf("sequencer at %d after %d batches", got, 2*perWriter)
	}
	fps := d.fingerprints()
	for i, fp := range fps {
		if fp != fps[0] {
			t.Fatalf("replica %d diverged under concurrent writers (%x vs %x)", i, fp, fps[0])
		}
	}
	for i, rep := range d.reps {
		if got := rep.LSN(); got != 2*perWriter {
			t.Fatalf("replica %d at LSN %d, want %d", i, got, 2*perWriter)
		}
	}
	// Both writers' node inserts landed: 80 originals + 2*perWriter/3-ish
	// inserts, identical on every replica.
	fr0, _, _ := d.reps[0].State()
	want := fr0.Graph().NumLive()
	if want <= 80 {
		t.Fatalf("no node inserts landed (%d live nodes)", want)
	}
	for i := 1; i < len(d.reps); i++ {
		fri, _, _ := d.reps[i].State()
		if got := fri.Graph().NumLive(); got != want {
			t.Fatalf("replica %d has %d live nodes, replica 0 has %d", i, got, want)
		}
	}
}

// TestSyncSnapshotFallback: when the write-ahead log has been truncated
// behind a checkpoint, a replica that restarted from scratch cannot be
// replayed — catch-up must fall back to snapshot transfer (here: fetched
// from the most advanced peer) and then stream the remaining log suffix.
func TestSyncSnapshotFallback(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 50, Edges: 200, Labels: []string{"A"}, Seed: 431})
	assign := make([]int, 50)
	for v := range assign {
		assign[v] = v % 2
	}
	d := deployIndependent(t, g, assign, 2, nil)
	// Tiny segments: every record rotates into its own file, so the
	// checkpoint's truncation genuinely drops the replay prefix.
	gwStore, err := oplog.OpenStore(t.TempDir(), oplog.LogOptions{Fsync: oplog.SyncNever, SegmentBytes: 48})
	if err != nil {
		t.Fatal(err)
	}
	defer gwStore.Close()
	seq := oplog.NewDurableSequencer(gwStore)
	co, err := Dial(d.addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	co.UseSequencer(seq)

	rng := gen.NewRNG(432)
	mirror := g.Clone()
	for i := 0; i < 12; i++ {
		u, v := graph.NodeID(rng.Intn(50)), graph.NodeID(rng.Intn(50))
		if _, _, err := co.Apply([]Op{{Kind: OpInsertEdge, U: u, V: v}}); err != nil {
			t.Fatal(err)
		}
		mirror.InsertEdge(u, v)
	}
	// Checkpoint at LSN 12 and truncate the log behind it.
	snap, err := co.FetchSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.LSN != 12 {
		t.Fatalf("fetched snapshot at LSN %d, want 12", snap.LSN)
	}
	if err := gwStore.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		u, v := graph.NodeID(rng.Intn(50)), graph.NodeID(rng.Intn(50))
		if _, _, err := co.Apply([]Op{{Kind: OpInsertEdge, U: u, V: v}}); err != nil {
			t.Fatal(err)
		}
		mirror.InsertEdge(u, v)
	}

	// Site 1 "loses its disk": restarted from the original files, LSN 0.
	d.sites[1].Close()
	freshFr, err := fragment.Build(g.Clone(), assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	fresh := fragment.NewReplica(freshFr)
	site2, err := NewSiteReplica("127.0.0.1:0", fresh, 1, SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.sites[1] = site2
	d.reps[1] = fresh
	addrs2 := []string{d.addrs[0], site2.Addr()}
	co.Close()
	co2, err := Dial(addrs2, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	co2.UseSequencer(seq)

	rep, err := co2.SyncReplicas(context.Background(), SyncOptions{
		Log: gwStore.Log(),
		Snapshot: func() (*oplog.Snapshot, bool) {
			s, ok, err := gwStore.LoadSnapshot()
			return s, ok && err == nil
		},
		Seed: 433,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Snapshots == 0 {
		t.Fatal("truncated log: catch-up must have installed a snapshot")
	}
	if rep.Replayed == 0 {
		t.Fatal("the post-snapshot log suffix must have been replayed")
	}
	if rep.LSN != 16 {
		t.Fatalf("sync ended at LSN %d, want 16", rep.LSN)
	}
	fps := d.fingerprints()
	if fps[0] != fps[1] {
		t.Fatalf("fingerprints differ after snapshot fallback: %x vs %x", fps[0], fps[1])
	}
	for q := 0; q < 20; q++ {
		s, tt := graph.NodeID(rng.Intn(50)), graph.NodeID(rng.Intn(50))
		got, _, err := co2.Reach(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		if want := mirror.Reachable(s, tt); got != want {
			t.Fatalf("qr(%d,%d) = %v after snapshot fallback, oracle %v", s, tt, got, want)
		}
	}
}

// TestBehindReplicaMissed: a replica one batch behind the log refuses the
// next batch with fragment.ErrReplicaBehind, which reaches the coordinator
// as text in an error frame. The update round must still succeed on the
// replicas that are current and report the laggard in Missed, for
// catch-up to heal — not fail the round.
func TestBehindReplicaMissed(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 30, Edges: 60, Labels: []string{"A"}, Seed: 5})
	const k = 3
	frTmp, err := fragment.Random(g.Clone(), k, 5)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, g.NumNodes())
	for v := range assign {
		assign[v] = frTmp.Owner(graph.NodeID(v))
	}
	d := deployIndependent(t, g, assign, k, nil)
	// LSN 1 reaches every replica but the last.
	first := []Op{{Kind: OpInsertEdge, U: 0, V: 1}}
	for _, rep := range d.reps[:k-1] {
		if _, _, err := rep.ApplyLSN(1, 1, first); err != nil {
			t.Fatal(err)
		}
	}
	co, err := Dial(d.addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	res, _, err := co.Apply([]Op{{Kind: OpInsertEdge, U: 2, V: 3}})
	if err != nil {
		t.Fatalf("update with one replica behind failed the round: %v", err)
	}
	if res.LSN != 2 || len(res.Missed) != 1 || res.Missed[0] != k-1 {
		t.Fatalf("LSN %d, missed %v; want LSN 2 and missed [%d]", res.LSN, res.Missed, k-1)
	}
}
