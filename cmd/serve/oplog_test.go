package main

import (
	"net/http/httptest"
	"testing"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/netsite"
	"distreach/internal/oplog"
)

// TestGatewayDurabilityStats: a -wal gateway write-ahead logs every update
// batch, reports the durability fields in /stats (current LSN, per-site
// replica LSNs, lag, segment accounting), and checkpoints + truncates in
// the background once -snapshot-every batches accumulate.
func TestGatewayDurabilityStats(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 40, Edges: 160, Labels: []string{"A"}, Seed: 71})
	fr, err := fragment.Random(g, 2, 71)
	if err != nil {
		t.Fatal(err)
	}
	sites, addrs, err := netsite.ServeFragmentation(fr)
	if err != nil {
		t.Fatal(err)
	}
	co, err := netsite.Dial(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	store, err := oplog.OpenStore(t.TempDir(), oplog.LogOptions{Fsync: oplog.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	gw := newGateway(co, gwOptions{cacheCap: 64, store: store, snapEvery: 4})
	srv := httptest.NewServer(gw.routes())
	defer func() {
		srv.Close()
		gw.Close() // join the checkpoint before its directory goes
		co.Close()
		for _, s := range sites {
			s.Close()
		}
		store.Close()
	}()

	for i := 0; i < 6; i++ {
		postUpdate(t, srv.URL, `{"op":"insert","u":0,"v":39}`, 200)
		postUpdate(t, srv.URL, `{"op":"delete","u":0,"v":39}`, 200)
	}
	if got := store.Log().LastLSN(); got != 12 {
		t.Fatalf("write-ahead log at LSN %d after 12 updates, want 12", got)
	}
	m := getJSON(t, srv.URL+"/stats", 200)
	dur, ok := m["durability"].(map[string]any)
	if !ok {
		t.Fatalf("stats carry no durability section: %v", m)
	}
	if lsn := dur["lsn"].(float64); lsn != 12 {
		t.Fatalf("stats lsn = %v, want 12", lsn)
	}
	reps := dur["replica_lsns"].([]any)
	if len(reps) != 2 {
		t.Fatalf("stats report %d replica LSNs, want 2", len(reps))
	}
	for i, r := range reps {
		if r.(float64) != 12 {
			t.Fatalf("replica %d at LSN %v, want 12", i, r)
		}
	}
	if lag := dur["max_lag"].(float64); lag != 0 {
		t.Fatalf("max_lag = %v on a healthy deployment", lag)
	}
	wal, ok := dur["wal"].(map[string]any)
	if !ok {
		t.Fatal("stats carry no wal section despite -wal")
	}
	if wal["segments"].(float64) < 1 || wal["segment_bytes"].(float64) <= 0 {
		t.Fatalf("implausible wal accounting: %v", wal)
	}
	// The background checkpoint fires once snapEvery batches accumulate.
	deadline := time.Now().Add(5 * time.Second)
	for store.SnapshotLSN() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if store.SnapshotLSN() == 0 {
		t.Fatal("no snapshot was checkpointed after snapEvery batches")
	}
	snap, ok2, err := store.LoadSnapshot()
	if err != nil || !ok2 {
		t.Fatalf("stored snapshot unreadable: ok=%v err=%v", ok2, err)
	}
	if snap.Fingerprint == 0 {
		t.Fatal("stored snapshot carries no fingerprint")
	}
}

// TestGatewayRecoversDeploymentFromWAL: the boot-recovery path — a gateway
// whose write-ahead log is ahead of the sites (here: sites rebuilt from
// the original graph, the WAL holding churn they never saw) replays the
// delta on startup, so the deployment serves post-churn answers without
// any manual re-seed.
func TestGatewayRecoversDeploymentFromWAL(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 40, Edges: 100, Labels: []string{"A"}, Seed: 73})
	assign := make([]int, 40)
	for v := range assign {
		assign[v] = v % 2
	}
	dir := t.TempDir()

	// First incarnation: durable gateway applies churn.
	fr1, err := fragment.Build(g.Clone(), assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	sites1, addrs1, err := netsite.ServeFragmentation(fr1)
	if err != nil {
		t.Fatal(err)
	}
	co1, err := netsite.Dial(addrs1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	store1, err := oplog.OpenStore(dir, oplog.LogOptions{Fsync: oplog.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	gw1 := newGateway(co1, gwOptions{cacheCap: 64, store: store1})
	srv1 := httptest.NewServer(gw1.routes())
	// Make node 0 reach node 39 directly — not true in the seed graph for
	// this seed unless churned.
	postUpdate(t, srv1.URL, `{"op":"insert","u":0,"v":39}`, 200)
	srv1.Close()
	gw1.Close()
	co1.Close()
	for _, s := range sites1 {
		s.Close()
	}
	store1.Close()

	// Second incarnation: sites restart from the ORIGINAL files (the churn
	// is only in the WAL). Boot recovery must replay it.
	fr2, err := fragment.Build(g.Clone(), assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fr2.Graph().HasEdge(0, 39) {
		t.Fatal("test premise broken: seed graph already has (0,39)")
	}
	sites2, addrs2, err := netsite.ServeFragmentation(fr2)
	if err != nil {
		t.Fatal(err)
	}
	co2, err := netsite.Dial(addrs2, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	store2, err := oplog.OpenStore(dir, oplog.LogOptions{Fsync: oplog.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	gw2 := newGateway(co2, gwOptions{cacheCap: 64, store: store2})
	srv2 := httptest.NewServer(gw2.routes())
	defer func() {
		srv2.Close()
		gw2.Close()
		co2.Close()
		for _, s := range sites2 {
			s.Close()
		}
		store2.Close()
	}()
	gw2.heal() // what main() launches on boot with -wal
	if !fr2.Graph().HasEdge(0, 39) {
		t.Fatal("boot recovery did not replay the WAL onto the sites")
	}
	m := getJSON(t, srv2.URL+"/reach?s=0&t=39", 200)
	if m["answer"] != true {
		t.Fatalf("post-recovery qr(0,39) = %v, want true (the churned edge)", m["answer"])
	}
}
