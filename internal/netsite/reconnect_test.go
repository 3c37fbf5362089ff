package netsite

import (
	"testing"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// TestReconnectAfterSiteRestart: dropping a site fails queries promptly,
// but the coordinator heals itself — once the site is back on the same
// address, queries succeed again without redialing or restarting anything.
func TestReconnectAfterSiteRestart(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 60, Edges: 240, Labels: []string{"A", "B"}, Seed: 601})
	fr, err := fragment.Random(g, 2, 601)
	if err != nil {
		t.Fatal(err)
	}
	rep := fragment.NewReplica(fr)
	var sites []*Site
	var addrs []string
	for i := 0; i < fr.Card(); i++ {
		s, err := NewSiteReplica("127.0.0.1:0", rep, i, SiteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sites = append(sites, s)
		addrs = append(addrs, s.Addr())
	}
	defer func() {
		for _, s := range sites {
			if s != nil {
				s.Close()
			}
		}
	}()
	co, err := Dial(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// A pair with one end on each site: a warm round over it posts to both.
	s, tt := graph.NodeID(0), graph.NodeID(59)
	for fr.Owner(s) != 0 {
		s++
	}
	for fr.Owner(tt) != 1 {
		tt--
	}
	if _, _, err := co.Reach(s, tt); err != nil {
		t.Fatal(err)
	}
	// Kill site 1: queries that need it must fail fast, not hang.
	sites[1].Close()
	sites[1] = nil
	failed := false
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, err := co.Reach(s, tt); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("queries kept succeeding with a dead site")
	}
	// Restart on the same address; the redial loop should pick it up.
	restarted, err := NewSiteReplica(addrs[1], rep, 1, SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sites[1] = restarted
	recovered := false
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if got, _, err := co.Reach(s, tt); err == nil {
			if want := g.Reachable(s, tt); got != want {
				t.Fatalf("post-reconnect qr(%d,%d) = %v, oracle %v", s, tt, got, want)
			}
			recovered = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("coordinator never reconnected to the restarted site")
	}
	// The healed connection carries updates too.
	if _, _, err := co.Update(UpdateInsert, 0, graph.NodeID(59)); err != nil {
		t.Fatalf("update after reconnect: %v", err)
	}
}

// TestReconnectStopsOnClose: closing the coordinator while a site is down
// must stop the redial loop (no goroutine keeps dialing a dead address).
func TestReconnectStopsOnClose(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 20, Edges: 40, Labels: []string{"A"}, Seed: 602})
	fr, err := fragment.Random(g, 1, 602)
	if err != nil {
		t.Fatal(err)
	}
	sites, addrs, err := ServeFragmentation(fr)
	if err != nil {
		t.Fatal(err)
	}
	co, err := Dial(addrs, time.Second)
	if err != nil {
		for _, s := range sites {
			s.Close()
		}
		t.Fatal(err)
	}
	for _, s := range sites {
		s.Close() // site gone; redial loop starts
	}
	time.Sleep(50 * time.Millisecond)
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	// Posting after close fails immediately with the closed error.
	if _, _, err := co.Reach(0, 1); err == nil {
		t.Fatal("query after Close must fail")
	}
}

// TestCoordinatorCloseTwice: Close must stay idempotent (a defer plus an
// explicit shutdown path, or two goroutines racing shutdown, must not
// panic on a double channel close).
func TestCoordinatorCloseTwice(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 10, Edges: 20, Labels: []string{"A"}, Seed: 603})
	fr, err := fragment.Random(g, 1, 603)
	if err != nil {
		t.Fatal(err)
	}
	sites, addrs, err := ServeFragmentation(fr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range sites {
			s.Close()
		}
	}()
	co, err := Dial(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	if err := co.Close(); err != nil { // must not panic
		t.Fatal(err)
	}
}

// TestTwoCoordinatorsNoSeqCollision: two coordinators updating the same
// deployment must not have their batches swallowed by the broadcast
// dedupe window — each coordinator's node insert must really land. With
// the sequenced log, the second coordinator adopts the deployment's LSN
// before its first submit (a hello round), so its batch extends the total
// order instead of colliding at LSN 1; concurrent writers share one
// sequencer outright (TestTwoGatewaysConverge).
func TestTwoCoordinatorsNoSeqCollision(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 20, Edges: 40, Labels: []string{"A"}, Seed: 604})
	fr, err := fragment.Random(g, 2, 604)
	if err != nil {
		t.Fatal(err)
	}
	sites, addrs, err := ServeFragmentation(fr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range sites {
			s.Close()
		}
	}()
	coA, err := Dial(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer coA.Close()
	coB, err := Dial(addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer coB.Close()

	resA, _, err := coA.InsertNode("A")
	if err != nil {
		t.Fatal(err)
	}
	resB, _, err := coB.InsertNode("B")
	if err != nil {
		t.Fatal(err)
	}
	if len(resA.NewIDs) != 1 || len(resB.NewIDs) != 1 {
		t.Fatalf("inserts reported %d/%d IDs, want 1 each", len(resA.NewIDs), len(resB.NewIDs))
	}
	if resA.NewIDs[0] == resB.NewIDs[0] {
		t.Fatalf("both coordinators got node %d: the second batch was deduped away", resA.NewIDs[0])
	}
	if live := fr.Graph().NumLive(); live != 22 {
		t.Fatalf("deployment has %d live nodes, want 22 (both inserts applied)", live)
	}
}
