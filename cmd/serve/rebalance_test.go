package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/netsite"
)

// postJSON posts a JSON body and decodes the JSON response.
func postJSON(t *testing.T, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGatewayMultiOpUpdate: a transactional batch in one POST /update body
// — insert a node, then wire it up in a second batch — and the response
// carries new IDs and balance stats.
func TestGatewayMultiOpUpdate(t *testing.T) {
	_, g, srv := testGateway(t)
	m := postJSON(t, srv.URL+"/update", map[string]any{
		"ops": []map[string]any{
			{"op": "insertnode", "label": "A"},
			{"op": "insert", "u": 0, "v": 42},
		},
	}, 200)
	if m["changed"] != true {
		t.Fatalf("batch reported no change: %v", m)
	}
	ids, ok := m["new_ids"].([]any)
	if !ok || len(ids) != 1 {
		t.Fatalf("new_ids = %v, want one ID", m["new_ids"])
	}
	id := int(ids[0].(float64))
	if id != g.NumNodes()-1 {
		t.Fatalf("new node ID %d, want %d", id, g.NumNodes()-1)
	}
	bal, ok := m["balance"].(map[string]any)
	if !ok || bal["fragments"].(float64) != 3 {
		t.Fatalf("balance stats missing or wrong: %v", m["balance"])
	}
	// Wire the new node in and query through it.
	postJSON(t, srv.URL+"/update", map[string]any{
		"ops": []map[string]any{
			{"op": "insert", "u": 5, "v": id},
			{"op": "insert", "u": id, "v": 7},
		},
	}, 200)
	qm := getJSON(t, srv.URL+"/reach?s=5&t="+strconv.Itoa(id), 200)
	if qm["answer"] != true {
		t.Fatalf("edge to inserted node not visible: %v", qm)
	}
	// A batch with an invalid op is rejected wholesale with 400.
	em := postJSON(t, srv.URL+"/update", map[string]any{
		"ops": []map[string]any{
			{"op": "insert", "u": 0, "v": 1},
			{"op": "teleport", "u": 1},
		},
	}, 400)
	if em["error"] == "" {
		t.Fatal("rejected batch should explain itself")
	}
	// Legacy single-edge body still works.
	lm := postJSON(t, srv.URL+"/update", map[string]any{"op": "delete", "u": 5, "v": float64(id)}, 200)
	if lm["changed"] != true {
		t.Fatalf("legacy single-edge update failed: %v", lm)
	}
}

// TestGatewayRebalanceEndpoint: POST /rebalance re-fragments the
// deployment, bumps the epoch, flushes the cache generation, and /stats
// reflects it all.
func TestGatewayRebalanceEndpoint(t *testing.T) {
	gw, g, srv := testGateway(t)
	// Warm the cache with one query.
	getJSON(t, srv.URL+"/reach?s=1&t=2", 200)
	if gw.cache.Len() == 0 {
		t.Fatal("cache did not warm")
	}
	m := postJSON(t, srv.URL+"/rebalance", map[string]any{}, 200)
	if m["rebalanced"] != true {
		t.Fatalf("rebalance did not apply: %v", m)
	}
	if m["epoch"].(float64) != 1 {
		t.Fatalf("epoch = %v, want 1", m["epoch"])
	}
	if gw.cache.Len() != 0 {
		t.Fatal("rebalance must flush the answer cache")
	}
	// Answers stay correct on the new fragmentation.
	for q := 0; q < 20; q++ {
		s, tt := q%80, (q*17)%80
		qm := getJSON(t, srv.URL+"/reach?s="+strconv.Itoa(s)+"&t="+strconv.Itoa(tt), 200)
		if got, want := qm["answer"].(bool), g.Reachable(graph.NodeID(s), graph.NodeID(tt)); got != want {
			t.Fatalf("qr(%d,%d) after rebalance: http=%v oracle=%v", s, tt, got, want)
		}
	}
	sm := getJSON(t, srv.URL+"/stats", 200)
	if sm["epoch"].(float64) != 1 || sm["rebalances"].(float64) != 1 {
		t.Fatalf("stats out of date after rebalance: epoch=%v rebalances=%v", sm["epoch"], sm["rebalances"])
	}
}

// TestGatewayAutoRebalanceOnSkew: with a skew threshold configured,
// sustained skewed churn through POST /update triggers a rebalance with
// no manual call.
func TestGatewayAutoRebalanceOnSkew(t *testing.T) {
	const blocks, size = 4, 40
	g := gen.Communities(gen.CommunitiesConfig{Communities: blocks, Size: size, InDegree: 4, Seed: 67})
	fr, err := fragment.Contiguous(g, blocks)
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
	gw := newGateway(co, gwOptions{cacheCap: 128, skew: 1.5, seed: 68})
	srv := httptest.NewServer(gw.routes())
	defer func() {
		srv.Close()
		co.Close()
		for _, s := range sites {
			s.Close()
		}
	}()
	// Hammer block 0 with internal edges until fragment 0 bloats past the
	// threshold; every update reply re-checks the skew.
	rng := gen.NewRNG(69)
	for i := 0; i < 400 && gw.rebalances.Value() == 0; i++ {
		u, v := rng.Intn(size), rng.Intn(size)
		postJSON(t, srv.URL+"/update", map[string]any{"op": "insert", "u": u, "v": v}, 200)
	}
	deadline := time.Now().Add(5 * time.Second)
	for gw.rebalances.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if gw.rebalances.Value() == 0 {
		t.Fatal("skewed churn never triggered an automatic rebalance")
	}
	sm := getJSON(t, srv.URL+"/stats", 200)
	if sm["epoch"].(float64) < 1 {
		t.Fatalf("epoch did not advance: %v", sm["epoch"])
	}
	// The post-rebalance deployment still answers correctly.
	for q := 0; q < 10; q++ {
		s, tt := rng.Intn(g.NumNodes()), rng.Intn(g.NumNodes())
		qm := getJSON(t, srv.URL+"/reach?s="+strconv.Itoa(s)+"&t="+strconv.Itoa(tt), 200)
		if got, want := qm["answer"].(bool), g.Reachable(graph.NodeID(s), graph.NodeID(tt)); got != want {
			t.Fatalf("qr(%d,%d) after auto-rebalance: http=%v oracle=%v", s, tt, got, want)
		}
	}
}

// TestGatewayBackpressure: when every in-flight slot is taken, further
// queries get 429 + Retry-After immediately, /stats counts the
// rejections, and the gateway recovers once load drains.
func TestGatewayBackpressure(t *testing.T) {
	labels := []string{"A", "B"}
	g := gen.Uniform(gen.Config{Nodes: 40, Edges: 160, Labels: labels, Seed: 63})
	fr, err := fragment.Random(g, 2, 63)
	if err != nil {
		t.Fatal(err)
	}
	// Slow sites hold queries in flight long enough to fill the slots.
	sites, addrs, err := netsite.ServeFragmentationOpts(fr, netsite.SiteOptions{Delay: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	co, err := netsite.Dial(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	gw := newGateway(co, gwOptions{cacheCap: 128, maxInflight: 2})
	srv := httptest.NewServer(gw.routes())
	defer func() {
		srv.Close()
		co.Close()
		for _, s := range sites {
			s.Close()
		}
	}()

	var wg sync.WaitGroup
	saw429 := make(chan http.Header, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/reach?s=" + strconv.Itoa(w) + "&t=" + strconv.Itoa(39-w))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
			case http.StatusTooManyRequests:
				select {
				case saw429 <- resp.Header:
				default:
				}
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}(w)
	}
	wg.Wait()
	select {
	case h := <-saw429:
		if h.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
	default:
		t.Fatal("8 concurrent queries against 2 slots produced no 429")
	}
	if gw.rejected.Value() == 0 {
		t.Fatal("rejection counter did not move")
	}
	// /stats stays reachable under saturation and reports the counters.
	sm := getJSON(t, srv.URL+"/stats", 200)
	bp := sm["backpressure"].(map[string]any)
	if bp["max_inflight"].(float64) != 2 || bp["rejected"].(float64) == 0 {
		t.Fatalf("backpressure stats wrong: %v", bp)
	}
	// Load drained: queries flow again.
	getJSON(t, srv.URL+"/reach?s=0&t=39", 200)
}

// TestGatewayHealsEpochSplit: a replica that fell behind on epochs (a
// site restarted from its original files after the deployment had
// rebalanced) makes query rounds fail with an epoch split. The gateway
// must answer 503 + Retry-After, kick off a re-sync rebalance in the
// background, and serve correct answers again once every replica reaches
// the fresh epoch.
func TestGatewayHealsEpochSplit(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 60, Edges: 240, Labels: []string{"A", "B"}, Seed: 91})
	assign := make([]int, 60)
	for v := range assign {
		assign[v] = v % 2
	}
	// Two sites with independent replicas over identical graph state — the
	// separate-process deployment shape.
	frA, err := fragment.Build(g, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	frB, err := fragment.Build(g.Clone(), assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	repA, repB := fragment.NewReplica(frA), fragment.NewReplica(frB)
	siteA, err := netsite.NewSiteReplica("127.0.0.1:0", repA, 0, netsite.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	siteB, err := netsite.NewSiteReplica("127.0.0.1:0", repB, 1, netsite.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	co, err := netsite.Dial([]string{siteA.Addr(), siteB.Addr()}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	gw := newGateway(co, gwOptions{cacheCap: 128, seed: 92})
	srv := httptest.NewServer(gw.routes())
	defer func() {
		srv.Close()
		co.Close()
		siteA.Close()
		siteB.Close()
	}()

	// Site A rebalances to epoch 1 behind the gateway's back (with a
	// strategy the gateway would not pick, so the epoch-1 builds genuinely
	// differ); site B stays at 0 — the restarted-stale-site shape.
	if _, err := repA.Rebalance(1, fragment.ContiguousPartitioner{}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/reach?s=0&t=59")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("split-epoch query got %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// The background re-sync realigns both replicas at a fresh epoch; the
	// retried query must succeed and be correct.
	deadline := time.Now().Add(5 * time.Second)
	healed := false
	for time.Now().Before(deadline) {
		r2, err := http.Get(srv.URL + "/reach?s=0&t=59")
		if err != nil {
			t.Fatal(err)
		}
		if r2.StatusCode == http.StatusOK {
			var m map[string]any
			if err := json.NewDecoder(r2.Body).Decode(&m); err != nil {
				t.Fatal(err)
			}
			r2.Body.Close()
			if got, want := m["answer"].(bool), g.Reachable(0, 59); got != want {
				t.Fatalf("post-heal qr(0,59) = %v, oracle %v", got, want)
			}
			healed = true
			break
		}
		r2.Body.Close()
		time.Sleep(20 * time.Millisecond)
	}
	if !healed {
		t.Fatal("gateway never healed the epoch split")
	}
	if _, eA := repA.Current(); eA < 2 {
		t.Fatalf("replica A epoch %d, want >= 2 after re-sync", eA)
	}
	if _, eB := repB.Current(); eB < 2 {
		t.Fatalf("replica B epoch %d, want >= 2 after re-sync", eB)
	}
}

// TestGatewayHealsHighEpochSplit: a freshly started gateway (epoch view
// 0) fronting a deployment far ahead — with one straggler replica — must
// learn the real epoch from the rebalance replies and force a strictly
// fresher rebuild, instead of retrying at epochs the up-to-date replicas
// ignore.
func TestGatewayHealsHighEpochSplit(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 50, Edges: 200, Labels: []string{"A", "B"}, Seed: 95})
	assign := make([]int, 50)
	for v := range assign {
		assign[v] = v % 2
	}
	frA, err := fragment.Build(g, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	frB, err := fragment.Build(g.Clone(), assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	repA, repB := fragment.NewReplica(frA), fragment.NewReplica(frB)
	// Replica A is far ahead; B is the straggler at epoch 0.
	if _, err := repA.Rebalance(50, fragment.ContiguousPartitioner{}); err != nil {
		t.Fatal(err)
	}
	siteA, err := netsite.NewSiteReplica("127.0.0.1:0", repA, 0, netsite.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	siteB, err := netsite.NewSiteReplica("127.0.0.1:0", repB, 1, netsite.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	co, err := netsite.Dial([]string{siteA.Addr(), siteB.Addr()}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	gw := newGateway(co, gwOptions{cacheCap: 128, seed: 96})
	defer func() {
		co.Close()
		siteA.Close()
		siteB.Close()
	}()

	res, err := gw.rebalance()
	if err != nil {
		t.Fatalf("rebalance did not settle the high-epoch split: %v", err)
	}
	if res.Epoch <= 50 {
		t.Fatalf("healed at epoch %d, want > 50 (a forced fresh rebuild)", res.Epoch)
	}
	_, eA := repA.Current()
	_, eB := repB.Current()
	if eA != eB || eA != res.Epoch {
		t.Fatalf("replicas at epochs %d/%d, want both at %d", eA, eB, res.Epoch)
	}
}
