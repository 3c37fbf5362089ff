package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/netsite"
)

func testGateway(t *testing.T) (*gateway, *graph.Graph, *httptest.Server) {
	t.Helper()
	return testGatewayOpts(t, netsite.SiteOptions{})
}

func testGatewayOpts(t *testing.T, o netsite.SiteOptions) (*gateway, *graph.Graph, *httptest.Server) {
	t.Helper()
	labels := []string{"A", "B"}
	g := gen.Uniform(gen.Config{Nodes: 80, Edges: 320, Labels: labels, Seed: 61})
	fr, err := fragment.Random(g, 3, 61)
	if err != nil {
		t.Fatal(err)
	}
	sites, addrs, err := netsite.ServeReplica(fragment.NewReplica(fr), o)
	if err != nil {
		t.Fatal(err)
	}
	co, err := netsite.Dial(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	gw := newGateway(co, gwOptions{cacheCap: 128})
	srv := httptest.NewServer(gw.routes())
	t.Cleanup(func() {
		srv.Close()
		co.Close()
		for _, s := range sites {
			s.Close()
		}
	})
	return gw, g, srv
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGatewayReachMatchesOracle(t *testing.T) {
	_, g, srv := testGateway(t)
	rng := gen.NewRNG(62)
	for q := 0; q < 30; q++ {
		s := rng.Intn(80)
		tt := rng.Intn(80)
		m := getJSON(t, srv.URL+"/reach?s="+strconv.Itoa(s)+"&t="+strconv.Itoa(tt), 200)
		if got, want := m["answer"].(bool), g.Reachable(graph.NodeID(s), graph.NodeID(tt)); got != want {
			t.Fatalf("qr(%d,%d): http=%v oracle=%v", s, tt, got, want)
		}
	}
}

func TestGatewayCacheHitAndFlush(t *testing.T) {
	gw, _, srv := testGateway(t)
	url := srv.URL + "/reach?s=3&t=70"
	first := getJSON(t, url, 200)
	if first["cached"].(bool) {
		t.Fatal("first query must miss the cache")
	}
	if first["wire"] == nil {
		t.Fatal("uncached query must report wire stats")
	}
	second := getJSON(t, url, 200)
	if !second["cached"].(bool) {
		t.Fatal("repeat query must hit the cache")
	}
	if second["answer"] != first["answer"] {
		t.Fatal("cached answer differs from computed answer")
	}
	if second["wire"] != nil {
		t.Fatal("cached query must not report wire stats")
	}
	resp, err := http.Post(srv.URL+"/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gw.cache.Len() != 0 {
		t.Fatal("flush must empty the cache")
	}
	third := getJSON(t, url, 200)
	if third["cached"].(bool) {
		t.Fatal("query after flush must miss the cache")
	}
}

func TestGatewayReachWithinAndRegex(t *testing.T) {
	_, g, srv := testGateway(t)
	m := getJSON(t, srv.URL+"/reachwithin?s=5&t=60&l=4", 200)
	d := g.Dist(5, 60)
	want := d >= 0 && d <= 4
	if m["answer"].(bool) != want {
		t.Fatalf("qbr(5,60,4): http=%v oracle dist=%d", m["answer"], d)
	}
	if want {
		if dist := int(m["dist"].(float64)); dist != d {
			t.Fatalf("dist %d, oracle %d", dist, d)
		}
	}
	// Regex answers travel URL-encoded.
	m = getJSON(t, srv.URL+"/reachregex?s=5&t=60&r=A%28A%7CB%29%2A", 200) // A(A|B)*
	if _, ok := m["answer"].(bool); !ok {
		t.Fatalf("qrr: malformed response %v", m)
	}
}

func TestGatewayRejectsBadParams(t *testing.T) {
	_, _, srv := testGateway(t)
	for _, path := range []string{
		"/reach?s=x&t=2",
		"/reach?t=2",
		"/reachwithin?s=1&t=2&l=-3",
		"/reachwithin?s=1&t=2",
		"/reachregex?s=1&t=2",
		"/reachregex?s=1&t=2&r=%28", // unbalanced paren
	} {
		m := getJSON(t, srv.URL+path, 400)
		if m["error"] == "" {
			t.Fatalf("%s: error body missing", path)
		}
	}
}

// postBatch posts a /batch request and decodes the response envelope.
func postBatch(t *testing.T, url string, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(url+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /batch: status %d, want %d", resp.StatusCode, wantStatus)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGatewayBatchMatchesOracle(t *testing.T) {
	_, g, srv := testGateway(t)
	m := postBatch(t, srv.URL, `{"queries":[
		{"class":"reach","s":3,"t":70},
		{"class":"reachwithin","s":5,"t":60,"l":4},
		{"class":"reachregex","s":7,"t":50,"r":"A(A|B)*"},
		{"class":"reach","s":9,"t":9}
	]}`, 200)
	answers := m["answers"].([]any)
	if len(answers) != 4 {
		t.Fatalf("4 queries, %d answers", len(answers))
	}
	a0 := answers[0].(map[string]any)
	if got, want := a0["answer"].(bool), g.Reachable(3, 70); got != want {
		t.Fatalf("qr(3,70): batch=%v oracle=%v", got, want)
	}
	a1 := answers[1].(map[string]any)
	d := g.Dist(5, 60)
	if got, want := a1["answer"].(bool), d >= 0 && d <= 4; got != want {
		t.Fatalf("qbr(5,60,4): batch=%v oracle dist=%d", got, d)
	}
	if !answers[3].(map[string]any)["answer"].(bool) {
		t.Fatal("qr(9,9) must be true")
	}
	// One wire round for the whole batch: frames == sites, misses == 4
	// (the s==t query still counts as a miss, answered locally for free).
	if misses := int(m["misses"].(float64)); misses != 4 {
		t.Fatalf("misses %d, want 4 on a cold cache", misses)
	}
	wire := m["wire"].(map[string]any)
	if fs := int(wire["frames_sent"].(float64)); fs != 3 {
		t.Fatalf("frames_sent %d, want 3 (one per site)", fs)
	}
}

// TestGatewayBatchStripsCachedQueries is the qcache satellite: a batch
// with half its keys already cached sends only the misses over the wire,
// and a fully cached batch sends no frames at all.
func TestGatewayBatchStripsCachedQueries(t *testing.T) {
	gw, _, srv := testGateway(t)
	const body = `{"queries":[
		{"class":"reach","s":1,"t":40},
		{"class":"reach","s":2,"t":41},
		{"class":"reachwithin","s":3,"t":42,"l":5},
		{"class":"reachwithin","s":4,"t":43,"l":5}
	]}`
	// Warm exactly half the keys through the single-query API.
	getJSON(t, srv.URL+"/reach?s=1&t=40", 200)
	getJSON(t, srv.URL+"/reachwithin?s=3&t=42&l=5", 200)
	hits0, _ := gw.cache.Stats()

	m := postBatch(t, srv.URL, body, 200)
	if misses := int(m["misses"].(float64)); misses != 2 {
		t.Fatalf("misses %d, want 2 (half the batch was cached)", misses)
	}
	hits1, _ := gw.cache.Stats()
	if hits1-hits0 != 2 {
		t.Fatalf("cache hits grew by %d, want 2", hits1-hits0)
	}
	answers := m["answers"].([]any)
	for i, cached := range []bool{true, false, true, false} {
		if got := answers[i].(map[string]any)["cached"].(bool); got != cached {
			t.Fatalf("answer %d cached=%v, want %v", i, got, cached)
		}
	}
	// Frames still one per site — batching the misses, not per query.
	if fs := int(m["wire"].(map[string]any)["frames_sent"].(float64)); fs != 3 {
		t.Fatalf("frames_sent %d, want 3", fs)
	}

	// Now everything is cached: the same batch must not touch the wire.
	m = postBatch(t, srv.URL, body, 200)
	if misses := int(m["misses"].(float64)); misses != 0 {
		t.Fatalf("fully cached batch missed %d times", misses)
	}
	if m["wire"] != nil {
		t.Fatalf("fully cached batch reported wire traffic: %v", m["wire"])
	}
}

// TestGatewayBatchDedupsDuplicateQueries: identical queries inside one
// batch travel the wire once and the answer fans out to every index.
func TestGatewayBatchDedupsDuplicateQueries(t *testing.T) {
	_, g, srv := testGateway(t)
	m := postBatch(t, srv.URL, `{"queries":[
		{"class":"reach","s":6,"t":55},
		{"class":"reach","s":6,"t":55},
		{"class":"reach","s":6,"t":55}
	]}`, 200)
	if misses := int(m["misses"].(float64)); misses != 1 {
		t.Fatalf("3 identical queries produced %d wire queries, want 1", misses)
	}
	want := g.Reachable(6, 55)
	for i, a := range m["answers"].([]any) {
		if got := a.(map[string]any)["answer"].(bool); got != want {
			t.Fatalf("answer %d: %v, oracle %v", i, got, want)
		}
	}
}

// TestGatewayBatchFlushRace flushes the cache while a batch is in flight
// over slow sites: the in-flight batch must not re-insert its pre-flush
// answers, so nothing stale can ever be served afterwards.
func TestGatewayBatchFlushRace(t *testing.T) {
	gw, _, srv := testGatewayOpts(t, netsite.SiteOptions{Delay: 500 * time.Millisecond})
	done := make(chan map[string]any, 1)
	go func() {
		done <- postBatch(t, srv.URL, `{"queries":[
			{"class":"reach","s":1,"t":40},
			{"class":"reach","s":2,"t":41}
		]}`, 200)
	}()
	// The handler bumps the query counter after snapshotting the flush
	// generation and before the wire round, so once the counter reads 2
	// the batch is committed to its pre-flush epoch and is stuck behind
	// the sites' service delay — the flush below is guaranteed to race it.
	for deadline := time.Now().Add(5 * time.Second); gw.queries.Value() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("batch never started")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(srv.URL+"/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	m := <-done
	if len(m["answers"].([]any)) != 2 {
		t.Fatalf("batch lost answers: %v", m)
	}
	// The flush raced the round trip: the batch's answers must NOT have
	// been re-inserted, whichever side won.
	if n := gw.cache.Len(); n != 0 {
		t.Fatalf("%d stale entries re-inserted after flush", n)
	}
	// And the next batch recomputes rather than serving anything stale.
	m = postBatch(t, srv.URL, `{"queries":[{"class":"reach","s":1,"t":40}]}`, 200)
	if misses := int(m["misses"].(float64)); misses != 1 {
		t.Fatalf("post-flush batch served from a cache that should be empty (misses=%d)", misses)
	}
}

func TestGatewayBatchRejectsBadRequests(t *testing.T) {
	gw, _, srv := testGateway(t)
	for name, body := range map[string]string{
		"malformed JSON": `{"queries":[`,
		"empty list":     `{"queries":[]}`,
		"missing s":      `{"queries":[{"class":"reach","t":2}]}`,
		"unknown class":  `{"queries":[{"class":"teleport","s":1,"t":2}]}`,
		"negative bound": `{"queries":[{"class":"reachwithin","s":1,"t":2,"l":-1}]}`,
		"missing regex":  `{"queries":[{"class":"reachregex","s":1,"t":2}]}`,
		"bad regex":      `{"queries":[{"class":"reachregex","s":1,"t":2,"r":"("}]}`,
		// Valid queries ahead of an invalid one: the whole batch must be
		// rejected before any serving state is touched.
		"tail invalid": `{"queries":[{"class":"reach","s":1,"t":2},{"class":"teleport","s":3,"t":4}]}`,
	} {
		if m := postBatch(t, srv.URL, body, 400); m["error"] == "" {
			t.Fatalf("%s: error body missing", name)
		}
	}
	// No rejected batch served anything: counters and cache untouched.
	if n := gw.queries.Value(); n != 0 {
		t.Fatalf("rejected batches bumped the query counter to %d", n)
	}
	if hits, misses := gw.cache.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("rejected batches touched the cache: hits=%d misses=%d", hits, misses)
	}
}

func TestGatewayConcurrentClients(t *testing.T) {
	_, g, srv := testGateway(t)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := gen.NewRNG(seed)
			for q := 0; q < 20; q++ {
				s := rng.Intn(80)
				tt := rng.Intn(80)
				resp, err := http.Get(srv.URL + "/reach?s=" + strconv.Itoa(s) + "&t=" + strconv.Itoa(tt))
				if err != nil {
					errs <- err.Error()
					return
				}
				var m map[string]any
				err = json.NewDecoder(resp.Body).Decode(&m)
				resp.Body.Close()
				if err != nil {
					errs <- err.Error()
					return
				}
				if got, want := m["answer"].(bool), g.Reachable(graph.NodeID(s), graph.NodeID(tt)); got != want {
					errs <- "wrong answer under concurrency"
					return
				}
			}
		}(uint64(70 + w))
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

// precisionGateway deploys a hand-built graph whose components are
// fragment-aligned, so queries have disjoint touched-fragment sets:
//
//	component A: 0 -> 1 -> 2 -> 3   (nodes 0,1 in fragment 0; 2,3 in 1)
//	component B: 4 -> 5             (nodes 4,5 in fragment 2)
func precisionGateway(t *testing.T) (*gateway, *httptest.Server) {
	t.Helper()
	b := graph.NewBuilder(6)
	for i := 0; i < 6; i++ {
		b.AddNode("A")
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2) // the only cross edge: fragment 0 -> fragment 1
	b.AddEdge(2, 3)
	b.AddEdge(4, 5)
	g := b.MustBuild()
	fr, err := fragment.Build(g, []int{0, 0, 1, 1, 2, 2}, 3)
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
	gw := newGateway(co, gwOptions{cacheCap: 128})
	srv := httptest.NewServer(gw.routes())
	t.Cleanup(func() {
		srv.Close()
		co.Close()
		for _, s := range sites {
			s.Close()
		}
	})
	return gw, srv
}

// postUpdate posts one edge operation and decodes the response.
func postUpdate(t *testing.T, url, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(url+"/update", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /update: status %d, want %d", resp.StatusCode, wantStatus)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGatewayUpdateEvictionPrecision is the eviction-precision satellite:
// after an update dirtying fragment F, keys whose recorded fragment set
// excludes F must still be served from cache (hit counters prove no
// collateral eviction), while keys touching F are evicted and recompute
// the post-update answer.
func TestGatewayUpdateEvictionPrecision(t *testing.T) {
	gw, srv := precisionGateway(t)
	// Warm the cache: qr(0,3) touches fragments {0,1}; qr(4,5) touches {2}.
	if m := getJSON(t, srv.URL+"/reach?s=0&t=3", 200); m["answer"] != true {
		t.Fatalf("qr(0,3) = %v, want true", m["answer"])
	}
	if m := getJSON(t, srv.URL+"/reach?s=4&t=5", 200); m["answer"] != true {
		t.Fatalf("qr(4,5) = %v, want true", m["answer"])
	}

	// Insert 5->4, an internal edge of fragment 2.
	m := postUpdate(t, srv.URL, `{"op":"insert","u":5,"v":4}`, 200)
	if m["changed"] != true {
		t.Fatalf("insert reported changed=%v", m["changed"])
	}
	if d := m["dirty"].([]any); len(d) != 1 || int(d[0].(float64)) != 2 {
		t.Fatalf("insert into fragment 2 dirtied %v", d)
	}
	if ev := int(m["evicted"].(float64)); ev != 1 {
		t.Fatalf("evicted %d entries, want exactly 1 (qr(4,5))", ev)
	}

	// qr(0,3) avoided fragment 2: it must still hit.
	hits0, _ := gw.cache.Stats()
	if m := getJSON(t, srv.URL+"/reach?s=0&t=3", 200); m["cached"] != true {
		t.Fatal("qr(0,3) must survive an update to fragment 2")
	}
	hits1, _ := gw.cache.Stats()
	if hits1 != hits0+1 {
		t.Fatalf("hit counter grew by %d, want 1", hits1-hits0)
	}
	// qr(4,5) touched fragment 2: evicted, recomputed, still true.
	if m := getJSON(t, srv.URL+"/reach?s=4&t=5", 200); m["cached"] != false || m["answer"] != true {
		t.Fatalf("qr(4,5) after eviction: %v", m)
	}

	// Delete the 2->3 edge: fragment 1 dirtied, qr(0,3) flips to false.
	m = postUpdate(t, srv.URL, `{"op":"delete","u":2,"v":3}`, 200)
	if d := m["dirty"].([]any); len(d) != 1 || int(d[0].(float64)) != 1 {
		t.Fatalf("delete of internal edge of fragment 1 dirtied %v", d)
	}
	if ev := int(m["evicted"].(float64)); ev != 1 {
		t.Fatalf("evicted %d entries, want exactly 1 (qr(0,3))", ev)
	}
	if m := getJSON(t, srv.URL+"/reach?s=0&t=3", 200); m["cached"] != false || m["answer"] != false {
		t.Fatalf("qr(0,3) after deleting 2->3: %v", m)
	}
	// qr(4,5) was re-cached with tag {2} and must still be hitting.
	if m := getJSON(t, srv.URL+"/reach?s=4&t=5", 200); m["cached"] != true {
		t.Fatal("qr(4,5) must survive an update to fragment 1")
	}

	// A no-op update (deleting a missing edge) evicts nothing.
	m = postUpdate(t, srv.URL, `{"op":"delete","u":0,"v":5}`, 200)
	if m["changed"] != false || int(m["evicted"].(float64)) != 0 {
		t.Fatalf("no-op update: %v", m)
	}
}

// TestGatewayUpdateCrossEdge inserts a cross edge joining the two
// components: both side fragments are dirtied and the bridged answer
// appears.
func TestGatewayUpdateCrossEdge(t *testing.T) {
	_, srv := precisionGateway(t)
	if m := getJSON(t, srv.URL+"/reach?s=0&t=5", 200); m["answer"] != false {
		t.Fatalf("qr(0,5) before bridge: %v", m["answer"])
	}
	// 3 (fragment 1) -> 4 (fragment 2): dirties both sides.
	m := postUpdate(t, srv.URL, `{"op":"insert","u":3,"v":4}`, 200)
	d := m["dirty"].([]any)
	if len(d) != 2 || int(d[0].(float64)) != 1 || int(d[1].(float64)) != 2 {
		t.Fatalf("cross insert dirtied %v, want [1 2]", d)
	}
	if m := getJSON(t, srv.URL+"/reach?s=0&t=5", 200); m["answer"] != true {
		t.Fatalf("qr(0,5) after bridge: %v", m["answer"])
	}
}

func TestGatewayUpdateRejectsBadRequests(t *testing.T) {
	gw, srv := precisionGateway(t)
	for name, body := range map[string]string{
		"malformed JSON": `{"op":`,
		"unknown op":     `{"op":"teleport","u":1,"v":2}`,
		"missing u":      `{"op":"insert","v":2}`,
		"missing v":      `{"op":"insert","u":1}`,
	} {
		if m := postUpdate(t, srv.URL, body, 400); m["error"] == "" {
			t.Fatalf("%s: error body missing", name)
		}
	}
	if n := gw.updates.Value(); n != 0 {
		t.Fatalf("rejected updates bumped the counter to %d", n)
	}
	// Out-of-range endpoints are a site-side error: surfaced as 502.
	postUpdate(t, srv.URL, `{"op":"insert","u":1,"v":4096}`, 502)
}

// TestGatewayRequestTimeout is the deadline satellite: with a per-request
// timeout shorter than the sites' service time, queries and updates come
// back 504 promptly instead of hanging.
func TestGatewayRequestTimeout(t *testing.T) {
	labels := []string{"A", "B"}
	g := gen.Uniform(gen.Config{Nodes: 40, Edges: 160, Labels: labels, Seed: 63})
	fr, err := fragment.Random(g, 2, 63)
	if err != nil {
		t.Fatal(err)
	}
	sites, addrs, err := netsite.ServeReplica(fragment.NewReplica(fr), netsite.SiteOptions{Delay: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	co, err := netsite.Dial(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	gw := newGateway(co, gwOptions{cacheCap: 128, timeout: 50 * time.Millisecond})
	srv := httptest.NewServer(gw.routes())
	defer func() {
		srv.Close()
		co.Close()
		for _, s := range sites {
			s.Close()
		}
	}()
	start := time.Now()
	m := getJSON(t, srv.URL+"/reach?s=0&t=39", 504)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("504 took %v; the deadline must fire at ~50ms, not wait out the site", elapsed)
	}
	if m["error"] == "" {
		t.Fatal("504 body must carry an error")
	}
	// Batches and updates honor the same deadline.
	postBatch(t, srv.URL, `{"queries":[{"class":"reach","s":0,"t":39}]}`, 504)
	postUpdate(t, srv.URL, `{"op":"insert","u":0,"v":39}`, 504)
	// Nothing was cached from the timed-out rounds.
	if n := gw.cache.Len(); n != 0 {
		t.Fatalf("%d entries cached from timed-out rounds", n)
	}
}

// TestGatewayFailedUpdateFlushesCache: an update round that fails
// entirely (every site unreachable) may still be sequenced and logged, so
// the gateway must flush the cache conservatively rather than keep
// serving pre-update answers. A *partial* outage is not a failure
// anymore: the batch applies on the reachable replicas, the reply names
// the laggards, and catch-up replication owes them the delta.
func TestGatewayFailedUpdateFlushesCache(t *testing.T) {
	labels := []string{"A"}
	g := gen.Uniform(gen.Config{Nodes: 30, Edges: 120, Labels: labels, Seed: 65})
	fr, err := fragment.Random(g, 2, 65)
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
	gw := newGateway(co, gwOptions{cacheCap: 128})
	srv := httptest.NewServer(gw.routes())
	defer func() {
		srv.Close()
		co.Close()
		for _, s := range sites {
			s.Close()
		}
	}()
	getJSON(t, srv.URL+"/reach?s=0&t=29", 200) // warm one key
	if gw.cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", gw.cache.Len())
	}
	// Half the deployment down: the update succeeds on the survivor and
	// reports the laggard. (The sites share one in-process replica, so the
	// mutation is logically everywhere; the laggard just never answered.)
	sites[1].Close()
	m := postUpdate(t, srv.URL, `{"op":"insert","u":0,"v":29}`, 200)
	missed, ok := m["missed"].([]any)
	if !ok || len(missed) != 1 || int(missed[0].(float64)) != 1 {
		t.Fatalf("partial update reported missed=%v, want [1]", m["missed"])
	}
	// The whole deployment down: the round fails and the cache is flushed
	// (the batch may have been logged and will eventually apply).
	getJSON(t, srv.URL+"/stats", 200) // exempt from backpressure; sanity
	sites[0].Close()
	postUpdate(t, srv.URL, `{"op":"insert","u":1,"v":29}`, 502)
	if n := gw.cache.Len(); n != 0 {
		t.Fatalf("failed update left %d cached entries; it may still apply later", n)
	}
}

// TestGatewayStatsReachIndex: a self-contained deployment with the index
// enabled must surface live index counters under /stats "reachindex", and
// serving queries must move the hit counter.
func TestGatewayStatsReachIndex(t *testing.T) {
	g := gen.Uniform(gen.Config{Nodes: 80, Edges: 320, Labels: []string{"A"}, Seed: 63})
	fr, err := fragment.Random(g, 3, 63)
	if err != nil {
		t.Fatal(err)
	}
	fr.EnableReachIndex(1 << 20)
	rep := fragment.NewReplica(fr)
	sites, addrs, err := netsite.ServeReplica(rep, netsite.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	co, err := netsite.Dial(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	gw := newGateway(co, gwOptions{cacheCap: 128, idxStats: func() fragment.ReachIndexStats {
		cur, _ := rep.Current()
		return cur.ReachIndexStats()
	}})
	srv := httptest.NewServer(gw.routes())
	t.Cleanup(func() {
		srv.Close()
		co.Close()
		for _, s := range sites {
			s.Close()
		}
	})
	fr.WaitReachIndexes()
	rng := gen.NewRNG(64)
	for q := 0; q < 20; q++ {
		getJSON(t, srv.URL+"/reach?s="+strconv.Itoa(rng.Intn(80))+"&t="+strconv.Itoa(rng.Intn(80)), 200)
	}
	m := getJSON(t, srv.URL+"/stats", 200)
	ri, ok := m["reachindex"].(map[string]any)
	if !ok {
		t.Fatalf("/stats missing reachindex section: %v", m)
	}
	if ri["enabled"] != true {
		t.Fatalf("reachindex.enabled = %v", ri["enabled"])
	}
	if hits, _ := ri["hits"].(float64); hits == 0 {
		t.Fatalf("no index hits after 20 wire queries: %v", ri)
	}
	if lb, _ := ri["label_bytes"].(float64); lb == 0 {
		t.Fatalf("label_bytes = 0: %v", ri)
	}
}

// wireTotal reads gateway_wire_sent_bytes_total plus
// gateway_wire_received_bytes_total off GET /metrics.
func wireTotal(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || (name != "gateway_wire_sent_bytes_total" && name != "gateway_wire_received_bytes_total") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		total += int64(v)
		found++
	}
	if found != 2 {
		t.Fatalf("/metrics has %d of the two wire byte totals", found)
	}
	return total
}

// TestGatewayConcurrentMisses: concurrent GET /reach misses and a POST
// /batch each run their own wire round. Every answer matches the oracle, a
// repeat is served from the cache without touching the wire, and under
// strict rounds the replies' wire objects add up to exactly the growth of
// the gateway's byte totals — a reply reports its own round, no more.
func TestGatewayConcurrentMisses(t *testing.T) {
	gw, g, srv := testGateway(t)
	gw.co.SetAnytime(false) // no straggler replies land after a reply is written
	before := wireTotal(t, srv.URL)

	const n = 8
	batch := [][2]int{{20, 60}, {21, 59}, {22, 58}, {21, 59}}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		replied int64
	)
	// addWire adds one reply's wire object to replied.
	addWire := func(w any) error {
		m, ok := w.(map[string]any)
		if !ok {
			return fmt.Errorf("miss must report wire stats, got %v", w)
		}
		mu.Lock()
		replied += int64(m["bytes_sent"].(float64) + m["bytes_received"].(float64))
		mu.Unlock()
		return nil
	}
	check := func(label string, m map[string]any, s, tt int) {
		if got, want := m["answer"].(bool), g.Reachable(graph.NodeID(s), graph.NodeID(tt)); got != want {
			t.Errorf("%s: http=%v oracle=%v", label, got, want)
		}
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(s, tt int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/reach?s=" + strconv.Itoa(s) + "&t=" + strconv.Itoa(tt))
			if err != nil {
				t.Error(err)
				return
			}
			var m map[string]any
			err = json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if err != nil {
				t.Error(err)
				return
			}
			label := fmt.Sprintf("qr(%d,%d)", s, tt)
			check(label, m, s, tt)
			if err := addWire(m["wire"]); err != nil {
				t.Errorf("%s: %v", label, err)
			}
		}(i, 70-i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		qs := make([]string, len(batch))
		for i, p := range batch {
			qs[i] = fmt.Sprintf(`{"class":"reach","s":%d,"t":%d}`, p[0], p[1])
		}
		body := `{"queries":[` + strings.Join(qs, ",") + `]}`
		resp, err := http.Post(srv.URL+"/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		var m struct {
			Answers []map[string]any `json:"answers"`
			Misses  int              `json:"misses"`
			Wire    any              `json:"wire"`
		}
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Error(err)
			return
		}
		if len(m.Answers) != len(batch) || m.Misses != len(batch)-1 {
			t.Errorf("batch: %d answers and %d misses, want %d and %d", len(m.Answers), m.Misses, len(batch), len(batch)-1)
			return
		}
		for i, p := range batch {
			check(fmt.Sprintf("batch qr(%d,%d)", p[0], p[1]), m.Answers[i], p[0], p[1])
		}
		if err := addWire(m.Wire); err != nil {
			t.Errorf("batch: %v", err)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if grown := wireTotal(t, srv.URL) - before; replied != grown {
		t.Fatalf("replies report %d wire bytes, the gateway's totals grew by %d", replied, grown)
	}

	// A repeat is served from the cache and sends nothing.
	before = wireTotal(t, srv.URL)
	if m := getJSON(t, srv.URL+"/reach?s=0&t=70", 200); m["cached"] != true || m["wire"] != nil {
		t.Fatalf("repeat query must hit the cache: %v", m)
	}
	if grown := wireTotal(t, srv.URL) - before; grown != 0 {
		t.Fatalf("cached hit moved %d wire bytes", grown)
	}
}

// TestGatewayAnytimeStats: the anytime protocol end to end through HTTP —
// a reach query whose certificate avoids the slow site answers well ahead
// of the straggler, the per-query wire JSON reports the early
// termination, and /stats aggregates the protocol counters including the
// per-site straggler histogram.
func TestGatewayAnytimeStats(t *testing.T) {
	const slow = 500 * time.Millisecond
	// Two components across three sites: an a-chain alternating fragments
	// 0/1 (fast) and a b-chain on fragment 2 (slow).
	b := graph.NewBuilder(16)
	a0 := b.AddNodes(12, "A")
	b0 := b.AddNodes(4, "B")
	for i := 0; i < 11; i++ {
		b.AddEdge(a0+graph.NodeID(i), a0+graph.NodeID(i+1))
	}
	for i := 0; i < 3; i++ {
		b.AddEdge(b0+graph.NodeID(i), b0+graph.NodeID(i+1))
	}
	g := b.MustBuild()
	assign := make([]int, 16)
	for i := 0; i < 12; i++ {
		assign[i] = i % 2
	}
	for i := 12; i < 16; i++ {
		assign[i] = 2
	}
	fr, err := fragment.Build(g, assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep := fragment.NewReplica(fr)
	delays := []time.Duration{0, 0, slow}
	var sites []*netsite.Site
	var addrs []string
	for i, f := range fr.Fragments() {
		s, err := netsite.NewSiteReplica("127.0.0.1:0", rep, f.ID, netsite.SiteOptions{Delay: delays[i]})
		if err != nil {
			t.Fatal(err)
		}
		sites = append(sites, s)
		addrs = append(addrs, s.Addr())
	}
	co, err := netsite.Dial(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	gw := newGateway(co, gwOptions{cacheCap: 128})
	srv := httptest.NewServer(gw.routes())
	t.Cleanup(func() {
		srv.Close()
		co.Close()
		for _, s := range sites {
			s.Close()
		}
	})

	start := time.Now()
	m := getJSON(t, srv.URL+"/reach?s=0&t=11", 200)
	elapsed := time.Since(start)
	if m["answer"] != true {
		t.Fatalf("qr(0,11) = %v, want true", m["answer"])
	}
	if elapsed >= slow-100*time.Millisecond {
		t.Fatalf("anytime answer took %v; must beat the %v straggler", elapsed, slow)
	}
	wire := m["wire"].(map[string]any)
	if wire["early_terminated"] != true {
		t.Fatalf("wire JSON missing early_terminated: %v", wire)
	}
	if fa := time.Duration(wire["first_answer_us"].(float64)) * time.Microsecond; fa <= 0 || fa >= slow {
		t.Fatalf("first_answer_us = %v, want positive and ahead of the straggler", fa)
	}
	if _, ok := wire["cancel_frames"]; ok {
		t.Fatalf("wire JSON reports cancel frames, which no round writes: %v", wire)
	}

	st := getJSON(t, srv.URL+"/stats", 200)
	at, ok := st["anytime"].(map[string]any)
	if !ok {
		t.Fatalf("/stats missing anytime section: %v", st)
	}
	if at["enabled"] != true {
		t.Fatalf("anytime.enabled = %v, want true", at["enabled"])
	}
	if n := int64(at["early_terminations"].(float64)); n < 1 {
		t.Fatalf("early_terminations = %d, want >= 1", n)
	}
	if _, ok := at["cancels_sent"]; ok {
		t.Fatalf("anytime section reports cancels_sent, which no round writes: %v", at)
	}
	str, ok := at["stragglers"].([]any)
	if !ok || len(str) != 3 {
		t.Fatalf("stragglers = %v, want one counter per site", at["stragglers"])
	}
	if int64(str[2].(float64)) < 1 {
		t.Fatalf("slow site's straggler counter = %v, want >= 1", str[2])
	}
}
