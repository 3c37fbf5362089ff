package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of ten = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty input must read 0")
	}
	// The rule for reported timings: the median of the per-round values,
	// not a percentile of the pooled samples.
	rounds := [][]float64{{1, 1, 100}, {2, 2, 2}, {3, 3, 3}}
	got := medianOf(rounds, func(r []float64) float64 { return percentile(r, 95) })
	if got != 3 {
		t.Errorf("median of per-round p95 = %v, want 3", got)
	}
	if got := relSpread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("relSpread = %v, want 0.2", got)
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	for _, sp := range specs {
		a, err := generate(sp, 7, true, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(sp, 7, true, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(sp, 8, true, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if a.g.NumEdges() != b.g.NumEdges() || !reflect.DeepEqual(keys(a.pool), keys(b.pool)) || !reflect.DeepEqual(a.writes, b.writes) {
			t.Errorf("%s: the same seed gave different inputs", sp.name)
		}
		if reflect.DeepEqual(keys(a.pool), keys(c.pool)) {
			t.Errorf("%s: seeds 7 and 8 gave the same pool", sp.name)
		}
		if a.trueShare != 0.5 {
			t.Errorf("%s: true share %v, want a balanced pool", sp.name, a.trueShare)
		}
		for _, q := range a.pool {
			if want, _ := centralized(a.g, &q); want != q.want {
				t.Fatalf("%s: pool says %v for class %d (%d,%d), the graph says %v", sp.name, q.want, q.class, q.s, q.t, want)
			}
		}
	}
	s1 := poissonSchedule(subRNG(3, "x"), 500, time.Second)
	s2 := poissonSchedule(subRNG(3, "x"), 500, time.Second)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("the same seed gave different arrival schedules")
	}
	if n := len(s1); n < 400 || n > 600 {
		t.Errorf("500/s for 1 s scheduled %d arrivals", n)
	}
	for i := 1; i < len(s1); i++ {
		if s1[i] < s1[i-1] || s1[i] >= time.Second {
			t.Fatalf("arrival %d at %v is out of order or past the phase", i, s1[i])
		}
	}
	p1, p2 := picker(subRNG(3, "p"), 100, 1.1), picker(subRNG(3, "p"), 100, 1.1)
	low := 0
	for i := 0; i < 1000; i++ {
		a, b := p1(), p2()
		if a != b {
			t.Fatal("the same seed gave different Zipf draws")
		}
		if a < 10 {
			low++
		}
	}
	if low < 400 {
		t.Errorf("Zipf(1.1) put only %d of 1000 draws on the ten hottest ranks", low)
	}
}

// An alarm never rings early, and a time that has passed does not wait.
func TestAlarm(t *testing.T) {
	al, err := newAlarm()
	if err != nil {
		t.Fatal(err)
	}
	defer al.close()
	for _, d := range []time.Duration{300 * time.Microsecond, 2 * time.Millisecond, 300 * time.Microsecond} {
		due := time.Now().Add(d)
		if err := al.until(due); err != nil {
			t.Fatal(err)
		}
		if early := time.Until(due); early > 0 {
			t.Errorf("the alarm set for %v rang %v early", d, early)
		}
	}
	t0 := time.Now()
	if err := al.until(t0.Add(-time.Second)); err != nil || time.Since(t0) > 100*time.Millisecond {
		t.Errorf("an alarm for a time that has passed: %v after %v", err, time.Since(t0))
	}
}

// keys strips the pool down to comparable values (automata are pointers).
func keys(pool []query) [][4]int {
	out := make([][4]int, len(pool))
	for i, q := range pool {
		out[i] = [4]int{q.class, int(q.s), int(q.t), q.l}
	}
	return out
}

func TestShortcutEdgesKeepReachability(t *testing.T) {
	g := cutGraph(5, 300)
	edges, err := shortcutEdges(g, subRNG(5, "writes"), 20)
	if err != nil {
		t.Fatal(err)
	}
	closure := func(g *graph.Graph) [][]bool {
		out := make([][]bool, g.NumNodes())
		for v := range out {
			out[v] = g.Descendants(graph.NodeID(v))
		}
		return out
	}
	before := closure(g)
	h := g.Clone()
	for _, e := range edges {
		if g.HasEdge(e[0], e[1]) {
			t.Fatalf("shortcut %v is already an edge", e)
		}
		if !h.InsertEdge(e[0], e[1]) {
			t.Fatalf("shortcut %v listed twice", e)
		}
	}
	if !reflect.DeepEqual(before, closure(h)) {
		t.Error("inserting the shortcut edges changed reachability")
	}
	ops := shortcutOps(edges)
	for i := 0; i < len(ops); i += 2 {
		if ops[i].Kind != fragment.OpInsertEdge || ops[i+1].Kind != fragment.OpDeleteEdge || ops[i].U != ops[i+1].U || ops[i].V != ops[i+1].V {
			t.Fatalf("ops %d and %d do not insert and then delete one edge", i, i+1)
		}
	}
}

func TestReplayOracle(t *testing.T) {
	g := gen.PowerLaw(gen.Config{Nodes: 50, Edges: 120, Labels: nodeLabels, Seed: 11})
	pool, err := mixedPool(g, subRNG(11, "pool"), 12)
	if err != nil {
		t.Fatal(err)
	}
	ops := churnOps(g, subRNG(11, "writes"), 10)
	writes := make([]written, len(ops))
	for i, op := range ops {
		writes[i] = written{op: op, lsn: uint64(i + 1)}
	}
	// Honest answers: evaluate every pool query on the graph as it stands
	// at every log position.
	var recs []record
	h := g.Clone()
	for lsn := 0; lsn <= len(ops); lsn++ {
		if lsn > 0 {
			if op := ops[lsn-1]; op.Kind == fragment.OpInsertEdge {
				h.InsertEdge(op.U, op.V)
			} else {
				h.DeleteEdge(op.U, op.V)
			}
		}
		for qi := range pool[:6] {
			ans, dist := centralized(h, &pool[qi])
			recs = append(recs, record{qi: qi, answer: ans, dist: dist, lsn: uint64(lsn)})
		}
	}
	checked, wrong, err := replayCheck(g.Clone(), pool, writes, recs)
	if err != nil || wrong != 0 {
		t.Fatalf("honest answers: %d wrong, error %v", wrong, err)
	}
	if want := (len(ops) + 1) * 6; checked != want {
		t.Errorf("checked %d answers, want %d (two per class at each of %d positions)", checked, want, len(ops)+1)
	}
	// One deliberately wrong answer, at a position in the middle of the
	// log, must be caught.
	lie := append([]record(nil), recs...)
	lie[6*4].answer = !lie[6*4].answer
	if _, wrong, err = replayCheck(g.Clone(), pool, writes, lie); err != nil || wrong != 1 {
		t.Errorf("one flipped answer: %d caught, error %v", wrong, err)
	}
	// A true qbr answer with the wrong distance is wrong as well.
	for i, r := range recs {
		if pool[r.qi].class == classQBR && r.answer {
			lie = append([]record(nil), recs...)
			lie[i].dist++
			if _, wrong, _ = replayCheck(g.Clone(), pool, writes, lie); wrong != 1 {
				t.Errorf("a wrong distance went unnoticed")
			}
			break
		}
	}
	// A gap in the log means the graph at a position is unknown.
	gap := append([]written(nil), writes...)
	gap[3].lsn = 99
	if _, _, err = replayCheck(g.Clone(), pool, gap, recs); err == nil {
		t.Error("a gap in the LSNs was accepted")
	}
}

// liar answers every query with the opposite of the truth.
type liar struct{}

func (liar) query(q *query) (outcome, error)   { return outcome{answer: !q.want}, nil }
func (liar) write(fragment.Op) (uint64, error) { return 0, nil }

func TestWrongAnswersFailTheRun(t *testing.T) {
	in, err := generate(specs[0], 1, true, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ld := load{tg: liar{}, sp: specs[0], in: in, clients: 2, seed: 1}
	p, err := ld.open(200, 50*time.Millisecond, "test")
	if err != nil {
		t.Fatal(err)
	}
	if p.attempted == 0 || p.wrong != p.attempted || p.completed != 0 || p.failed() != p.attempted {
		t.Errorf("attempted %d, wrong %d, completed %d: every answer was a lie", p.attempted, p.wrong, p.completed)
	}
	// More than one final frame per site breaks guarantee (1).
	var ph phase
	q := in.pool[0]
	ph.issue(frames{numSites + 1}, []query{q}, 0, time.Now(), false)
	ph.issue(frames{numSites}, []query{q}, 0, time.Now(), false)
	if ph.violations != 1 || ph.completed != 1 {
		t.Errorf("violations %d, completed %d, want 1 and 1", ph.violations, ph.completed)
	}
}

// frames answers truthfully but claims n final frames for one round.
type frames struct{ n int64 }

func (f frames) query(q *query) (outcome, error) {
	return outcome{answer: q.want, wire: wireCount{framesSent: numSites, framesRecv: f.n}}, nil
}
func (frames) write(fragment.Op) (uint64, error) { return 0, nil }

func TestInProcessWorkloadsAtToySize(t *testing.T) {
	for _, sp := range specs {
		if sp.gateway {
			continue
		}
		res, err := runWorkload(sp, runConfig{seed: 3, seconds: 0.96, clients: 2, trace: true, toy: true, jan: &janitor{}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d (%s)", sp.name, res.Correct, res.Attempted, res.Failed, res.Note)
		}
		for _, d := range endToEndDefs {
			if v := res.EndToEnd[d.name]; !(v.Value > 0) || v.Unit != d.unit {
				t.Errorf("%s: %s = %v %s, want a positive value in %s", sp.name, d.name, v.Value, v.Unit, d.unit)
			}
		}
		if len(res.PerLayer) != len(perLayerDefs) {
			t.Errorf("%s: %d per-layer metrics, want %d", sp.name, len(res.PerLayer), len(perLayerDefs))
		}
		for _, name := range []string{"core.partial_bytes", "netsite.round_us", "netsite.round_floor_us", "bes.solve_us", "fragment.vf", "reachindex.probes_per_query"} {
			if !(res.PerLayer[name].Value > 0) {
				t.Errorf("%s: %s = %v, want a positive value", sp.name, name, res.PerLayer[name].Value)
			}
		}
		if len(res.spans) == 0 {
			t.Errorf("%s: the traced pass left no spans", sp.name)
		}
		for _, s := range res.spans {
			if s.EndNS < s.StartNS || (s.Parent >= 0 && res.spans[s.Parent].Query != s.Query) {
				t.Fatalf("%s: span %+v is malformed", sp.name, s)
			}
		}
	}
}

func TestSpanBudgetSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "query", StartNS: 0, EndNS: 10000},
		{ID: 1, Parent: 0, Name: "eval", StartNS: 1000, EndNS: 5000},
		{ID: 2, Parent: 1, Name: "eval.fragment", StartNS: 1000, EndNS: 2000},
		{ID: 3, Parent: 1, Name: "eval.fragment", StartNS: 2000, EndNS: 4500},
	}
	rows := map[string]budgetRow{}
	for _, r := range budget(spans) {
		rows[r.name] = r
	}
	if r := rows["query"]; r.medUS != 10 || r.selfMed != 6 {
		t.Errorf("query: %+v, want 10 us with 6 us of its own", r)
	}
	if r := rows["eval"]; r.medUS != 4 || r.selfMed != 0.5 {
		t.Errorf("eval: %+v, want 4 us with 0.5 us of its own", r)
	}
	if r := rows["eval.fragment"]; r.count != 2 || r.medUS != 1.75 {
		t.Errorf("eval.fragment: %+v, want 2 spans with a median of 1.75 us", r)
	}
}

// TestDeclarationMatches keeps BENCHMARK.json and the metric tables of this
// package in step.
func TestDeclarationMatches(t *testing.T) {
	var decl declared
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(specs))
	}
	for i, w := range decl.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q here", i, w.Name, specs[i].name)
		}
	}
	if len(decl.EndToEnd) != len(endToEndDefs) || len(decl.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, this package %d+%d", len(decl.EndToEnd), len(decl.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	for i, d := range decl.EndToEnd {
		if d.Name != endToEndDefs[i].name || d.Unit != endToEndDefs[i].unit || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v against %+v", i, d, endToEndDefs[i])
		}
	}
	for i, d := range decl.PerLayer {
		if d.Name != perLayerDefs[i].name || d.Unit != perLayerDefs[i].unit {
			t.Errorf("per-layer metric %d: %+v against %+v", i, d, perLayerDefs[i])
		}
	}
}

func TestCheckFindsABreach(t *testing.T) {
	if got := worsening(100, 111, "lower"); math.Abs(got-0.11) > 1e-12 {
		t.Errorf("111 against 100, lower is better: worse by %v, want 0.11", got)
	}
	if got := worsening(100, 90, "higher"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("90 against 100, higher is better: worse by %v, want 0.1", got)
	}
	if got := worsening(100, 120, "higher"); got >= 0 {
		t.Errorf("120 against 100, higher is better: worse by %v, want a gain", got)
	}
	var decl declared
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &decl); err != nil {
		t.Fatal(err)
	}
	m := metrics{"setup_s": 1, "qps_closed": 100, "wire_bytes_per_query": 10, "mem_mb": 5}
	file := func(name string, m metrics, failed int, edit func(*resultsFile)) string {
		path := filepath.Join(t.TempDir(), name)
		res := &result{Correct: failed == 0, Attempted: 100, Failed: failed, EndToEnd: m.table(endToEndDefs)}
		f := resultsFile{Schema: resultsSchema, Seed: 1, Seconds: 20, Clients: 2, Workloads: map[string]*result{"reach_cut": res}}
		if edit != nil {
			edit(&f)
		}
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, _ = os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stderr = os.Stdout
	defer func() { os.Stdout, os.Stderr = stdout, stderr }()
	base := file("a.json", m, 0, nil)
	if code := runCheck(decl, base, file("same.json", m, 0, nil)); code != 0 {
		t.Errorf("identical results: exit %d", code)
	}
	with := func(name string, v float64) metrics {
		c := metrics{}
		for k, x := range m {
			c[k] = x
		}
		c[name] = v
		return c
	}
	// 2% fewer is within any bound this benchmark would declare, 30% fewer
	// beyond the largest the contract allows.
	if code := runCheck(decl, base, file("slower.json", with("qps_closed", 98), 0, nil)); code != 0 {
		t.Errorf("a 2%% throughput loss: exit %d, want 0", code)
	}
	if code := runCheck(decl, base, file("slow.json", with("qps_closed", 70), 0, nil)); code != 1 {
		t.Errorf("a 30%% throughput loss: exit %d, want 1", code)
	}
	if code := runCheck(decl, base, file("failing.json", m, 1, nil)); code != 1 {
		t.Errorf("a new failure: exit %d, want 1", code)
	}
	// A metric that reads 0 was not measured; it is no gain, on either side.
	if code := runCheck(decl, base, file("unmeasured.json", with("wire_bytes_per_query", 0), 0, nil)); code != 1 {
		t.Errorf("wire_bytes_per_query 0 in B: exit %d, want 1", code)
	}
	if code := runCheck(decl, file("unmeasured-a.json", with("mem_mb", 0), 0, nil), base); code != 1 {
		t.Errorf("mem_mb 0 in A: exit %d, want 1", code)
	}
	// Files from different plans are refused, not compared.
	for name, edit := range map[string]func(*resultsFile){
		"seed":     func(f *resultsFile) { f.Seed = 2 },
		"seconds":  func(f *resultsFile) { f.Seconds = 48 },
		"clients":  func(f *resultsFile) { f.Clients = 4 },
		"schema":   func(f *resultsFile) { f.Schema = "other/v0" },
		"dropped":  func(f *resultsFile) { f.Workloads = map[string]*result{} },
		"addition": func(f *resultsFile) { f.Workloads["reach_local"] = f.Workloads["reach_cut"] },
	} {
		if code := runCheck(decl, base, file(name+".json", m, 0, edit)); code != 2 {
			t.Errorf("B with another %s: exit %d, want 2", name, code)
		}
	}
}
