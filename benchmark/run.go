package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"distreach/internal/fragment"
)

// runConfig is how one run was asked for.
type runConfig struct {
	seed    uint64
	seconds float64 // length of the timed rounds
	clients int
	trace   bool // also run the traced pass and the per-layer probes
	toy     bool // tests: small graphs and pools
	root    string
	jan     *janitor
}

// result is one workload's run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Note      string                 `json:"note,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`

	spans []span
}

// The run plan, the same on every commit: set up several times and keep the
// last; warm up; then rounds of [closed loop · open loop at rateMid · open
// loop at rateHi]. At the full length of 48 s a round is 6 s + 6 s + 4 s
// and the warm-up 3 s; a shorter run shortens all of them alike.
const numRounds = 3

// setups is how often the workload is set up. An in-process set-up takes
// some 50 ms, too short for a steady median of five.
func setups(sp spec) int {
	if sp.gateway {
		return 5
	}
	return 15
}

type plan struct{ warm, closed, mid, hi time.Duration }

func planFor(seconds float64) plan {
	unit := time.Duration(seconds / 48 * float64(time.Second))
	return plan{warm: 3 * unit, closed: 6 * unit, mid: 6 * unit, hi: 4 * unit}
}

type round struct{ closed, mid, hi *phase }

func qps(p *phase) float64 { return float64(p.completed) / p.elapsed.Seconds() }

// setUp deploys the workload's system once.
func setUp(sp spec, in *inputs, cfg runConfig, bin, graphFile string) (system, setupTimes, error) {
	probe := &in.pool[0]
	if sp.gateway {
		gw, st, err := startGateway(cfg.jan, bin, graphFile, cfg.clients, probe)
		if err != nil {
			return nil, st, err
		}
		return gw, st, nil
	}
	d, st, err := deploy(in.g.Clone(), sp.partitioner, cfg.seed, probe)
	if err != nil {
		return nil, st, err
	}
	return d, st, nil
}

// runWorkload runs the whole plan for one workload. An error means the run
// could not be carried out; a run that was carried out but saw failures
// comes back with Correct false.
func runWorkload(sp spec, cfg runConfig) (*result, error) {
	pl := planFor(cfg.seconds)
	m := metrics{}
	total := numRounds * (pl.closed + pl.mid + pl.hi)

	// Inputs, and for the gateway the graph file and the server binary.
	// None of this is part of the set-up time; it is load.prep_s.
	t0 := time.Now()
	in, err := generate(sp, cfg.seed, cfg.toy, total)
	if err != nil {
		return nil, err
	}
	m["graph.build_ms"] = in.buildMS
	var bin, graphFile string
	if sp.gateway {
		tmp := filepath.Join(buildDir(cfg.root), "tmp", fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
		defer cfg.jan.add(func() { os.RemoveAll(tmp) })()
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, err
		}
		graphFile = filepath.Join(tmp, "graph.txt")
		if err := writeGraph(graphFile, in.g); err != nil {
			return nil, err
		}
		if bin, err = buildServe(cfg.root); err != nil {
			return nil, err
		}
	}
	m["load.prep_s"] = time.Since(t0).Seconds()
	m["load.clients"] = float64(cfg.clients)
	m["load.true_share"] = in.trueShare

	// Set-up, several times over; the last one stays up for the run.
	var sys system
	times := make([]setupTimes, setups(sp))
	for i := range times {
		if sys != nil {
			sys.close()
		}
		if sys, times[i], err = setUp(sp, in, cfg, bin, graphFile); err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", sp.name, i+1, err)
		}
	}
	defer func() { sys.close() }()
	m["setup_s"] = medianOf(times, func(t setupTimes) float64 { return t.totalS })
	m["fragment.partition_ms"] = medianOf(times, func(t setupTimes) float64 { return t.partitionMS })
	m["reachindex.build_ms"] = medianOf(times, func(t setupTimes) float64 { return t.indexMS })
	m["serve.boot_ms"] = medianOf(times, func(t setupTimes) float64 { return t.bootMS })

	ld := load{tg: sys, sp: sp, in: in, clients: cfg.clients, seed: cfg.seed}
	ms, err := measure(ld, sys, pl)
	if err != nil {
		return nil, err
	}
	rs, before, after := ms.rounds, ms.before, ms.after
	m["mem_mb"] = median(ms.mem)

	res := &result{}
	all, closed, mid := &phase{}, &phase{}, &phase{}
	for _, r := range rs {
		closed.merge(r.closed)
		mid.merge(r.mid)
		for _, p := range []*phase{r.closed, r.mid, r.hi} {
			all.merge(p)
		}
	}
	res.Attempted = all.attempted + len(ms.writes) + ms.writeErrs
	res.Failed = all.failed() + ms.writeErrs
	if sp.replay {
		checked, wrong, err := replayCheck(in.g.Clone(), in.pool, ms.writes, all.records)
		if err != nil {
			res.Note = err.Error()
			res.Failed++
		}
		all.wrong += wrong
		res.Failed += wrong
		if checked == 0 {
			res.Note = "the LSN-replay oracle checked no answer"
			res.Failed++
		}
	}

	// End-to-end metrics: timings are medians of the per-round values,
	// counts are pooled over all phases.
	m["qps_closed"] = medianOf(rs, func(r round) float64 { return qps(r.closed) })
	wireBytes := float64(all.bytesSent + all.bytesRecv)
	if sp.gateway {
		// Replies of coalesced misses all repeat their shared round's
		// bytes, so the gateway's own totals are the exact count.
		wireBytes = float64(after.wireBytes - before.wireBytes)
	}
	m["wire_bytes_per_query"] = wireBytes / float64(max(all.completed, 1))

	// Per-layer metrics that fall out of the timed rounds.
	m["load.attempted"] = float64(res.Attempted)
	m["load.completed"] = float64(all.completed)
	m["load.errors"] = float64(all.errors + ms.writeErrs)
	m["load.wrong"] = float64(all.wrong)
	m["load.violations"] = float64(all.violations)
	m["load.updates"] = float64(len(ms.writes))
	m["load.update_p50_ms"] = updateP50(ms.writes)
	m["load.lateness_p99_ms"] = percentile(mid.late, 99)
	m["load.lat_p50_ms"] = medianOf(rs, func(r round) float64 { return percentile(r.mid.lat, 50) })
	m["load.lat_p95_ms"] = medianOf(rs, func(r round) float64 { return percentile(r.mid.lat, 95) })
	m["load.lat_p99_ms"] = percentile(mid.lat, 99)
	m["load.lat_max_ms"] = percentile(mid.lat, 100)
	m["load.hi_p95_ms"] = medianOf(rs, func(r round) float64 { return percentile(r.hi.lat, 95) })
	for c, name := range classNames {
		m["load.lat_p50_ms."+name] = medianOf(rs, func(r round) float64 { return percentile(r.mid.classLat[c], 50) })
	}
	perRound := make([]float64, len(rs))
	for i, r := range rs {
		perRound[i] = qps(r.closed)
		if backlog(r.hi.late) {
			m["load.hi_backlog"] = 1
		}
	}
	m["load.round_spread"] = relSpread(perRound)
	if n := float64(all.rounds); n > 0 {
		m["netsite.frames_per_query"] = float64(all.framesSent+all.framesRecv) / n
		m["netsite.partial_frames_per_query"] = float64(all.partialFrames) / n
		m["netsite.cancel_frames_per_query"] = float64(all.cancelFrames) / n
		m["netsite.early_term_ratio"] = float64(all.early) / n
		m["netsite.bytes_sent_per_query"] = float64(all.bytesSent) / n
		m["netsite.bytes_recv_per_query"] = float64(all.bytesRecv) / n
		m["netsite.first_answer_p50_us"] = median(all.firstAnswerUS)
	}
	probes := float64(after.idxHits + after.idxFallbacks - before.idxHits - before.idxFallbacks)
	m["reachindex.probes_per_query"] = probes / float64(max(all.completed, 1))
	if probes > 0 {
		m["reachindex.hit_ratio"] = float64(after.idxHits-before.idxHits) / probes
	}
	m["reachindex.rebuilds"] = float64(after.idxRebuilds - before.idxRebuilds)
	m["reachindex.label_bytes"] = float64(after.idxLabelBytes)
	if sp.gateway {
		if lookups := float64(after.cacheHits + after.cacheMisses - before.cacheHits - before.cacheMisses); lookups > 0 {
			m["serve.cache_hit_ratio"] = float64(after.cacheHits-before.cacheHits) / lookups
		}
		m["serve.cache_evictions"] = float64(after.cacheEvictions - before.cacheEvictions)
		if n := float64(after.coalRounds - before.coalRounds); n > 0 {
			m["serve.coalesce_mean_round"] = float64(after.coalQueries-before.coalQueries) / n
		}
		m["serve.rejected"] = float64(after.rejected - before.rejected)
		m["serve.hit_lat_p50_us"] = 1e3 * median(closed.hitLat)
		m["serve.miss_lat_p50_us"] = 1e3 * median(closed.missLat)
	}

	if cfg.trace {
		failed, err := probeLayers(sp, in, cfg, sys, bin, graphFile, pl, median(closed.lat), m, res)
		if err != nil {
			return nil, err
		}
		res.Failed += failed
	}
	m["load.fail_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.Correct = res.Failed == 0
	res.EndToEnd = m.table(endToEndDefs)
	if cfg.trace {
		res.PerLayer = m.table(perLayerDefs)
	}
	return res, nil
}

// measured is what the timed part of a run observed.
type measured struct {
	rounds        []round
	mem           []float64 // MiB, after each phase
	writes        []written
	writeErrs     int
	before, after counters // around the timed rounds
}

// measure runs the warm-up and then the timed rounds, with the workload's
// writer (if it has one) beside them.
func measure(ld load, sys system, pl plan) (*measured, error) {
	ld.closed(pl.warm, "warmup")
	ms := &measured{rounds: make([]round, numRounds)}
	var err error
	if ms.before, err = sys.counters(); err != nil {
		return nil, err
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		if rate := ld.sp.writeRate; rate > 0 {
			ms.writes, ms.writeErrs = writer(sys, ld.in.writes, time.Duration(float64(time.Second)/rate), stop)
		}
	}()
	var memErr, loadErr error
	sampleMem := func() {
		mb, err := sys.memMB()
		if err != nil {
			memErr = err
		}
		ms.mem = append(ms.mem, mb)
	}
	for i := range ms.rounds {
		r := &ms.rounds[i]
		r.closed = ld.closed(pl.closed, fmt.Sprintf("round%d/closed", i))
		sampleMem()
		if r.mid, loadErr = ld.open(ld.sp.rateMid, pl.mid, fmt.Sprintf("round%d/mid", i)); loadErr != nil {
			break
		}
		sampleMem()
		if r.hi, loadErr = ld.open(ld.sp.rateHi, pl.hi, fmt.Sprintf("round%d/hi", i)); loadErr != nil {
			break
		}
		sampleMem()
	}
	close(stop)
	<-stopped
	if err := errors.Join(loadErr, memErr); err != nil {
		return nil, err
	}
	if ms.after, err = sys.counters(); err != nil {
		return nil, err
	}
	return ms, nil
}

// updateP50 is the median latency of a write stream that alternates inserts
// and deletes; 0 without writes. The two kinds cost differently, so the plain median of the
// even mix would sit between two modes and flip from run to run; the mean
// of the two per-kind medians does not.
func updateP50(ws []written) float64 {
	var byKind [2][]float64
	for _, w := range ws {
		k := 0
		if w.op.Kind == fragment.OpDeleteEdge {
			k = 1
		}
		byKind[k] = append(byKind[k], w.ms)
	}
	if len(byKind[0]) == 0 || len(byKind[1]) == 0 {
		return median(append(byKind[0], byKind[1]...))
	}
	return (median(byKind[0]) + median(byKind[1])) / 2
}

// backlog reports whether an open-loop phase fell behind: the mean lateness
// of the second half of its arrivals is more than twice that of the first
// half, and more than a millisecond.
func backlog(late []float64) bool {
	h := len(late) / 2
	if h == 0 {
		return false
	}
	first, second := mean(late[:h]), mean(late[h:])
	return second > 2*first && second > 1
}

// probeLayers is the traced half of a run: the traced pass over a sample
// of the pool, and the probes that measure one layer each from outside. It
// fills m and res.spans and reports how many sampled answers were wrong.
func probeLayers(sp spec, in *inputs, cfg runConfig, sys system, bin, graphFile string, pl plan, closedP50MS float64, m metrics, res *result) (failed int, err error) {
	// The in-process layers are probed on the deployment that served the
	// run. The gateway keeps its deployment to itself, so there the same
	// graph and partition are deployed again, in this process.
	d, inProcess := sys.(*deployment)
	if !inProcess {
		if d, _, err = deploy(in.g.Clone(), sp.partitioner, cfg.seed, &in.pool[0]); err != nil {
			return 0, err
		}
		defer d.close()
	}
	bs := d.fr.BalanceStats()
	m["fragment.vf"] = float64(bs.Vf)
	m["fragment.cross_edges"] = float64(bs.CrossEdges)
	m["fragment.max_size"] = float64(bs.MaxSize)

	// What a sampled answer must be: the pool's expectation on a static
	// graph, centralized evaluation on the graph as the writes left it
	// otherwise (the writer has stopped, so it holds still).
	expect := func(q *query) bool { return q.want }
	if sp.replay {
		expect = func(q *query) bool {
			want, _ := centralized(d.fr.Graph(), q)
			return want
		}
	}
	rec := newSpanRecorder()
	samples, failed, err := tracedPass(d, in, cfg.seed, sampleSize(cfg.seconds), rec, expect)
	if err != nil {
		return failed, err
	}
	res.spans = rec.spans
	layerMetrics(samples, m)
	// What measuring one query at a time costs against the untraced
	// closed loop's median.
	if inProcess {
		m["load.trace_delta_us"] = m["netsite.round_us"] - 1e3*closedP50MS
	}
	if m["netsite.round_floor_us"], err = roundFloor(cfg.seed); err != nil {
		return failed, err
	}
	if m["fragment.apply_us"], err = applyCost(sp, in, cfg.seed); err != nil {
		return failed, err
	}
	if m["fragment.vf_edgecut"], err = edgecutVf(in, cfg.seed); err != nil {
		return failed, err
	}
	if !sp.gateway {
		return failed, nil
	}

	gw := sys.(*gateway)
	floor := make([]float64, 300)
	for i := range floor {
		t0 := time.Now()
		if status, err := gw.call("GET", "/healthz", nil, nil); err != nil || status != 200 {
			return failed, fmt.Errorf("GET /healthz: status %d: %v", status, err)
		}
		floor[i] = float64(time.Since(t0)) / 1e3
	}
	m["serve.http_floor_us"] = median(floor)
	qcacheCosts(in.pool, m)

	// Tracing's price: a second server with -trace=false, loaded in turns
	// with the default one, with the same queries.
	off, _, err := startGateway(cfg.jan, bin, graphFile, cfg.clients, &in.pool[0], "-trace=false")
	if err != nil {
		return failed, err
	}
	defer off.close()
	on := load{tg: gw, sp: sp, in: in, clients: cfg.clients, seed: cfg.seed}
	no := on
	no.tg = off
	no.closed(pl.warm, "ratio/warmup")
	var qpsOn, qpsOff []float64
	for i := 0; i < numRounds; i++ {
		tag := fmt.Sprintf("ratio%d", i)
		a, b := on.closed(pl.hi, tag), no.closed(pl.hi, tag)
		qpsOn, qpsOff = append(qpsOn, qps(a)), append(qpsOff, qps(b))
		failed += a.failed() + b.failed()
	}
	m["obs.trace_qps_ratio"] = median(qpsOff) / median(qpsOn)
	return failed, nil
}
