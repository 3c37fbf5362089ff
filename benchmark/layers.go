package main

import (
	"fmt"
	"sort"
	"time"

	"distreach/internal/bes"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/graph"
	"distreach/internal/qcache"
	"distreach/internal/reachindex"
)

// The traced pass: after the timed rounds a fixed sample of pool queries is
// replayed one at a time, and this file — the benchmark's own code — opens
// a span around each call into a layer: per-fragment local evaluation,
// partial encode and decode, the equation solve, and the whole Coordinator
// round with anytime answers on and then off. Nothing inside the program
// is instrumented; every number here is measured from outside.

// span is one timed step of one sampled query. Times are nanoseconds since
// the recorder was made; Parent is the ID of the enclosing span, -1 for a
// root; spans of one query share Query.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Query   int    `json:"query"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the benchmark ends. It is used
// from one goroutine.
type spanRecorder struct {
	epoch time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

func (r *spanRecorder) begin(name string, parent, query int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Query: query, StartNS: int64(time.Since(r.epoch))})
	return id
}

// end closes span id and reports its duration in microseconds.
func (r *spanRecorder) end(id int) float64 {
	s := &r.spans[id]
	s.EndNS = int64(time.Since(r.epoch))
	return float64(s.EndNS-s.StartNS) / 1e3
}

// budgetRow is one line of the span budget: a span name, how many spans
// carry it, and the medians of their duration and self time.
type budgetRow struct {
	name           string
	count          int
	medUS, selfMed float64
}

// budget folds spans by name. A span's self time is its duration minus the
// durations of its children (which run one after the other).
func budget(spans []span) []budgetRow {
	self := make([]float64, len(spans))
	for _, s := range spans {
		d := float64(s.EndNS-s.StartNS) / 1e3
		self[s.ID] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.EndNS-s.StartNS)/1e3)
		selfs[s.Name] = append(selfs[s.Name], self[s.ID])
	}
	rows := make([]budgetRow, 0, len(durs))
	for name, d := range durs {
		rows = append(rows, budgetRow{name: name, count: len(d), medUS: median(d), selfMed: median(selfs[name])})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

// partial is a fragment's partial answer of any query class.
type partial interface {
	MarshalBinary() ([]byte, error)
}

// steps adapts one query to the calls the traced pass times.
type steps struct {
	eval   func(f *fragment.Fragment, opt *core.Options) partial
	decode func(b []byte) (partial, error)
	// solve assembles the partials and decides the query; vars and edges
	// size the equation system where the solver exposes them (qr).
	solve func(ps []partial) (answer bool, vars, edges int)
}

func stepsFor(q *query) steps {
	switch q.class {
	case classQBR:
		return steps{
			eval: func(f *fragment.Fragment, _ *core.Options) partial { return core.LocalEvalDist(f, q.s, q.t, q.l) },
			decode: func(b []byte) (partial, error) {
				p := new(core.DistPartial)
				return p, p.UnmarshalBinary(b)
			},
			solve: func(ps []partial) (bool, int, int) {
				typed := make([]*core.DistPartial, len(ps))
				for i, p := range ps {
					typed[i] = p.(*core.DistPartial)
				}
				return core.SolveDist(typed, q.s) <= int64(q.l), 0, 0
			},
		}
	case classQRR:
		return steps{
			eval: func(f *fragment.Fragment, _ *core.Options) partial { return core.LocalEvalRPQ(f, q.s, q.t, q.a) },
			decode: func(b []byte) (partial, error) {
				p := new(core.RPQPartial)
				return p, p.UnmarshalBinary(b)
			},
			solve: func(ps []partial) (bool, int, int) {
				typed := make([]*core.RPQPartial, len(ps))
				for i, p := range ps {
					typed[i] = p.(*core.RPQPartial)
				}
				return core.SolveRPQ(typed, q.s, q.a), 0, 0
			},
		}
	default:
		return steps{
			eval: func(f *fragment.Fragment, opt *core.Options) partial { return core.LocalEvalReach(f, q.s, q.t, opt) },
			decode: func(b []byte) (partial, error) {
				p := new(core.ReachPartial)
				return p, p.UnmarshalBinary(b)
			},
			solve: func(ps []partial) (bool, int, int) {
				sys := bes.New[graph.NodeID]()
				for _, p := range ps {
					p.(*core.ReachPartial).AddToSystem(sys)
				}
				return sys.Decide(q.s), sys.NumVars(), sys.NumEdges()
			},
		}
	}
}

// sampled is what the traced pass measured for one query.
type sampled struct {
	class                        int
	evalSum, evalMax, noIndexSum float64 // us
	encode, decode, solve        float64 // us
	round, roundStrict           float64 // us
	eqs, partialBytes            float64
	vars, edges                  float64
	bytesStrict                  float64
}

// sampleSize is how many pool queries the traced pass replays: 200 at the
// full 48 s run length, fewer (but at least 30) when the run is shorter.
func sampleSize(seconds float64) int {
	n := int(200 * seconds / 48)
	return max(30, min(n, 200))
}

// tracedPass replays a seeded sample of the pool against d, one query at a
// time, and reports what each step cost. Every sampled query is answered
// three ways — composed here from the layers, by the Coordinator with
// anytime answers, and by the Coordinator in strict mode — and all three
// must equal expect(q); failed counts those that do not.
func tracedPass(d *deployment, in *inputs, seed uint64, n int, rec *spanRecorder, expect func(q *query) bool) (out []sampled, failed int, err error) {
	rng := subRNG(seed, "sample")
	frags := d.fr.Fragments()
	for i := 0; i < n; i++ {
		q := &in.pool[rng.Intn(len(in.pool))]
		st := stepsFor(q)
		sm := sampled{class: q.class}
		root := rec.begin("query", -1, i)

		d.fr.RLock()
		ev := rec.begin("eval", root, i)
		parts := make([]partial, len(frags))
		for fi, f := range frags {
			id := rec.begin("eval.fragment", ev, i)
			parts[fi] = st.eval(f, nil)
			us := rec.end(id)
			sm.evalSum += us
			sm.evalMax = max(sm.evalMax, us)
		}
		rec.end(ev)
		if q.class == classQR {
			id := rec.begin("eval.noindex", root, i)
			for _, f := range frags {
				st.eval(f, &core.Options{NoFragmentIndex: true})
			}
			sm.noIndexSum = rec.end(id)
		}
		d.fr.RUnlock()

		blobs := make([][]byte, len(parts))
		id := rec.begin("encode", root, i)
		for fi, p := range parts {
			if blobs[fi], err = p.MarshalBinary(); err != nil {
				return nil, failed, err
			}
		}
		sm.encode = rec.end(id)
		for fi, b := range blobs {
			sm.partialBytes += float64(len(b))
			if rp, ok := parts[fi].(*core.ReachPartial); ok {
				sm.eqs += float64(rp.NumEqs())
			}
		}

		decoded := make([]partial, len(blobs))
		id = rec.begin("decode", root, i)
		for fi, b := range blobs {
			if decoded[fi], err = st.decode(b); err != nil {
				return nil, failed, err
			}
		}
		sm.decode = rec.end(id)

		id = rec.begin("solve", root, i)
		composed, vars, edges := st.solve(decoded)
		sm.solve = rec.end(id)
		sm.vars, sm.edges = float64(vars), float64(edges)

		id = rec.begin("round.anytime", root, i)
		fast, err := d.query(q)
		sm.round = rec.end(id)
		if err != nil {
			return nil, failed, fmt.Errorf("traced round: %w", err)
		}
		d.co.SetAnytime(false)
		id = rec.begin("round.strict", root, i)
		strict, err := d.query(q)
		sm.roundStrict = rec.end(id)
		d.co.SetAnytime(true)
		if err != nil {
			return nil, failed, fmt.Errorf("traced strict round: %w", err)
		}
		sm.bytesStrict = float64(strict.wire.bytesSent + strict.wire.bytesRecv)
		rec.end(root)

		if want := expect(q); composed != want || fast.answer != want || strict.answer != want {
			failed++
		}
		out = append(out, sm)
	}
	return out, failed, nil
}

// pluck reports f over the samples (of one class, or of all with class -1).
func pluck(ss []sampled, class int, f func(sampled) float64) []float64 {
	var out []float64
	for _, s := range ss {
		if class < 0 || s.class == class {
			out = append(out, f(s))
		}
	}
	return out
}

// layerMetrics turns the samples into the core.*, bes.* and netsite.*
// per-layer metrics. Timings are medians over the sample, counts are means.
func layerMetrics(ss []sampled, m metrics) {
	med := func(f func(sampled) float64) float64 { return median(pluck(ss, -1, f)) }
	m["core.local_eval_sum_us"] = med(func(s sampled) float64 { return s.evalSum })
	m["core.local_eval_max_us"] = med(func(s sampled) float64 { return s.evalMax })
	m["core.local_eval_noindex_sum_us"] = median(pluck(ss, classQR, func(s sampled) float64 { return s.noIndexSum }))
	for c, name := range classNames {
		m["core.local_eval_sum_us."+name] = median(pluck(ss, c, func(s sampled) float64 { return s.evalSum }))
	}
	m["core.eqs_per_query"] = mean(pluck(ss, classQR, func(s sampled) float64 { return s.eqs }))
	m["core.partial_bytes"] = mean(pluck(ss, -1, func(s sampled) float64 { return s.partialBytes }))
	m["core.encode_us"] = med(func(s sampled) float64 { return s.encode })
	m["core.decode_us"] = med(func(s sampled) float64 { return s.decode })
	m["bes.solve_us"] = med(func(s sampled) float64 { return s.solve })
	m["bes.vars_per_query"] = mean(pluck(ss, classQR, func(s sampled) float64 { return s.vars }))
	m["bes.edges_per_query"] = mean(pluck(ss, classQR, func(s sampled) float64 { return s.edges }))
	m["netsite.round_us"] = med(func(s sampled) float64 { return s.round })
	m["netsite.round_strict_us"] = med(func(s sampled) float64 { return s.roundStrict })
	m["netsite.bytes_strict_per_query"] = mean(pluck(ss, -1, func(s sampled) float64 { return s.bytesStrict }))
	m["netsite.overhead_us"] = med(func(s sampled) float64 {
		return s.round - (s.evalMax + s.encode + s.decode + s.solve)
	})
}

// roundFloor measures what a round costs when there is nothing to
// evaluate: the same k sites over an 8-node ring, so only framing, the
// site queue and the coordinator's demultiplexer are left.
func roundFloor(seed uint64) (float64, error) {
	b := graph.NewBuilder(8)
	for v := 0; v < 8; v++ {
		b.AddNode(nodeLabels[0])
	}
	for v := 0; v < 8; v++ {
		b.AddEdge(graph.NodeID(v), graph.NodeID((v+1)%8))
	}
	q := &query{class: classQR, s: 0, t: 5, want: true}
	d, _, err := deploy(b.MustBuild(), "contiguous", seed, q)
	if err != nil {
		return 0, err
	}
	defer d.close()
	us := make([]float64, 300)
	for i := range us {
		t0 := time.Now()
		if o, err := d.query(q); err != nil || !o.answer {
			return 0, fmt.Errorf("floor round: answer %v, error %v", o.answer, err)
		}
		us[i] = float64(time.Since(t0)) / 1e3
	}
	return median(us), nil
}

// applyCost times single-op batches on a private replica of the workload's
// graph: the fragmentation write lock, the mutation and the index
// invalidation, without the wire. Each op waits out the index rebuild the
// previous one started, which would otherwise hold the lock against it.
func applyCost(sp spec, in *inputs, seed uint64) (float64, error) {
	p, err := fragment.ByName(sp.partitioner, seed)
	if err != nil {
		return 0, err
	}
	fr, err := fragment.Partition(in.g.Clone(), p, numSites)
	if err != nil {
		return 0, err
	}
	fr.EnableReachIndex(reachindex.DefaultBudget)
	fr.WaitReachIndexes()
	rep := fragment.NewReplica(fr)
	ops := in.writes[:min(probeWrites, len(in.writes))]
	us := make([]float64, len(ops))
	for i, op := range ops {
		t0 := time.Now()
		if _, _, err := rep.ApplyLSN(uint64(i+1), 1, []fragment.Op{op}); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(t0)) / 1e3
		fr.WaitReachIndexes()
	}
	return median(us), nil
}

// edgecutVf reports |Vf| under the edgecut partitioner, the diagnostic a
// later partitioner issue starts from.
func edgecutVf(in *inputs, seed uint64) (float64, error) {
	p, err := fragment.ByName("edgecut", seed)
	if err != nil {
		return 0, err
	}
	fr, err := fragment.Partition(in.g.Clone(), p, numSites)
	if err != nil {
		return 0, err
	}
	return float64(fr.BalanceStats().Vf), nil
}

// qcacheCosts times direct calls on a 4,096-entry cache (the gateway's
// default) filled with the pool's keys.
func qcacheCosts(pool []query, m metrics) {
	const capacity = 4096
	keys := make([]string, len(pool))
	for i, q := range pool {
		keys[i] = qcache.ReachKey(q.s, q.t)
	}
	c := qcache.New[bool](capacity)
	fill := func() {
		for i, k := range keys {
			c.PutTagged(k, true, []int{i % numSites})
		}
	}
	fill()
	t0 := time.Now()
	fill()
	m["qcache.put_ns"] = float64(time.Since(t0)) / float64(len(keys))
	// After a fill the last `capacity` keys are resident.
	resident := keys[max(0, len(keys)-capacity):]
	const gets = 200000
	t0 = time.Now()
	for i := 0; i < gets; i++ {
		c.Get(resident[i%len(resident)])
	}
	m["qcache.get_hit_ns"] = float64(time.Since(t0)) / gets
	evict := make([]float64, 5)
	for i := range evict {
		fill()
		t0 = time.Now()
		c.EvictFragments([]int{0})
		evict[i] = float64(time.Since(t0)) / 1e3
	}
	m["qcache.evict_fragments_us"] = median(evict)
}
