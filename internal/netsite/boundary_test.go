package netsite

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/obs"
	"distreach/internal/oplog"
)

// bfsAssign places nodes on k fragments in BFS discovery order, cut into k
// equal consecutive blocks: a locality-shaped fragmentation no shipped
// partitioner produces.
func bfsAssign(g *graph.Graph, k int) []int {
	n, placed := g.NumNodes(), 0
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	for r := 0; r < n; r++ {
		if assign[r] >= 0 {
			continue
		}
		g.BFS(graph.NodeID(r), func(v graph.NodeID, _ int) bool {
			if assign[v] < 0 {
				assign[v] = placed * k / n
				placed++
			}
			return true
		})
	}
	return assign
}

// cacheDeployment is what TestBoundaryCacheCrossCheck drives: k sites, each
// over its own replica (the separate-process shape: nothing shared behind
// the wire) — or, for TestBoundaryCacheCrossCheckShared, all over one — one
// long-lived coordinator whose boundary cache is under test, a second
// gateway writing under the same sequencer, and an unfragmented oracle that
// every mutation is mirrored into.
type cacheDeployment struct {
	t      *testing.T
	rng    *gen.RNG
	labels []string
	shared bool                // the sites share reps[0]
	reps   []*fragment.Replica // one per site, or the one shared
	sites  []*Site
	addrs  []string
	co     *Coordinator // queries and writes; the cache under test
	co2    *Coordinator // the second gateway: writes only
	aud    *obs.Auditor // co's: per-site rows hits and misses
	oracle *fragment.Fragmentation
	epoch  uint64

	// Shared replica only: the last strict round's batch, the sites it
	// posted to, and how many such rounds skipped a site.
	batch   []BatchQuery
	posted  []bool
	skipped int
}

func (d *cacheDeployment) close() {
	d.co.Close()
	d.co2.Close()
	for _, s := range d.sites {
		s.Close()
	}
}

// live picks a node the oracle still has.
func (d *cacheDeployment) live() graph.NodeID {
	g := d.oracle.Graph()
	for {
		if v := graph.NodeID(d.rng.Intn(g.NumNodes())); !g.Deleted(v) {
			return v
		}
	}
}

// shipped snapshots, per site, the count of finals that carried rows in
// full and of those that carried a delta.
func (d *cacheDeployment) shipped() (full, delta []int64) {
	full, delta = make([]int64, len(d.sites)), make([]int64, len(d.sites))
	for i := range full {
		_, full[i] = d.aud.RowsReplies(i)
		delta[i] = d.aud.RowsPatches(i)
	}
	return full, delta
}

// mirror applies ops to the oracle; the deployment applied them already.
func (d *cacheDeployment) mirror(step string, ops []Op) fragment.ApplyResult {
	res, err := d.oracle.Apply(ops)
	if err != nil {
		d.t.Fatalf("%s: oracle rejected a batch the deployment took: %v", step, err)
	}
	return res
}

// restore round-trips a replica's state through a snapshot: the same
// graph and placement in a new Fragmentation value, hence a new instance.
func (d *cacheDeployment) restore(rep *fragment.Replica) (*fragment.Fragmentation, uint64, uint64) {
	snap, err := oplog.TakeSnapshot(rep)
	if err != nil {
		d.t.Fatal(err)
	}
	enc, err := oplog.EncodeSnapshot(snap)
	if err != nil {
		d.t.Fatal(err)
	}
	dec, err := oplog.DecodeSnapshot(enc)
	if err != nil {
		d.t.Fatal(err)
	}
	return dec.Fr, snap.Epoch, snap.LSN
}

// Strict round shapes: what a strictRound batch holds. Each needs the rows.
const (
	roundReach = iota // one reach query
	roundDist         // distance queries only
	roundMixed        // a reach, a distance and a regex query
	roundShapes
)

// strictRound runs one strict round of the given shape, checks every
// answer against the oracle and reports, per site, what its final did
// about its rows (obs.RowsNone: no rows shipped). A strict round also
// leaves every site's rows in the cache, whatever came before.
func (d *cacheDeployment) strictRound(step string, shape int) []obs.RowsOutcome {
	d.co.SetAnytime(false)
	defer d.co.SetAnytime(true)
	var batch []BatchQuery
	add := func(q BatchQuery) {
		q.S, q.T = d.live(), d.live()
		for q.S == q.T {
			q.T = d.live()
		}
		batch = append(batch, q)
	}
	if shape != roundDist {
		add(BatchQuery{Class: ClassReach})
	}
	if shape != roundReach {
		add(BatchQuery{Class: ClassDist, L: 1 + d.rng.Intn(8)})
	}
	switch shape {
	case roundDist:
		add(BatchQuery{Class: ClassDist, L: 1 + d.rng.Intn(8)})
	case roundMixed:
		add(BatchQuery{Class: ClassRPQ, A: automaton.Random(d.rng, 2+d.rng.Intn(2), 3+d.rng.Intn(4), d.labels)})
	}
	step = fmt.Sprintf("%s, strict round %d", step, shape)
	fullBefore, deltaBefore := d.shipped()
	posts := make([]int64, len(d.sites))
	for i := range posts {
		posts[i] = d.aud.Posts(i)
	}
	answers, st, err := d.co.Batch(batch)
	if err != nil {
		d.t.Fatalf("%s: %v", step, err)
	}
	d.check(step, batch, answers)
	if d.shared {
		// Which sites were posted is wantFull's to judge, with the dirty set.
		d.batch, d.posted = batch, make([]bool, len(d.sites))
		var n int64
		for i := range posts {
			if d.posted[i] = d.aud.Posts(i) > posts[i]; d.posted[i] {
				n++
			}
		}
		if st.FramesSent != n || st.FramesReceived != n {
			d.t.Fatalf("%s: strict round cost %d/%d frames over the %d sites it posted to", step, st.FramesSent, st.FramesReceived, n)
		}
		if v := d.aud.Summary().VisitViolations; v != 0 {
			d.t.Fatalf("%s: %d sites posted twice in one attempt", step, v)
		}
	} else if n := int64(len(d.sites)); st.FramesSent != n || st.FramesReceived != n {
		d.t.Fatalf("%s: strict round cost %d/%d frames over %d sites: a miss must be answered in the frame that reports it",
			step, st.FramesSent, st.FramesReceived, n)
	}
	out := make([]obs.RowsOutcome, len(d.sites))
	var nfull, ndelta int64
	full, delta := d.shipped()
	for i := range out {
		switch {
		case full[i] > fullBefore[i]:
			out[i] = obs.RowsMiss
			nfull++
		case delta[i] > deltaBefore[i]:
			out[i] = obs.RowsPatch
			ndelta++
		}
	}
	if nfull+ndelta != st.RowsReplies || ndelta != st.RowsDeltas {
		d.t.Fatalf("%s: WireStats counts %d rows replies, %d of them deltas; the auditor %d full and %d deltas",
			step, st.RowsReplies, st.RowsDeltas, nfull, ndelta)
	}
	return out
}

// wantFull asserts that exactly the given sites shipped rows, each the way
// want says: obs.RowsMiss for full rows, obs.RowsPatch for a delta.
func (d *cacheDeployment) wantFull(step string, got []obs.RowsOutcome, dirty []int, want obs.RowsOutcome) {
	wantAll := make([]obs.RowsOutcome, len(got))
	dirtied := make([]bool, len(got))
	for _, fi := range dirty {
		wantAll[fi], dirtied[fi] = want, true
	}
	if !slices.Equal(got, wantAll) {
		d.t.Fatalf("%s: rows shipped per site %v, want %v from exactly the dirty set %v", step, got, wantAll, dirty)
	}
	if d.shared {
		d.wantPosted(step, dirtied)
	}
}

// wantPosted asserts that the last strict round over a shared replica
// posted to every site, or to exactly the owners of its nodes plus the
// dirty sites; a round with a regex query to every site.
func (d *cacheDeployment) wantPosted(step string, dirty []bool) {
	fr, _ := d.reps[0].Current()
	want := slices.Clone(dirty)
	for _, q := range d.batch {
		if q.Class == ClassRPQ {
			want = nil
			break
		}
		want[fr.Owner(q.S)], want[fr.Owner(q.T)] = true, true
	}
	if slices.Equal(d.posted, want) && slices.Contains(want, false) {
		d.skipped++
		return
	}
	if slices.Contains(d.posted, false) {
		d.t.Fatalf("%s: posted to %v, want every site or exactly owners ∪ dirty %v", step, siteList(d.posted), siteList(want))
	}
}

// check compares a batch's answers, and every distance, with the oracle's.
func (d *cacheDeployment) check(step string, batch []BatchQuery, answers []BatchAnswer) {
	g := d.oracle.Graph()
	for i, q := range batch {
		var want bool
		switch q.Class {
		case ClassReach:
			want = g.Reachable(q.S, q.T)
		case ClassDist:
			dist := g.Dist(q.S, q.T)
			if want = dist >= 0 && dist <= q.L; want && answers[i].Dist != int64(dist) || !want && answers[i].Dist != core.Inf {
				d.t.Fatalf("%s: query %d, dist(%d,%d) within %d = %d, oracle %d", step, i, q.S, q.T, q.L, answers[i].Dist, dist)
			}
		case ClassRPQ:
			want = automaton.Eval(g, q.S, q.T, q.A)
		}
		if answers[i].Answer != want {
			d.t.Fatalf("%s: query %d, class %q (%d,%d) = %v, oracle %v", step, i, byte(q.Class), q.S, q.T, answers[i].Answer, want)
		}
	}
}

// queries drives anytime reach queries and a mixed-class batch, checking
// every answer against the oracle.
func (d *cacheDeployment) queries(step string) {
	g := d.oracle.Graph()
	for q := 0; q < 4; q++ {
		s, tt := d.live(), d.live()
		got, st, err := d.co.Reach(s, tt)
		if err != nil {
			d.t.Fatalf("%s: reach(%d,%d): %v", step, s, tt, err)
		}
		if n := int64(len(d.sites)); !d.shared && s != tt && st.FramesSent != n {
			d.t.Fatalf("%s: reach(%d,%d) posted %d frames: sites on separate replicas cannot vouch for one another, want all %d",
				step, s, tt, st.FramesSent, n)
		}
		if want := g.Reachable(s, tt); got != want {
			d.t.Fatalf("%s: reach(%d,%d) = %v, oracle %v", step, s, tt, got, want)
		}
		if !d.shared || s == tt {
			continue
		}
		// Again, warm: the coordinator now knows both owners and holds
		// current rows, so it posts to those owners only.
		again, st, err := d.co.Reach(s, tt)
		if err != nil || again != got {
			d.t.Fatalf("%s: warm reach(%d,%d) = %v, %v; first %v", step, s, tt, again, err, got)
		}
		fr, _ := d.reps[0].Current()
		if owners := int64(len(slices.Compact([]int{min(fr.Owner(s), fr.Owner(tt)), max(fr.Owner(s), fr.Owner(tt))}))); st.FramesSent != owners {
			d.t.Fatalf("%s: warm reach(%d,%d) posted %d frames, want the %d owners", step, s, tt, st.FramesSent, owners)
		}
	}
	batch := make([]BatchQuery, 0, 6)
	for len(batch) < cap(batch) {
		q := BatchQuery{S: d.live(), T: d.live()}
		switch len(batch) % 3 {
		case 0:
			q.Class = ClassReach
		case 1:
			q.Class, q.L = ClassDist, 1+d.rng.Intn(6)
		case 2:
			q.Class, q.A = ClassRPQ, automaton.Random(d.rng, 2+d.rng.Intn(2), 3+d.rng.Intn(4), d.labels)
		}
		batch = append(batch, q)
	}
	answers, _, err := d.co.Batch(batch)
	if err != nil {
		d.t.Fatalf("%s: mixed batch: %v", step, err)
	}
	d.check(step+": mixed batch", batch, answers)
}

// edgeOps draws a small batch of edge mutations between live nodes.
func (d *cacheDeployment) edgeOps() []Op {
	ops := make([]Op, 1+d.rng.Intn(3))
	for i := range ops {
		ops[i] = Op{Kind: OpInsertEdge, U: d.live(), V: d.live()}
		if d.rng.Intn(3) == 0 {
			ops[i].Kind = OpDeleteEdge
		}
	}
	return ops
}

// TestBoundaryCacheCrossCheck is the acceptance check of the coordinator's
// boundary cache: random graphs under explicit v%k, BFS-grown and shipped
// partitions, one long-lived coordinator, and a seeded script that
// interleaves queries of every class with every way a fragment's rows can
// change or the fragmentation be replaced — sequenced edge and node
// batches (this gateway's and a second one's), an unsequenced lsn-0 apply,
// a direct Fragmentation.InsertEdge under the sites, a live rebalance, a
// snapshot installed into every replica, a site restarted from a snapshot
// and redialed. Every answer, and every distance, equals centralized
// evaluation on the mirrored graph, and after every step exactly the sites
// whose rows could have changed ship them again — in the frame that
// carries their answer — whether the round asks reach queries, distance
// queries or a mix of all three classes: as a delta against the rows the
// coordinator holds after an edge or node write, in full after a
// rebalance, a snapshot install or a restart (a new instance). The sites
// outside the dirty set ship nothing.
func TestBoundaryCacheCrossCheck(t *testing.T) { runCacheCrossCheck(t, false) }

// TestBoundaryCacheCrossCheckShared runs TestBoundaryCacheCrossCheck's
// seeded script over sites that share one fragment.Replica, as the sites
// of ServeReplica do, with every step kind but the site restart (a
// restarted process holds a replica of its own): both gateways' sequenced
// batches, node ops, an lsn-0 apply, a direct InsertEdge, a live rebalance
// and a snapshot install. Warm rounds there post to the owners of their
// nodes and vouch for the other sites. Every answer equals the oracle's,
// exactly the dirtied sites ship rows — a delta after a write, full rows
// after a new instance — and a strict round posts either to every site or
// to exactly owner(s) ∪ owner(t) ∪ the dirty sites.
func TestBoundaryCacheCrossCheckShared(t *testing.T) { runCacheCrossCheck(t, true) }

func runCacheCrossCheck(t *testing.T, shared bool) {
	labels := []string{"A", "B", "C"}
	rng := gen.NewRNG(2311)
	kinds := append([]string{"v%k", "bfs"}, fragment.Names()...)
	skipped := 0 // shared replica: strict rounds that skipped a site
	for trial := 0; trial < 10; trial++ {
		n := 30 + rng.Intn(60)
		seed := uint64(7300 + trial)
		var g *graph.Graph
		if trial%2 == 0 {
			g = gen.Uniform(gen.Config{Nodes: n, Edges: n + rng.Intn(3*n), Labels: labels, Seed: seed})
		} else {
			g = gen.PowerLaw(gen.Config{Nodes: n, Edges: n + rng.Intn(3*n), Labels: labels, Seed: seed})
		}
		k := 2 + rng.Intn(3)
		var assign []int
		switch kind := kinds[trial%len(kinds)]; kind {
		case "v%k":
			assign = make([]int, n)
			for v := range assign {
				assign[v] = v % k
			}
		case "bfs":
			assign = bfsAssign(g, k)
		default:
			p, err := fragment.ByName(kind, seed)
			if err != nil {
				t.Fatal(err)
			}
			if assign, err = p.Assign(g, k); err != nil {
				t.Fatal(err)
			}
		}
		d := &cacheDeployment{t: t, rng: rng, labels: labels, shared: shared, aud: obs.NewAuditor()}
		var err error
		if shared {
			fr, err := fragment.Build(g.Clone(), assign, k)
			if err != nil {
				t.Fatal(err)
			}
			d.reps = []*fragment.Replica{fragment.NewReplica(fr)}
			if d.sites, d.addrs, err = ServeReplica(d.reps[0], SiteOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; !shared && i < k; i++ {
			fr, err := fragment.Build(g.Clone(), assign, k)
			if err != nil {
				t.Fatal(err)
			}
			rep := fragment.NewReplica(fr)
			site, err := NewSiteReplica("127.0.0.1:0", rep, i, SiteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			d.reps, d.sites, d.addrs = append(d.reps, rep), append(d.sites, site), append(d.addrs, site.Addr())
		}
		if d.oracle, err = fragment.Build(g.Clone(), make([]int, n), 1); err != nil {
			t.Fatal(err)
		}
		if d.co, err = Dial(d.addrs, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		if d.co2, err = Dial(d.addrs, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		seq := oplog.NewSequencer(0)
		d.co.UseSequencer(seq)
		d.co2.UseSequencer(seq)
		d.co.SetAuditor(d.aud)

		all := make([]int, k)
		for i := range all {
			all[i] = i
		}
		d.wantFull("cold", d.strictRound("cold", trial%roundShapes), all, obs.RowsMiss)
		d.wantFull("warm", d.strictRound("warm", (trial+1)%roundShapes), nil, obs.RowsNone)

		// Every kind of step once, in a seeded order, then a few more at
		// random.
		nKinds := 8
		if shared {
			nKinds = 7 // no site restart: a restarted process has a replica of its own
		}
		script := rng.Perm(nKinds)
		for i := 0; i < 6; i++ {
			script = append(script, rng.Intn(nKinds))
		}
		for si, kind := range script {
			step := fmt.Sprintf("trial %d step %d", trial, si)
			var dirty []int // the sites whose rows the step may have changed
			// How they ship them: a delta against the rows the coordinator
			// holds after a write, full rows after a new instance.
			ships := obs.RowsPatch
			switch kind {
			case 0, 1: // a sequenced edge batch: this gateway's, or the second one's
				step += ": sequenced edge batch"
				co := d.co
				if kind == 1 {
					step += " by the second gateway"
					co = d.co2
				}
				ops := d.edgeOps()
				res, _, err := co.Apply(ops)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if want := d.mirror(step, ops); want.Changed != res.Changed {
					t.Fatalf("%s: changed %v, oracle %v", step, res.Changed, want.Changed)
				}
				dirty = res.Dirty
			case 2: // sequenced node ops
				step += ": sequenced node ops"
				ops := []Op{{Kind: OpInsertNode, Label: labels[rng.Intn(len(labels))], Frag: -1}}
				if d.oracle.Graph().NumLive() > 8 && rng.Intn(2) == 0 {
					ops = append(ops, Op{Kind: OpDeleteNode, U: d.live()})
				}
				res, _, err := d.co.Apply(ops)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if want := d.mirror(step, ops); len(want.NewIDs) != len(res.NewIDs) || want.NewIDs[0] != res.NewIDs[0] {
					t.Fatalf("%s: new IDs %v, oracle %v", step, res.NewIDs, want.NewIDs)
				}
				dirty = res.Dirty
			case 3: // the lsn-0 escape hatch, on every replica
				step += ": lsn 0 apply"
				ops := d.edgeOps()
				for _, rep := range d.reps {
					res, advanced, err := rep.ApplyLSN(0, 0, ops)
					if err != nil || advanced {
						t.Fatalf("%s: advanced=%v, %v", step, advanced, err)
					}
					dirty = res.Dirty
				}
				d.mirror(step, ops)
			case 4: // a direct mutation of the fragmentation under each site
				step += ": direct InsertEdge"
				u, v := d.live(), d.live()
				for _, rep := range d.reps {
					fr, _ := rep.Current()
					var err error
					if dirty, _, err = fr.InsertEdge(u, v); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
				}
				d.mirror(step, []Op{{Kind: OpInsertEdge, U: u, V: v}})
			case 5: // a live rebalance: every fragmentation is replaced
				step += ": rebalance"
				d.epoch++
				names := fragment.Names()
				if _, _, err := rebalanceBy(d.co, d.epoch, names[rng.Intn(len(names))], rng.Uint64()); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				dirty, ships = all, obs.RowsMiss
			case 6: // a snapshot installed into every replica
				step += ": snapshot install"
				d.epoch++
				for i, rep := range d.reps {
					fr, _, lsn := d.restore(rep)
					if !rep.Install(fr, d.epoch, lsn) {
						t.Fatalf("%s: replica %d refused the snapshot", step, i)
					}
				}
				dirty, ships = all, obs.RowsMiss
			case 7: // a site restarts from a snapshot of its state; redial
				i := rng.Intn(k)
				step += fmt.Sprintf(": restart of site %d", i)
				fr, epoch, lsn := d.restore(d.reps[i])
				d.sites[i].Close()
				d.reps[i] = fragment.NewReplicaAt(fr, epoch, lsn)
				site, err := NewSiteReplica(d.addrs[i], d.reps[i], i, SiteOptions{})
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				d.sites[i] = site
				for _, co := range []*Coordinator{d.co, d.co2} {
					deadline := time.Now().Add(10 * time.Second)
					for {
						_, err := co.helloAll(context.Background(), nil)
						if err == nil {
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("%s: never redialed: %v", step, err)
						}
						time.Sleep(10 * time.Millisecond)
					}
				}
				dirty, ships = []int{i}, obs.RowsMiss
			}
			shape := si % roundShapes
			d.wantFull(step, d.strictRound(step, shape), dirty, ships)
			d.queries(step)
			d.wantFull(step+", settled", d.strictRound(step, (shape+1)%roundShapes), nil, obs.RowsNone)
		}
		for i, rep := range d.reps {
			fr, _ := rep.Current()
			if err := fr.Validate(); err != nil {
				t.Fatalf("trial %d: replica %d: %v", trial, i, err)
			}
		}
		if n := d.co.pendingTotal(); n != 0 {
			t.Fatalf("trial %d: %d pending entries leaked", trial, n)
		}
		skipped += d.skipped
		d.close()
	}
	if shared && skipped == 0 {
		t.Fatal("no strict round skipped a site")
	}
}

// TestBoundaryCacheBytes pins what the cache buys and what an update costs:
// the second of two identical strict rounds ships under 5% of the first,
// and after a one-edge update exactly the sites of its dirty set ship rows
// on the next round, each a delta in a reply under 5% of its full rows,
// the others their query part.
func TestBoundaryCacheBytes(t *testing.T) {
	g := gen.PowerLaw(gen.Config{Nodes: 600, Edges: 2400, Labels: []string{"A"}, Seed: 2321})
	const k = 4
	fr, err := fragment.Random(g, k, 2321)
	if err != nil {
		t.Fatal(err)
	}
	co, done := deployFr(t, fr)
	defer done()
	aud := obs.NewAuditor()
	aud.SetDeployment(int64(fr.Vf()), int64(g.NumNodes()))
	co.SetAuditor(aud)
	co.SetAnytime(false)

	_, cold, err := co.Reach(0, 599)
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := co.Reach(0, 599)
	if err != nil {
		t.Fatal(err)
	}
	if cold.RowsReplies != k || warm.RowsReplies != 0 {
		t.Fatalf("rows replies: cold %d, warm %d; want %d and 0", cold.RowsReplies, warm.RowsReplies, k)
	}
	if 20*warm.BytesReceived >= cold.BytesReceived {
		t.Fatalf("warm round received %dB, cold %dB: want under 5%%", warm.BytesReceived, cold.BytesReceived)
	}
	// The sites share one replica: the warm round posts to the owners of 0
	// and 599 only, and vouches for the rest.
	owners := int64(1)
	if fr.Owner(0) != fr.Owner(599) {
		owners = 2
	}
	if warm.FramesSent != owners || warm.FramesReceived != owners || cold.FramesSent != k || cold.FramesReceived != k {
		t.Fatalf("frames: cold %d/%d, warm %d/%d; want %d each cold, %d each warm (owner(0) ∪ owner(599))",
			cold.FramesSent, cold.FramesReceived, warm.FramesSent, warm.FramesReceived, k, owners)
	}

	// The coordinator lays the rows out once per state: warm rounds, on
	// any pair, build nothing.
	rng := gen.NewRNG(2322)
	built := co.builds.Load()
	for i := 0; i < 8; i++ {
		if _, _, err := co.Reach(graph.NodeID(rng.Intn(600)), graph.NodeID(rng.Intn(600))); err != nil {
			t.Fatal(err)
		}
	}
	if n := co.builds.Load() - built; built == 0 || n != 0 {
		t.Fatalf("%d boundary builds for the cold round, %d for 9 warm ones; want at least 1 and 0", built, n)
	}

	deltas := 0
	for i := 0; i < 20; i++ {
		shipped := func() (full, delta, recv []int64) {
			full, delta, recv = make([]int64, k), make([]int64, k), make([]int64, k)
			for s := range full {
				_, full[s] = aud.RowsReplies(s)
				delta[s], recv[s] = aud.RowsPatches(s), co.conns[s].bytesReceived.Load()
			}
			return full, delta, recv
		}
		op := UpdateInsert
		if i%3 == 2 {
			op = UpdateDelete
		}
		res, _, err := co.Update(op, graph.NodeID(rng.Intn(600)), graph.NodeID(rng.Intn(600)))
		if err != nil {
			t.Fatal(err)
		}
		dirty := make([]bool, k)
		for _, fi := range res.Dirty {
			dirty[fi] = true
		}
		// A pair owned outside the dirty set: a dirty site's reply then
		// carries its rows section and no query part.
		clean := func() graph.NodeID {
			for {
				if v := graph.NodeID(rng.Intn(600)); !dirty[fr.Owner(v)] {
					return v
				}
			}
		}
		fullBefore, deltaBefore, recvBefore := shipped()
		built := co.builds.Load()
		_, st, err := co.Reach(clean(), clean())
		if err != nil {
			t.Fatal(err)
		}
		if n := co.builds.Load() - built; n > 1+st.RowsReplies || st.RowsReplies == 0 && n != 0 {
			t.Fatalf("update %d: the next round built the boundary %d times after %d rows replies; want at most 1 more, and none without one",
				i, n, st.RowsReplies)
		}
		// Exactly the dirty sites ship their rows, each a delta under 5% of
		// its full rows.
		full, delta, recv := shipped()
		for s := range full {
			if full[s] != fullBefore[s] || (delta[s] > deltaBefore[s]) != dirty[s] {
				t.Fatalf("update %d (dirty %v): site %d shipped %d full rows and %d deltas",
					i, res.Dirty, s, full[s]-fullBefore[s], delta[s]-deltaBefore[s])
			}
			if !dirty[s] {
				continue
			}
			deltas++
			f := fr.Fragments()[s]
			fr.RLock()
			rows, _ := core.LocalRows(f, nil).MarshalBinary()
			fr.RUnlock()
			if got := recv[s] - recvBefore[s]; 20*got >= int64(len(rows)) {
				t.Fatalf("update %d: site %d's reply of %dB carries its delta; its full rows are %dB: want under 5%%",
					i, s, got, len(rows))
			}
		}
	}
	if deltas == 0 {
		t.Fatal("no update dirtied a site")
	}
	if v := aud.Violations(); v != 0 {
		t.Fatalf("%d guarantee violations: %+v", v, aud.Summary())
	}
}

// TestBoundaryCacheBytesDist: the rows serve distance queries too. A cold
// qbr ships every site's rows; the same qbr again ships only its query
// parts, under 1% of the cold round's bytes (on a graph large enough that
// the per-reply framing does not dominate), with the exact distance, and
// within the auditor's linear bound for rows-free finals.
func TestBoundaryCacheBytesDist(t *testing.T) {
	g := gen.PowerLaw(gen.Config{Nodes: 3000, Edges: 12000, Labels: []string{"A"}, Seed: 2323})
	const k = 4
	fr, err := fragment.Random(g, k, 2323)
	if err != nil {
		t.Fatal(err)
	}
	co, done := deployFr(t, fr)
	defer done()
	aud := obs.NewAuditor()
	aud.SetDeployment(int64(fr.Vf()), int64(g.NumNodes()))
	co.SetAuditor(aud)
	want := g.Dist(0, 2999)
	var cold, warm WireStats
	for _, st := range []*WireStats{&cold, &warm} {
		ok, dist, ws, err := co.ReachWithin(0, 2999, 8)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (want >= 0 && want <= 8) || ok && dist != int64(want) {
			t.Fatalf("qbr(0,2999,8) = %v/%d, oracle %d", ok, dist, want)
		}
		*st = ws
	}
	if cold.RowsReplies != k || warm.RowsReplies != 0 {
		t.Fatalf("rows replies: cold %d, warm %d; want %d and 0", cold.RowsReplies, warm.RowsReplies, k)
	}
	if 100*warm.BytesReceived >= cold.BytesReceived {
		t.Fatalf("warm qbr received %dB, cold %dB: want under 1%%", warm.BytesReceived, cold.BytesReceived)
	}
	// The warm finals answer to the auditor's linear bound, as reach finals do.
	if s := aud.Summary(); s.ByteViolations != 0 || warm.BytesReceived > s.LinearByteBound*k {
		t.Fatalf("warm qbr of %dB against the linear bound %dB per site: %+v", warm.BytesReceived, s.LinearByteBound, s)
	}
}

// TestRowsMemoOncePerGeneration: rounds in flight together after one write
// share the dirty sites' rows computation — each site calls
// core.LocalRows once per generation of its fragment, however many rounds
// ask for the rows at once (run it under -race) — and every answer still
// equals the oracle's.
func TestRowsMemoOncePerGeneration(t *testing.T) {
	g := gen.PowerLaw(gen.Config{Nodes: 600, Edges: 2400, Labels: []string{"A"}, Seed: 2331})
	const k = 4
	fr, err := fragment.Random(g, k, 2331)
	if err != nil {
		t.Fatal(err)
	}
	// A service delay lines the rounds' frames up at each site.
	sites, addrs, err := ServeReplica(fragment.NewReplica(fr), SiteOptions{Delay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range sites {
			s.Close()
		}
	}()
	co, err := Dial(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	co.SetAnytime(false)
	computed := func() []int64 {
		out := make([]int64, k)
		for i, s := range sites {
			out[i] = s.memo.computed.Load()
		}
		return out
	}
	if _, _, err := co.Reach(0, 599); err != nil {
		t.Fatal(err)
	}
	if got := computed(); !slices.Equal(got, []int64{1, 1, 1, 1}) {
		t.Fatalf("the cold round computed the rows %v times per site, want once each", got)
	}
	rng := gen.NewRNG(2332)
	var res UpdateResult
	for len(res.Dirty) == 0 {
		if res, _, err = co.Update(UpdateInsert, graph.NodeID(rng.Intn(600)), graph.NodeID(rng.Intn(600))); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 8
	batches := make([][]BatchQuery, rounds)
	for r := range batches {
		s, tt := graph.NodeID(rng.Intn(600)), graph.NodeID(rng.Intn(600))
		batches[r] = []BatchQuery{{Class: ClassReach, S: s, T: tt}, {Class: ClassDist, S: tt, T: s, L: 1 + rng.Intn(8)}}
	}
	answers := make([][]BatchAnswer, rounds)
	errs := make([]error, rounds)
	var wg sync.WaitGroup
	for r := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[r], _, errs[r] = co.Batch(batches[r])
		}()
	}
	wg.Wait()
	for r, batch := range batches {
		if errs[r] != nil {
			t.Fatalf("round %d: %v", r, errs[r])
		}
		reach, dist := batch[0], batch[1]
		if want := g.Reachable(reach.S, reach.T); answers[r][0].Answer != want {
			t.Fatalf("round %d: reach(%d,%d) = %v, oracle %v", r, reach.S, reach.T, answers[r][0].Answer, want)
		}
		d := g.Dist(dist.S, dist.T)
		if want := d >= 0 && d <= dist.L; answers[r][1].Answer != want || want && answers[r][1].Dist != int64(d) {
			t.Fatalf("round %d: dist(%d,%d) within %d = %v/%d, oracle %d", r, dist.S, dist.T, dist.L, answers[r][1].Answer, answers[r][1].Dist, d)
		}
	}
	want := []int64{1, 1, 1, 1}
	for _, fi := range res.Dirty {
		want[fi] = 2
	}
	if got := computed(); !slices.Equal(got, want) {
		t.Fatalf("%d rounds in flight after a write dirtying %v computed the rows %v times per site, want %v", rounds, res.Dirty, got, want)
	}
	if replies, deltas := co.RowsTotals(); deltas < int64(len(res.Dirty)) || replies != k+deltas {
		t.Fatalf("%d rows replies, %d of them deltas; want %d full and at least one delta per dirty site %v", replies, deltas, k, res.Dirty)
	}
}
