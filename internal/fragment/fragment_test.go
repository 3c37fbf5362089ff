package fragment

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"distreach/internal/gen"
	"distreach/internal/graph"
)

func testGraph(seed uint64, n, m int) *graph.Graph {
	return gen.Uniform(gen.Config{Nodes: n, Edges: m, Labels: gen.LabelAlphabet(4), Seed: seed})
}

func TestBuildRejectsBadInput(t *testing.T) {
	g := testGraph(1, 5, 10)
	if _, err := Build(g, []int{0, 0, 0}, 1); err == nil {
		t.Fatal("short assignment accepted")
	}
	if _, err := Build(g, []int{0, 0, 0, 0, 9}, 2); err == nil {
		t.Fatal("out-of-range fragment accepted")
	}
	if _, err := Build(g, make([]int, 5), 0); err == nil {
		t.Fatal("zero fragments accepted")
	}
}

func TestSingleFragmentDegenerate(t *testing.T) {
	g := testGraph(2, 20, 60)
	fr, err := Build(g, make([]int, 20), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
	if fr.CrossEdges() != 0 || fr.Vf() != 0 {
		t.Fatalf("single fragment has cross structure: %v", fr)
	}
	f := fr.Fragments()[0]
	if f.NumVirtual() != 0 || len(f.InNodes()) != 0 {
		t.Fatal("single fragment must have no virtual or in-nodes")
	}
	if f.NumEdges() != g.NumEdges() {
		t.Fatal("edges lost")
	}
}

func TestMoreFragmentsThanNodes(t *testing.T) {
	g := testGraph(3, 3, 4)
	fr, err := Random(g, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
	if fr.Card() != 10 {
		t.Fatalf("card = %d", fr.Card())
	}
}

// bfsAssign places nodes on k fragments in BFS discovery order, cut into
// k equal consecutive blocks: a locality-shaped fragmentation no shipped
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

// TestPartitionersProduceValidFragmentations covers every shipped
// partitioner plus two explicit assignments (round-robin and BFS-grown):
// the paper places no constraint on how G is fragmented.
func TestPartitionersProduceValidFragmentations(t *testing.T) {
	g := testGraph(4, 100, 400)
	modK := make([]int, g.NumNodes())
	for v := range modK {
		modK[v] = v % 7
	}
	cases := map[string]func() (*Fragmentation, error){
		"v%k": func() (*Fragmentation, error) { return Build(g, modK, 7) },
		"bfs": func() (*Fragmentation, error) { return Build(g, bfsAssign(g, 7), 7) },
	}
	for _, name := range Names() {
		name := name
		cases[name] = func() (*Fragmentation, error) {
			p, err := ByName(name, 11)
			if err != nil {
				return nil, err
			}
			return Partition(g, p, 7)
		}
	}
	for name, build := range cases {
		fr, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := fr.Validate(); err != nil {
			t.Fatalf("%s: invalid: %v", name, err)
		}
		if fr.Card() != 7 {
			t.Fatalf("%s: card %d", name, fr.Card())
		}
	}
}

func TestRandomPartitionIsBalanced(t *testing.T) {
	g := testGraph(5, 103, 200)
	fr, err := Random(g, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fr.Fragments() {
		if f.NumLocal() < 25 || f.NumLocal() > 26 {
			t.Fatalf("unbalanced fragment: %d nodes", f.NumLocal())
		}
	}
}

// TestByNameRejectsRetiredPartitioners: the retired strategies fail with an
// error that names the accepted set.
func TestByNameRejectsRetiredPartitioners(t *testing.T) {
	for _, name := range []string{"greedy", "hash", ""} {
		_, err := ByName(name, 1)
		if err == nil {
			t.Fatalf("ByName(%q) accepted", name)
		}
		for _, want := range Names() {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("ByName(%q) error %q does not name %q", name, err, want)
			}
		}
	}
}

func TestInNodeVirtualNodeDuality(t *testing.T) {
	// Property: every virtual node of a fragment is an in-node of its owner.
	check := func(seed uint64) bool {
		g := testGraph(seed, 40, 160)
		fr, err := Random(g, 5, seed)
		if err != nil {
			return false
		}
		for _, f := range fr.Fragments() {
			for _, o := range f.VirtualNodes() {
				gid := f.Global(o)
				owner := fr.Fragments()[fr.Owner(gid)]
				found := false
				for _, in := range owner.InNodes() {
					if owner.Global(in) == gid {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestVfCountsBoundaryNodes(t *testing.T) {
	// Two fragments, one cross edge: Vf must be exactly... the source is a
	// virtual-node original? No: Vf counts in-nodes and originals of
	// virtual nodes; a single cross edge (u, v) contributes only v (it is
	// both an in-node of F2 and the original of F1's virtual node).
	b := graph.NewBuilder(2)
	b.AddNode("a")
	b.AddNode("b")
	b.AddEdge(0, 1)
	g := b.MustBuild()
	fr, err := Build(g, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Vf() != 1 {
		t.Fatalf("Vf = %d, want 1", fr.Vf())
	}
	if fr.CrossEdges() != 1 {
		t.Fatalf("crossEdges = %d, want 1", fr.CrossEdges())
	}
}

func TestLocalGlobalRoundTrip(t *testing.T) {
	g := testGraph(6, 50, 150)
	fr, err := Random(g, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fr.Fragments() {
		for l := int32(0); int(l) < f.NumTotal(); l++ {
			gid := f.Global(l)
			l2, ok := f.Local(gid)
			if !ok || l2 != l {
				t.Fatalf("round trip failed: local %d -> global %d -> local %d", l, gid, l2)
			}
			if f.Label(l) != g.Label(gid) {
				t.Fatalf("label mismatch at local %d", l)
			}
		}
	}
}

// localGraph copies the fragment's local structure (real nodes followed by
// virtual nodes, with internal and cross edges) into a graph.Graph whose
// node IDs are the local slots.
func localGraph(f *Fragment) *graph.Graph {
	b := graph.NewBuilder(f.NumTotal())
	for l := int32(0); int(l) < f.NumTotal(); l++ {
		b.AddNode(f.Label(l))
	}
	for l := int32(0); int(l) < f.NumTotal(); l++ {
		for _, w := range f.Out(l) {
			b.AddEdge(graph.NodeID(l), graph.NodeID(w))
		}
	}
	return b.MustBuild()
}

// sameComponents reports whether two component maps partition the slots
// alike, whatever the component IDs: the fragment's rows keep their
// insertion order, a graph's are sorted, so the searches, and with them
// the IDs, may run differently.
func sameComponents(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	ab, ba := map[int32]int32{}, map[int32]int32{}
	for i := range a {
		if x, ok := ab[a[i]]; ok && x != b[i] {
			return false
		}
		if y, ok := ba[b[i]]; ok && y != a[i] {
			return false
		}
		ab[a[i]], ba[b[i]] = b[i], a[i]
	}
	return true
}

// TestLocalSCCMatchesFragment: LocalSCC, computed over the fragment's own
// adjacency, finds the components graph.SCC finds in the same structure
// copied into a graph, and is cached.
func TestLocalSCCMatchesFragment(t *testing.T) {
	g := testGraph(7, 30, 120)
	fr, err := Random(g, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fr.Fragments() {
		lg := localGraph(f)
		if lg.NumNodes() != f.NumTotal() || lg.NumEdges() != f.NumEdges() {
			t.Fatalf("local copy size mismatch: %v vs fragment %d/%d", lg, f.NumTotal(), f.NumEdges())
		}
		comp := f.LocalSCC()
		want, _ := lg.SCC()
		if !sameComponents(comp, want) {
			t.Fatalf("fragment %d: LocalSCC %v, SCC of its copy %v", f.ID, comp, want)
		}
		if again := f.LocalSCC(); &again[0] != &comp[0] {
			t.Fatal("LocalSCC not cached")
		}
	}
}

func TestFragmentSizesSumToGraph(t *testing.T) {
	g := testGraph(8, 60, 240)
	fr, err := Random(g, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	edges := 0
	nodes := 0
	for _, f := range fr.Fragments() {
		edges += f.NumEdges()
		nodes += f.NumLocal()
	}
	if edges != g.NumEdges() || nodes != g.NumNodes() {
		t.Fatalf("fragments carry %d/%d, graph has %d/%d", nodes, edges, g.NumNodes(), g.NumEdges())
	}
}

// TestLabelTableSpill: past 256 distinct labels the extras spill to a map.
// code says so, get still reads every slot right, and relabelling a
// spilled slot with a dictionary label or truncating it away takes it out
// of the spill again, down to an empty spill map.
func TestLabelTableSpill(t *testing.T) {
	lt := newLabelTable(0)
	want := make([]string, 300)
	for i := range want {
		want[i] = fmt.Sprintf("L%d", i)
		lt.append(want[i])
	}
	for l, s := range want {
		if got := lt.get(int32(l)); got != s {
			t.Fatalf("slot %d reads %q, want %q", l, got, s)
		}
		if id, ok := lt.code(int32(l)); ok != (l < 256) || ok && lt.dict[id] != s {
			t.Fatalf("slot %d: code %d, %v", l, id, ok)
		}
	}
	lt.set(299, "L7")
	if id, ok := lt.code(299); !ok || lt.dict[id] != "L7" || lt.get(299) != "L7" {
		t.Fatalf("relabelled slot 299: code %d, %v, label %q", id, ok, lt.get(299))
	}
	if lt.truncate(280); len(lt.spill) != 24 {
		t.Fatalf("%d spilled slots below 280, want 24", len(lt.spill))
	}
	if lt.truncate(256); len(lt.spill) != 0 {
		t.Fatalf("%d spilled slots below 256", len(lt.spill))
	}
}
