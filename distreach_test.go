package distreach_test

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"distreach"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// buildSample returns a labeled three-fragment sample deployment.
func buildSample(t testing.TB) (*distreach.Graph, *distreach.Fragmentation, *distreach.Cluster) {
	g := gen.PowerLaw(gen.Config{
		Nodes: 400, Edges: 1600, Labels: gen.LabelAlphabet(4), LabelSkew: 1, Seed: 12,
	})
	fr, err := distreach.PartitionRandom(g, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	return g, fr, distreach.NewCluster(3, distreach.NetModel{})
}

func TestFacadeReach(t *testing.T) {
	g, fr, cl := buildSample(t)
	for v := distreach.NodeID(1); v < 50; v++ {
		res := distreach.Reach(cl, fr, 0, v)
		if want := g.Reachable(0, v); res.Answer != want {
			t.Fatalf("Reach(0,%d) = %v, want %v", v, res.Answer, want)
		}
		if res.Report.MaxVisits > 1 {
			t.Fatalf("visit guarantee violated: %v", res.Report.Visits)
		}
	}
}

func TestFacadeReachWithin(t *testing.T) {
	g, fr, cl := buildSample(t)
	for v := distreach.NodeID(1); v < 30; v++ {
		res := distreach.ReachWithin(cl, fr, 0, v, 4)
		d := g.Dist(0, v)
		if want := d >= 0 && d <= 4; res.Answer != want {
			t.Fatalf("ReachWithin(0,%d,4) = %v, oracle dist %d", v, res.Answer, d)
		}
	}
}

func TestFacadeRegex(t *testing.T) {
	_, fr, cl := buildSample(t)
	res, err := distreach.ReachRegexExpr(cl, fr, 0, 399, "_*")
	if err != nil {
		t.Fatal(err)
	}
	plain := distreach.Reach(cl, fr, 0, 399)
	if res.Answer != plain.Answer {
		t.Fatalf("wildcard-star regex (%v) must agree with plain reachability (%v)",
			res.Answer, plain.Answer)
	}
	if _, err := distreach.ReachRegexExpr(cl, fr, 0, 1, "(((oops"); err == nil {
		t.Fatal("bad regex accepted")
	}
}

func TestFacadeCompileRegex(t *testing.T) {
	a, err := distreach.CompileRegex("A (B|C)* D?")
	if err != nil {
		t.Fatal(err)
	}
	if !a.AcceptsLabels([]string{"A", "B", "C", "D"}) {
		t.Fatal("compiled automaton rejects a member word")
	}
	if a.AcceptsLabels([]string{"B"}) {
		t.Fatal("compiled automaton accepts a non-member word")
	}
}

func TestFacadeMapReduce(t *testing.T) {
	g, _, _ := buildSample(t)
	a, err := distreach.CompileRegex("_*")
	if err != nil {
		t.Fatal(err)
	}
	ans, st, err := distreach.ReachRegexMR(g, 0, 399, a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := g.Reachable(0, 399); ans != want {
		t.Fatalf("MRdRPQ wildcard-star = %v, reachability oracle = %v", ans, want)
	}
	if st.ECC <= 0 {
		t.Fatal("ECC not accounted")
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

func TestFacadePartitioners(t *testing.T) {
	g, _, _ := buildSample(t)
	assign := make([]int, g.NumNodes())
	for v := range assign {
		assign[v] = v % 5
	}
	for name, fr := range map[string]func() (*distreach.Fragmentation, error){
		"random":     func() (*distreach.Fragmentation, error) { return distreach.PartitionRandom(g, 5, 1) },
		"contiguous": func() (*distreach.Fragmentation, error) { return distreach.PartitionContiguous(g, 5) },
		"edgecut":    func() (*distreach.Fragmentation, error) { return distreach.PartitionEdgeCut(g, 5, 1) },
		"v%k":        func() (*distreach.Fragmentation, error) { return distreach.PartitionWith(g, assign, 5) },
		"bfs":        func() (*distreach.Fragmentation, error) { return distreach.PartitionWith(g, bfsAssign(g, 5), 5) },
	} {
		f, err := fr()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.Card() != 5 {
			t.Fatalf("%s: card %d", name, f.Card())
		}
		// The answer must not depend on the partitioning.
		cl := distreach.NewCluster(5, distreach.NetModel{})
		if got, want := distreach.Reach(cl, f, 0, 399).Answer, g.Reachable(0, 399); got != want {
			t.Fatalf("%s: answer %v, want %v", name, got, want)
		}
	}
}

func TestFacadeCoalesce(t *testing.T) {
	g, fr, _ := buildSample(t)
	co, err := distreach.Coalesce(fr, []int{0, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl2 := distreach.NewCluster(2, distreach.NetModel{})
	if got, want := distreach.Reach(cl2, co, 0, 399).Answer, g.Reachable(0, 399); got != want {
		t.Fatalf("coalesced Reach=%v want %v", got, want)
	}
}

func TestFacadeMapReduceVariants(t *testing.T) {
	g, _, _ := buildSample(t)
	ans, _, err := distreach.ReachMR(g, 0, 399, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := g.Reachable(0, 399); ans != want {
		t.Fatalf("ReachMR=%v want %v", ans, want)
	}
	bans, dist, _, err := distreach.ReachWithinMR(g, 0, 399, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Dist(0, 399)
	if want := d >= 0 && d <= 6; bans != want {
		t.Fatalf("ReachWithinMR=%v oracle dist=%d", bans, d)
	}
	if bans && dist != int64(d) {
		t.Fatalf("distance %d, oracle %d", dist, d)
	}
}

func TestFacadeTCPDeployment(t *testing.T) {
	g, fr, _ := buildSample(t)
	sites, addrs, err := distreach.Serve(fr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range sites {
			s.Close()
		}
	}()
	co, err := distreach.DialSites(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ans, st, err := co.Reach(0, 399)
	if err != nil {
		t.Fatal(err)
	}
	if want := g.Reachable(0, 399); ans != want {
		t.Fatalf("tcp Reach = %v, want %v", ans, want)
	}
	if st.BytesSent == 0 || st.BytesReceived == 0 {
		t.Fatalf("no wire accounting: %+v", st)
	}
	a, err := distreach.CompileRegex("_*")
	if err != nil {
		t.Fatal(err)
	}
	rans, _, err := co.ReachRegex(0, 399, a)
	if err != nil {
		t.Fatal(err)
	}
	if rans != ans {
		t.Fatalf("wildcard regex over TCP (%v) disagrees with Reach (%v)", rans, ans)
	}
}

func TestFacadeBuilderErrors(t *testing.T) {
	b := distreach.NewBuilder(1)
	b.AddNode("x")
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("invalid edge accepted")
	}
	_ = graph.None
}

// TestBenchmarkModuleVets type-checks the nested benchmark module (own
// go.mod, `replace distreach => ../`, no other dependency), which the root
// `./...` cannot reach: an API slip against it should fail here, not in the
// benchmark pipeline.
func TestBenchmarkModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", ".")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in benchmark/: %v\n%s", err, out)
	}
}

// TestKnobBudget is a ratchet on user-set choices and on the protocol: the
// flag definitions under cmd/, the partitioners fragment.Names reports and
// the frame kinds internal/netsite/protocol.go declares may shrink freely,
// but a knob, a partitioner or a kind comes back only by raising the number
// here, in the same diff that adds it.
func TestKnobBudget(t *testing.T) {
	const maxFlags, maxPartitioners, maxKinds = 60, 3, 7
	flagDef := regexp.MustCompile(`\bflag\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?\(`)
	flags := 0
	err := filepath.WalkDir("cmd", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		flags += len(flagDef.FindAll(src, -1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if flags == 0 || flags > maxFlags {
		t.Fatalf("%d flag definitions under cmd/, budget %d (0 means the count is broken)", flags, maxFlags)
	}
	if n := len(fragment.Names()); n > maxPartitioners {
		t.Fatalf("%d partitioners %v, budget %d", n, fragment.Names(), maxPartitioners)
	}
	src, err := os.ReadFile("internal/netsite/protocol.go")
	if err != nil {
		t.Fatal(err)
	}
	kinds := len(regexp.MustCompile(`(?m)^\s*kind[A-Z]\w*\s*=`).FindAll(src, -1))
	if kinds == 0 || kinds > maxKinds {
		t.Fatalf("%d frame kinds declared in protocol.go, budget %d (0 means the count is broken)", kinds, maxKinds)
	}
}

// TestOneCodec is a ratchet on the payload codec: every payload is written
// and read through internal/codec, so a fixed-width byte order appears
// nowhere else in the non-test Go code. The one exception is the
// write-ahead log's record frame (size and CRC, written once and read by
// both record scans) and its segment header's base LSN (written once, read
// once), which the torn-tail scan reads at fixed offsets: at most that many
// uses in internal/oplog/log.go.
func TestOneCodec(t *testing.T) {
	const logFrameUses = 8
	fixed := regexp.MustCompile(`\bbinary\.(LittleEndian|BigEndian)\b`)
	found := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := len(fixed.FindAll(src, -1))
		found += n
		switch {
		case strings.HasPrefix(path, "internal/codec/"):
		case path == "internal/oplog/log.go":
			if n > logFrameUses {
				t.Errorf("%s: %d fixed-width byte-order uses, budget %d (the record frame and segment header)", path, n, logFrameUses)
			}
		case n > 0:
			t.Errorf("%s: %d fixed-width byte-order uses outside internal/codec; read and write payloads through it", path, n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no byte-order use found at all: the scan is broken")
	}
}

// TestNetsiteSolvesWithoutBes is a ratchet on the wire coordinator: it
// answers every query class by walking rows (reach and regex) or searching
// them (distance), never by building an equation system, so no non-test
// file of internal/netsite imports internal/bes.
func TestNetsiteSolvesWithoutBes(t *testing.T) {
	files, err := filepath.Glob("internal/netsite/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no netsite sources found (%v): the scan is broken", err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), `"distreach/internal/bes"`) {
			t.Errorf("%s imports internal/bes", path)
		}
	}
}

// TestMakefilePinsResolve guards the named test lists of `make
// cross-checks` and `make recovery-smoke` and the targets of `make
// fuzz-smoke`. go test exits 0 when a -run or -fuzz pattern matches
// nothing, so a renamed or deleted test would silently drop out of them.
// Every |-alternative of a recipe line's -run pattern must match a Test or
// Fuzz function, and every -fuzz pattern a Fuzz function, declared in a
// _test.go file of one of that line's packages.
func TestMakefilePinsResolve(t *testing.T) {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.ReplaceAll(string(src), "\\\n", " "), "\n")
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	for _, pin := range []struct{ target, flag string }{
		{"cross-checks", "-run"}, {"recovery-smoke", "-run"}, {"fuzz-smoke", "-fuzz"},
	} {
		target := pin.target
		pattern := regexp.MustCompile(pin.flag + ` '([^']+)'`)
		pins := 0
		start := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, target+":") })
		for i := start + 1; start >= 0 && i < len(lines) && strings.HasPrefix(lines[i], "\t"); i++ {
			m := pattern.FindStringSubmatch(lines[i])
			if m == nil {
				continue
			}
			var pkgs, names []string
			for _, f := range strings.Fields(lines[i]) {
				if !strings.HasPrefix(f, "./") {
					continue
				}
				pkgs = append(pkgs, f)
				files, err := filepath.Glob(filepath.Join(f, "*_test.go"))
				if err != nil {
					t.Fatal(err)
				}
				for _, file := range files {
					src, err := os.ReadFile(file)
					if err != nil {
						t.Fatal(err)
					}
					for _, fm := range testFunc.FindAllSubmatch(src, -1) {
						if name := string(fm[1]); pin.flag == "-run" || strings.HasPrefix(name, "Fuzz") {
							names = append(names, name)
						}
					}
				}
			}
			// make turns $$ into $.
			for _, alt := range strings.Split(strings.ReplaceAll(m[1], "$$", "$"), "|") {
				pins++
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("make %s: %s alternative %q: %v", target, pin.flag, alt, err)
				} else if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("make %s: %s alternative %q matches no test in %v", target, pin.flag, alt, pkgs)
				}
			}
		}
		if pins == 0 {
			t.Errorf("make %s pins no tests: the recipe was not found or not parsed", target)
		}
	}
}
