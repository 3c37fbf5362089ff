package bes

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestSolveExample3(t *testing.T) {
	// The equation system of Example 3 / Fig. 5(a):
	// xAnn = xPat ∨ xMat;  xFred = xEmmy;  xMat = xFred;  xJack = xFred;
	// xEmmy = xFred ∨ xRoss;  xRoss = true;  xPat = xJack.
	s := New[string]()
	s.Add("Ann", false, "Pat", "Mat")
	s.Add("Fred", false, "Emmy")
	s.Add("Mat", false, "Fred")
	s.Add("Jack", false, "Fred")
	s.Add("Emmy", false, "Fred", "Ross")
	s.Add("Ross", true)
	s.Add("Pat", false, "Jack")
	sol := s.Solve()
	for _, v := range []string{"Ann", "Fred", "Mat", "Jack", "Emmy", "Ross", "Pat"} {
		if !sol[v] {
			t.Errorf("%s should be true", v)
		}
	}
}

func TestSolveRecursiveFalse(t *testing.T) {
	// A pure cycle with no true constant stays false (least solution).
	s := New[int]()
	s.Add(1, false, 2)
	s.Add(2, false, 3)
	s.Add(3, false, 1)
	sol := s.Solve()
	if len(sol) != 0 {
		t.Fatalf("cycle solved true: %v", sol)
	}
}

func TestSolveCycleWithExit(t *testing.T) {
	s := New[int]()
	s.Add(1, false, 2)
	s.Add(2, false, 1, 3)
	s.Add(3, true)
	sol := s.Solve()
	if !sol[1] || !sol[2] || !sol[3] {
		t.Fatalf("cycle with true exit: %v", sol)
	}
}

func TestUnknownVariablesAreFalse(t *testing.T) {
	s := New[int]()
	s.Add(1, false, 99) // 99 has no equation
	sol := s.Solve()
	if sol[1] || sol[99] {
		t.Fatalf("unknown var leaked true: %v", sol)
	}
}

func TestAddMergesEquations(t *testing.T) {
	s := New[int]()
	s.Add(1, false, 2)
	s.Add(1, false, 3)
	s.Add(3, true)
	if sol := s.Solve(); !sol[1] {
		t.Fatal("merged disjuncts lost")
	}
}

// TestSolveMatchesFixpoint cross-checks the dependency-graph solver against
// the naive Kleene iteration on random systems.
func TestSolveMatchesFixpoint(t *testing.T) {
	check := func(seed int64) bool {
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := int(uint64(rng)>>33) % n
			return v
		}
		s := New[int]()
		nvars := 2 + next(20)
		for v := 0; v < nvars; v++ {
			deps := make([]int, next(4))
			for i := range deps {
				deps[i] = next(nvars)
			}
			s.Add(v, next(10) == 0, deps...)
		}
		a := s.Solve()
		b := s.SolveFixpoint()
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDecideIncremental feeds random equations one at a time and checks
// after every Add that the incrementally maintained solution matches the
// Kleene-iteration oracle on the prefix added so far, and that true
// verdicts are monotone (never retracted by later equations).
func TestDecideIncremental(t *testing.T) {
	check := func(seed int64) bool {
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int(uint64(rng)>>33) % n
		}
		s := New[int]()
		oracle := New[int]()
		nvars := 2 + next(24)
		wasTrue := make(map[int]bool)
		for step := 0; step < nvars; step++ {
			v := next(nvars)
			deps := make([]int, next(4))
			for i := range deps {
				deps[i] = next(nvars)
			}
			ct := next(6) == 0
			s.Add(v, ct, deps...)
			oracle.Add(v, ct, deps...)
			want := oracle.SolveFixpoint()
			for x := 0; x < nvars; x++ {
				if s.Decide(x) != want[x] {
					return false
				}
				if wasTrue[x] && !s.Decide(x) {
					return false // true retracted
				}
				if s.Decide(x) {
					wasTrue[x] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecideUnknownVariable(t *testing.T) {
	s := New[int]()
	s.Add(1, false, 2)
	if s.Decide(1) || s.Decide(2) || s.Decide(99) {
		t.Fatal("nothing should be provable yet")
	}
	s.Add(2, true)
	if !s.Decide(1) || !s.Decide(2) {
		t.Fatal("truth did not propagate to dependents")
	}
	if s.Decide(99) {
		t.Fatal("never-mentioned variable decided true")
	}
}

func TestWeightedExample5(t *testing.T) {
	// Fig. 5(b): the weighted dependency graph of qbr(Ann, Mark, 6).
	s := NewWeighted[string]()
	s.AddTerm("Ann", "Pat", 2)
	s.AddTerm("Ann", "Mat", 2)
	s.AddTerm("Fred", "Emmy", 1)
	s.AddTerm("Mat", "Fred", 1)
	s.AddTerm("Jack", "Fred", 3)
	s.AddTerm("Emmy", "Fred", 3)
	s.AddTerm("Emmy", "Ross", 1)
	s.AddConst("Ross", 1) // Ross reaches Mark at distance 1
	s.AddTerm("Pat", "Jack", 1)
	if d, _ := s.Solve("Ann"); d != 6 {
		t.Fatalf("dist(Ann) = %d, want 6 (Ann->Mat->Fred->Emmy->Ross->Mark)", d)
	}
	if d, _ := s.Solve("Ross"); d != 1 {
		t.Fatalf("dist(Ross) = %d, want 1", d)
	}
}

func TestWeightedUnreachable(t *testing.T) {
	s := NewWeighted[int]()
	s.AddTerm(1, 2, 5)
	if d, _ := s.Solve(1); d != Inf {
		t.Fatalf("unreachable var solved to %d", d)
	}
	if d, _ := s.Solve(42); d != Inf {
		t.Fatalf("unknown var solved to %d", d)
	}
}

func TestWeightedChoosesMin(t *testing.T) {
	s := NewWeighted[int]()
	s.AddTerm(1, 2, 10)
	s.AddTerm(1, 3, 1)
	s.AddConst(2, 0)
	s.AddConst(3, 5)
	if d, _ := s.Solve(1); d != 6 {
		t.Fatalf("min path = %d, want 6", d)
	}
	// A tighter constant on the same variable wins.
	s.AddConst(3, 1)
	if d, _ := s.Solve(1); d != 2 {
		t.Fatalf("after tightening, min = %d, want 2", d)
	}
}

func TestWeightedCycleDoesNotLoop(t *testing.T) {
	s := NewWeighted[int]()
	s.AddTerm(1, 2, 1)
	s.AddTerm(2, 1, 1)
	s.AddTerm(2, 3, 1)
	s.AddConst(3, 0)
	if d, _ := s.Solve(1); d != 2 {
		t.Fatalf("cycle dist = %d, want 2", d)
	}
}

func TestSystemCounters(t *testing.T) {
	s := New[int]()
	s.Add(1, false, 2, 3)
	s.Add(2, true)
	if s.NumVars() != 3 || s.NumEdges() != 2 {
		t.Fatalf("|Vd|=%d |Ed|=%d, want 3/2", s.NumVars(), s.NumEdges())
	}
	w := NewWeighted[int]()
	w.AddTerm(1, 2, 1)
	w.AddConst(2, 0)
	if w.NumVars() != 2 || w.NumEdges() != 1 {
		t.Fatalf("weighted counters wrong")
	}
}

// TestSourcesFollowTheClosure: Sources reports who claimed a variable in
// the dependency closure of x — through true equations, cycles and
// unclaimed variables alike — and nobody outside it; the weighted solve
// reports the same set beside the distance.
func TestSourcesFollowTheClosure(t *testing.T) {
	s, w := New[int](), NewWeighted[int]()
	claim := func(src, x int) { s.Claim(src, x); w.Claim(src, x) }
	edge := func(x, y int) { s.Add(x, false, y); w.AddTerm(x, y, 1) }
	claim(0, 1)
	edge(1, 2)
	claim(1, 2)
	edge(2, 1) // cycle
	edge(2, 3) // 3 is mentioned, never claimed
	s.Add(2, true)
	w.AddConst(2, 4)
	edge(3, 4)
	claim(2, 4) // an empty equation still has an owner
	claim(3, 4) // claimed twice: both count
	claim(3, 4)
	claim(5, 9) // outside the closure of 1
	edge(9, 1)
	if got := s.Sources(1); !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("Sources(1) = %v", got)
	}
	if d, got := w.Solve(1); d != 5 || !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("weighted Solve(1) = %d, %v", d, got)
	}
	if got := s.Sources(9); !slices.Equal(got, []int{0, 1, 2, 3, 5}) {
		t.Fatalf("Sources(9) = %v", got)
	}
	if got := s.Sources(4); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("Sources(4) = %v", got)
	}
	if got := s.Sources(42); len(got) != 0 {
		t.Fatalf("Sources of an unknown variable = %v", got)
	}
	if _, got := w.Solve(42); len(got) != 0 {
		t.Fatalf("weighted sources of an unknown variable = %v", got)
	}
}
