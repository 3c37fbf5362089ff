package distreach_test

import (
	"fmt"

	"distreach"
)

// buildFig1 assembles the paper's Fig. 1 recommendation network with its
// three-fragment placement.
func buildFig1() (*distreach.Graph, *distreach.Fragmentation) {
	b := distreach.NewBuilder(11)
	names := []struct {
		label string
		dc    int
	}{
		{"CTO", 0}, {"DB", 0}, {"HR", 0}, {"HR", 0}, // Ann Bill Walt Fred
		{"HR", 1}, {"HR", 1}, {"MK", 1}, // Mat Emmy Jack
		{"SE", 2}, {"HR", 2}, {"AI", 2}, {"FA", 2}, // Pat Ross Tom Mark
	}
	assign := make([]int, 0, len(names))
	for _, n := range names {
		b.AddNode(n.label)
		assign = append(assign, n.dc)
	}
	const (
		ann, bill, walt, fred = 0, 1, 2, 3
		mat, emmy, jack       = 4, 5, 6
		pat, ross, tom, mark  = 7, 8, 9, 10
	)
	for _, e := range [][2]distreach.NodeID{
		{ann, bill}, {ann, walt}, {walt, mat}, {bill, pat}, {fred, emmy},
		{mat, fred}, {emmy, ross}, {jack, emmy}, {mat, jack},
		{ross, mark}, {pat, jack}, {ross, tom},
	} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	fr, err := distreach.PartitionWith(g, assign, 3)
	if err != nil {
		panic(err)
	}
	return g, fr
}

func ExampleReach() {
	_, fr := buildFig1()
	cl := distreach.NewCluster(3, distreach.NetModel{})
	res := distreach.Reach(cl, fr, 0, 10) // Ann -> Mark
	fmt.Println(res.Answer, res.Report.Visits)
	// Output: true [1 1 1]
}

func ExampleReachWithin() {
	_, fr := buildFig1()
	cl := distreach.NewCluster(3, distreach.NetModel{})
	res := distreach.ReachWithin(cl, fr, 0, 10, 6) // qbr(Ann, Mark, 6)
	fmt.Println(res.Answer, res.Distance)
	res = distreach.ReachWithin(cl, fr, 0, 10, 5)
	fmt.Println(res.Answer)
	// Output:
	// true 6
	// false
}

func ExampleReachRegexExpr() {
	_, fr := buildFig1()
	cl := distreach.NewCluster(3, distreach.NetModel{})
	res, err := distreach.ReachRegexExpr(cl, fr, 0, 10, "DB*|HR*")
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Answer)
	res, err = distreach.ReachRegexExpr(cl, fr, 0, 10, "DB*")
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Answer)
	// Output:
	// true
	// false
}

func ExampleCompileRegex() {
	a, err := distreach.CompileRegex("HR+ FA?")
	if err != nil {
		panic(err)
	}
	fmt.Println(a.AcceptsLabels([]string{"HR", "HR", "FA"}))
	fmt.Println(a.AcceptsLabels([]string{"FA"}))
	// Output:
	// true
	// false
}
