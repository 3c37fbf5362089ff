package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// declared is the part of BENCHMARK.json this package reads: the run length,
// and for -check the end-to-end metrics with their direction and bound.
type declared struct {
	RunSeconds float64 `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worsening reports by what share of the base value a the value b is worse:
// positive when b is worse, negative when it is better.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// samePlan reports why results files a and b cannot be compared: they
// must come from the same plan (schema, seed, run length, client count) and
// hold the same workloads.
func samePlan(a, b *resultsFile) error {
	switch {
	case a.Schema != resultsSchema || b.Schema != resultsSchema:
		return fmt.Errorf("schema %q and %q, want %q", a.Schema, b.Schema, resultsSchema)
	case a.Seed != b.Seed:
		return fmt.Errorf("seed %d against %d", a.Seed, b.Seed)
	case a.Seconds != b.Seconds:
		return fmt.Errorf("run length %v s against %v s", a.Seconds, b.Seconds)
	case a.Clients != b.Clients:
		return fmt.Errorf("%d clients against %d", a.Clients, b.Clients)
	case len(a.Workloads) == 0:
		return fmt.Errorf("no workload in A")
	}
	for n := range a.Workloads {
		if b.Workloads[n] == nil {
			return fmt.Errorf("workload %s is in A only", n)
		}
	}
	for n := range b.Workloads {
		if a.Workloads[n] == nil {
			return fmt.Errorf("workload %s is in B only", n)
		}
	}
	return nil
}

// runCheck compares results file B against results file A, metric by
// metric, with the bounds BENCHMARK.json declares. It prints one row per
// workload and end-to-end metric — both values and the ratio B/A, A being
// the base — and exits non-zero when any metric is worse by more than its
// bound, when a declared metric is missing or 0 on either side, or when B
// failed more of its operations than A. Files that do not come from the
// same plan are refused.
func runCheck(decl declared, pathA, pathB string) int {
	var a, b resultsFile
	if err := readJSON(pathA, &a); err != nil {
		return fail(err)
	}
	if err := readJSON(pathB, &b); err != nil {
		return fail(err)
	}
	if err := samePlan(&a, &b); err != nil {
		return fail(fmt.Errorf("%s and %s are not comparable: %w", pathA, pathB, err))
	}
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	breaches := 0
	fmt.Printf("%-12s %-22s %14s %14s %9s %7s\n", "workload", "metric", "A (base)", "B", "B/A", "bound")
	for _, w := range names {
		ra, rb := a.Workloads[w], b.Workloads[w]
		for _, d := range decl.EndToEnd {
			va, vb := ra.EndToEnd[d.Name].Value, rb.EndToEnd[d.Name].Value
			verdict := ""
			switch {
			case !(va > 0) || !(vb > 0): // absent, zero or NaN: no metric of this benchmark is ever 0
				verdict = "  BREACH: not measured"
			case worsening(va, vb, d.Better) > d.Bound:
				verdict = "  BREACH: " + d.Better + " is better"
			}
			if verdict != "" {
				breaches++
			}
			fmt.Printf("%-12s %-22s %14.4f %14.4f %9.4f %7.2f%s\n", w, d.Name, va, vb, vb/va, d.Bound, verdict)
		}
		fa := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		fb := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		verdict := ""
		if fb > fa {
			verdict = "  BREACH: may not rise"
			breaches++
		}
		fmt.Printf("%-12s %-22s %14.6f %14.6f %9s %7s%s\n", w, "fail_ratio", fa, fb, "", "", verdict)
	}
	if breaches > 0 {
		fmt.Printf("%d breach(es)\n", breaches)
		return 1
	}
	fmt.Println("every metric of B is within its bound of A")
	return 0
}
