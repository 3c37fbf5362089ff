// Command benchcheck compares a fresh bench report (cmd/bench -json)
// against a committed baseline and fails when the performance trajectory
// regresses. CI runs it after the bench-trajectory smoke:
//
//	go run ./cmd/bench -load -rate ... -json BENCH_PR.json
//	go run ./cmd/benchcheck -baseline BENCH_PR9.json -current BENCH_PR.json
//
// A regression is a throughput drop beyond -max-qps-drop (default 20%),
// a p99 latency growth beyond -max-p99-growth (default 50%), a
// first-answer p99 growth beyond the same -max-p99-growth budget when
// both reports carry that section (the anytime protocol's
// early-termination win must not silently erode), or — when both reports
// measured wire traffic — a bytes-per-query growth beyond
// -max-bytes-growth (default 50%: the paper's bounded-response-volume
// guarantee must not silently bloat). The gates are deliberately loose:
// CI runners are noisy, and the job exists to catch collapses (an
// accidental O(n) in the hot path), not 3% wiggles.
//
// Override: when a PR knowingly trades throughput away (say, for
// correctness or durability), pass -allow-regression or set
// BENCHCHECK_ALLOW=1 — the comparison still prints, but the exit code is
// 0. Commit a refreshed baseline in the same PR so the next change is
// measured against reality, not history.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// report mirrors the subset of cmd/bench's schema that the gates read.
// Schemas v1 through v3 are all accepted: each version only added
// sections (v2 first-answer and anytime, v3 run metadata), so a newer
// run remains comparable against an older baseline (a gate whose section
// one side lacks simply stays silent).
type report struct {
	Schema  string  `json:"schema"`
	Mode    string  `json:"mode"`
	Errors  int     `json:"errors"`
	QPS     float64 `json:"qps"`
	Latency struct {
		P50 int64 `json:"p50"`
		P99 int64 `json:"p99"`
	} `json:"latency_us"`
	FirstAnswer *struct {
		P50 int64 `json:"p50"`
		P99 int64 `json:"p99"`
	} `json:"first_answer_us"`
	BytesPerQuery float64 `json:"bytes_per_query"`
}

// benchSchemas lists the report schemas this checker understands.
var benchSchemas = map[string]bool{
	"distreach-bench/v1": true,
	"distreach-bench/v2": true,
	"distreach-bench/v3": true,
}

func load(path string) (report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	return parseReport(path, b)
}

// parseReport decodes and validates one report. A zero qps or zero p99 is
// never a real measurement — it is a corrupt or truncated file (a killed
// bench run, a bad merge of a BENCH_*.json) — and comparing against such a
// baseline makes every gate vacuously pass. Fail loudly instead.
func parseReport(path string, b []byte) (report, error) {
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if !benchSchemas[r.Schema] {
		return r, fmt.Errorf("%s: unknown schema %q (want distreach-bench/v1, v2 or v3)", path, r.Schema)
	}
	if r.QPS <= 0 {
		return r, fmt.Errorf("%s: corrupt or truncated report: qps = %v", path, r.QPS)
	}
	if r.Latency.P99 <= 0 {
		return r, fmt.Errorf("%s: corrupt or truncated report: p99 = %dus", path, r.Latency.P99)
	}
	if r.FirstAnswer != nil && r.FirstAnswer.P99 <= 0 {
		return r, fmt.Errorf("%s: corrupt or truncated report: first-answer p99 = %dus", path, r.FirstAnswer.P99)
	}
	return r, nil
}

// gate applies the regression gates and returns one message per failure.
// parseReport guarantees base.QPS and base.Latency.P99 are positive, so the
// ratios below are always meaningful.
func gate(base, cur report, qpsDrop, p99Grow, bytesGrow float64) []string {
	var fails []string
	if cur.Errors > 0 {
		fails = append(fails, fmt.Sprintf("current run had %d query errors", cur.Errors))
	}
	if cur.QPS < base.QPS*(1-qpsDrop) {
		fails = append(fails, fmt.Sprintf("throughput dropped %.0f%% (budget %.0f%%)",
			100*(base.QPS-cur.QPS)/base.QPS, 100*qpsDrop))
	}
	if float64(cur.Latency.P99) > float64(base.Latency.P99)*(1+p99Grow) {
		fails = append(fails, fmt.Sprintf("p99 latency grew %.0f%% (budget %.0f%%)",
			100*float64(cur.Latency.P99-base.Latency.P99)/float64(base.Latency.P99), 100*p99Grow))
	}
	// The first-answer gate only fires when both reports measured it (v2
	// wire-mode runs); parseReport guarantees a present section is positive.
	if base.FirstAnswer != nil && cur.FirstAnswer != nil &&
		float64(cur.FirstAnswer.P99) > float64(base.FirstAnswer.P99)*(1+p99Grow) {
		fails = append(fails, fmt.Sprintf("first-answer p99 grew %.0f%% (budget %.0f%%)",
			100*float64(cur.FirstAnswer.P99-base.FirstAnswer.P99)/float64(base.FirstAnswer.P99), 100*p99Grow))
	}
	// The bytes gate only fires when both runs measured wire traffic
	// (loopback in-process runs leave it zero).
	if base.BytesPerQuery > 0 && cur.BytesPerQuery > 0 &&
		cur.BytesPerQuery > base.BytesPerQuery*(1+bytesGrow) {
		fails = append(fails, fmt.Sprintf("bytes per query grew %.0f%% (budget %.0f%%)",
			100*(cur.BytesPerQuery-base.BytesPerQuery)/base.BytesPerQuery, 100*bytesGrow))
	}
	return fails
}

func main() {
	var (
		baseline  = flag.String("baseline", "", "committed baseline report (required)")
		current   = flag.String("current", "", "freshly measured report (required)")
		qpsDrop   = flag.Float64("max-qps-drop", 0.20, "fail when throughput drops more than this fraction")
		p99Grow   = flag.Float64("max-p99-growth", 0.50, "fail when p99 latency grows more than this fraction")
		bytesGrow = flag.Float64("max-bytes-growth", 0.50, "fail when wire bytes per query grow more than this fraction (both reports must measure it)")
		allow     = flag.Bool("allow-regression", false, "report but do not fail (also BENCHCHECK_ALLOW=1)")
	)
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: need -baseline and -current")
		os.Exit(2)
	}
	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	if base.Mode != cur.Mode {
		fmt.Fprintf(os.Stderr, "benchcheck: comparing a %s-loop run against a %s-loop baseline\n", cur.Mode, base.Mode)
		os.Exit(2)
	}

	ratio := func(cur, base float64) string {
		if base == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", 100*(cur-base)/base)
	}
	fmt.Printf("benchcheck: %s vs %s (%s loop)\n", *current, *baseline, cur.Mode)
	fmt.Printf("  qps         %8.0f -> %8.0f  (%s)\n", base.QPS, cur.QPS, ratio(cur.QPS, base.QPS))
	fmt.Printf("  p50 latency %7dus -> %7dus  (%s)\n", base.Latency.P50, cur.Latency.P50, ratio(float64(cur.Latency.P50), float64(base.Latency.P50)))
	fmt.Printf("  p99 latency %7dus -> %7dus  (%s)\n", base.Latency.P99, cur.Latency.P99, ratio(float64(cur.Latency.P99), float64(base.Latency.P99)))
	if base.FirstAnswer != nil && cur.FirstAnswer != nil {
		fmt.Printf("  first-ans p99 %5dus -> %7dus  (%s)\n", base.FirstAnswer.P99, cur.FirstAnswer.P99, ratio(float64(cur.FirstAnswer.P99), float64(base.FirstAnswer.P99)))
	}
	if base.BytesPerQuery > 0 && cur.BytesPerQuery > 0 {
		fmt.Printf("  bytes/query %8.0f -> %8.0f  (%s)\n", base.BytesPerQuery, cur.BytesPerQuery, ratio(cur.BytesPerQuery, base.BytesPerQuery))
	}

	fails := gate(base, cur, *qpsDrop, *p99Grow, *bytesGrow)
	if len(fails) == 0 {
		fmt.Println("benchcheck: within budget")
		return
	}
	for _, f := range fails {
		fmt.Fprintf(os.Stderr, "benchcheck: REGRESSION: %s\n", f)
	}
	if *allow || os.Getenv("BENCHCHECK_ALLOW") == "1" {
		fmt.Fprintln(os.Stderr, "benchcheck: regression allowed by override — refresh the committed baseline in this PR")
		return
	}
	os.Exit(1)
}
