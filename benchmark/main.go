// Command benchmark is the repository's one benchmark for the whole query
// path: four named workloads, the end-to-end metrics a user would see, and
// a per-layer budget measured from outside the program.
//
//	bash benchmark/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	                      [-out FILE] [-trace-out FILE]
//	bash benchmark/run.sh -check A.json B.json
//
// run.sh builds this package inside the checkout and runs it; from the
// benchmark directory `go run .` does the same with the user's own build
// cache. README.md in this directory says what is measured and why.
//
// For every workload run, the metrics are printed by name with their unit,
// and then one line of JSON with the keys correct, attempted, failed and
// metrics: the end-to-end metrics with -trace 0, the per-layer metrics
// with -trace 1 (which also runs the traced pass). The exit status is
// non-zero when any answer was wrong or any operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// resultsFile is what -out writes and -check reads.
type resultsFile struct {
	Schema     string             `json:"schema"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Clients    int                `json:"clients"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Workloads  map[string]*result `json:"workloads"`
}

const resultsSchema = "distreach-benchmark/v1"

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload to run: reach_cut | reach_local | mixed_churn | gateway_hot | all")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 0, "length of the timed rounds (default: the run_seconds of BENCHMARK.json, which the driver passes)")
		trace    = flag.Int("trace", 1, "1: also run the traced pass and report the per-layer metrics; 0: end-to-end metrics only")
		out      = flag.String("out", "", "results JSON (default .bench_build/results-<workload>.json)")
		traceOut = flag.String("trace-out", "", "span file of the traced pass (default .bench_build/spans-<workload>.json)")
		check    = flag.Bool("check", false, "compare two results files: -check A.json B.json")
	)
	flag.Parse()
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	var decl declared
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &decl); err != nil {
		return fail(err)
	}
	if *check {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-check needs two results files, got %d arguments", flag.NArg()))
		}
		return runCheck(decl, flag.Arg(0), flag.Arg(1))
	}
	// The run length has one home, BENCHMARK.json; the flag exists because
	// the driver passes that value back in.
	if *seconds == 0 {
		*seconds = decl.RunSeconds
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 || flag.NArg() != 0 {
		return fail(fmt.Errorf("bad arguments: -seconds must be positive, -trace 0 or 1, and nothing may follow the flags"))
	}
	run := specs
	if *workload != "all" {
		sp, ok := specByName(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		run = []spec{sp}
	}

	// Children and temporary files go away on every exit path.
	jan := &janitor{}
	defer jan.sweep()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		jan.sweep()
		os.Exit(130)
	}()

	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		clients: min(runtime.NumCPU(), 4), root: root, jan: jan,
	}
	file := resultsFile{
		Schema: resultsSchema, Seed: cfg.seed, Seconds: cfg.seconds, Clients: cfg.clients,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workloads: map[string]*result{},
	}
	spans := map[string][]span{}
	status := 0
	var lines [][]byte
	for _, sp := range run {
		res, err := runWorkload(sp, cfg)
		if err != nil {
			return fail(err)
		}
		file.Workloads[sp.name] = res
		printResult(sp.name, res)
		shown := res.EndToEnd
		if cfg.trace {
			shown = res.PerLayer
			spans[sp.name] = res.spans
		}
		line, err := json.Marshal(map[string]any{
			"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": shown,
		})
		if err != nil {
			return fail(err)
		}
		lines = append(lines, line)
		if !res.Correct {
			status = 1
		}
	}
	if err := os.MkdirAll(buildDir(root), 0o755); err != nil {
		return fail(err)
	}
	if err := writeJSON(orDefault(*out, filepath.Join(buildDir(root), "results-"+*workload+".json")), file); err != nil {
		return fail(err)
	}
	if cfg.trace {
		if err := writeJSON(orDefault(*traceOut, filepath.Join(buildDir(root), "spans-"+*workload+".json")), spans); err != nil {
			return fail(err)
		}
	}
	// The contract's result lines come last, one per workload run.
	for _, line := range lines {
		fmt.Printf("%s\n", line)
	}
	return status
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric by name with its unit, and the span
// budget of the traced pass.
func printResult(name string, res *result) {
	fmt.Printf("== %s: correct %v, attempted %d, failed %d %s\n", name, res.Correct, res.Attempted, res.Failed, res.Note)
	for _, table := range []map[string]metricValue{res.EndToEnd, res.PerLayer} {
		names := make([]string, 0, len(table))
		for n := range table {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-36s %14.4f %s\n", n, table[n].Value, table[n].Unit)
		}
	}
	if len(res.spans) > 0 {
		fmt.Printf("%-36s %8s %12s %12s\n", "span (traced pass)", "count", "median us", "self us")
		for _, r := range budget(res.spans) {
			fmt.Printf("%-36s %8d %12.1f %12.1f\n", r.name, r.count, r.medUS, r.selfMed)
		}
	}
}
