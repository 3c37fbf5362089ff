// Command obscheck is the observability smoke gate CI runs after the
// bench smoke: it boots a real deployment from the built binaries, drives
// query and update traffic over HTTP, then scrapes and validates every
// observability surface this repo promises —
//
//   - GET /metrics on the gateway AND on each cmd/site process must be
//     well-formed Prometheus text exposition (obs.ValidateExposition, the
//     checks a real scraper enforces), with the load visibly counted;
//   - GET /guarantees must report zero visit violations (a site posted
//     twice in one attempt) and zero response-volume violations over the
//     traffic just driven, and at most the site count of sites posted per
//     round on average — the paper's bounds, audited live, gate CI;
//   - a traced query's GET /trace/{id} must return the assembled tree,
//     site eval spans and reachindex outcomes included.
//
// Two legs: a self-contained gateway (serve -graph, loopback sites in
// process) and a real deployment (k cmd/site processes with -metrics,
// fronted by serve -sites). Usage:
//
//	go build -o /tmp/ds-serve ./cmd/serve
//	go build -o /tmp/ds-site  ./cmd/site
//	go run ./cmd/obscheck -serve /tmp/ds-serve -site /tmp/ds-site
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"distreach"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/obs"
)

const (
	nodes   = 300
	edges   = 1200
	k       = 3
	queries = 60
	updates = 5
	seed    = 17
)

var labels = []string{"A", "B", "C"}

func main() {
	var (
		serveBin = flag.String("serve", "", "path to the built cmd/serve binary (required)")
		siteBin  = flag.String("site", "", "path to the built cmd/site binary (empty = skip the real-sites leg)")
		timeout  = flag.Duration("timeout", 90*time.Second, "overall budget")
	)
	flag.Parse()
	if *serveBin == "" {
		fmt.Fprintln(os.Stderr, "obscheck: -serve is required")
		os.Exit(2)
	}
	deadline := time.Now().Add(*timeout)

	dir, err := os.MkdirTemp("", "obscheck")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	g := gen.Uniform(gen.Config{Nodes: nodes, Edges: edges, Labels: labels, Seed: seed})
	graphPath := filepath.Join(dir, "graph.txt")
	if err := writeGraph(graphPath, g); err != nil {
		fatal(err)
	}

	fmt.Println("obscheck: leg 1 — self-contained gateway")
	if err := gatewayLeg(*serveBin, graphPath, deadline,
		"-graph", graphPath, "-k", fmt.Sprint(k)); err != nil {
		fatal(err)
	}

	if *siteBin == "" {
		fmt.Println("obscheck: leg 2 skipped (-site not given)")
		fmt.Println("obscheck: PASS")
		return
	}
	fmt.Println("obscheck: leg 2 — real site processes")
	if err := sitesLeg(*serveBin, *siteBin, dir, graphPath, g, deadline); err != nil {
		fatal(err)
	}
	fmt.Println("obscheck: PASS")
}

// gatewayLeg boots one serve process (extra args select the deployment),
// drives traffic, and validates /metrics, /guarantees and /trace.
func gatewayLeg(serveBin, graphPath string, deadline time.Time, extra ...string) error {
	port, err := freePort()
	if err != nil {
		return err
	}
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	args := append([]string{"-listen", fmt.Sprintf("127.0.0.1:%d", port), "-cache", "8"}, extra...)
	cmd := exec.Command(serveBin, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start serve: %w", err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	if err := waitHTTP(base+"/healthz", deadline); err != nil {
		return err
	}
	traceID, err := drive(base)
	if err != nil {
		return err
	}
	if err := checkTrace(base, traceID); err != nil {
		return err
	}
	samples, err := scrapeExposition(base + "/metrics")
	if err != nil {
		return err
	}
	if v := samples["gateway_queries_total"]; v < queries {
		return fmt.Errorf("gateway_queries_total = %v after %d queries", v, queries)
	}
	if v := samples["gateway_updates_total"]; v < updates {
		return fmt.Errorf("gateway_updates_total = %v after %d updates", v, updates)
	}
	if !anyPrefix(samples, "gateway_query_seconds_bucket") {
		return fmt.Errorf("no gateway_query_seconds histogram in the exposition")
	}
	return checkGuarantees(base)
}

// sitesLeg partitions the graph, writes the assignment, boots k cmd/site
// processes with -metrics, fronts them with serve -sites, drives traffic,
// and validates the gateway surfaces plus every site's exposition.
func sitesLeg(serveBin, siteBin, dir, graphPath string, g *graph.Graph, deadline time.Time) error {
	fr, err := distreach.PartitionEdgeCut(g, k, seed)
	if err != nil {
		return err
	}
	assignPath := filepath.Join(dir, "assign.txt")
	af, err := os.Create(assignPath)
	if err != nil {
		return err
	}
	if err := fragment.Write(af, fr); err != nil {
		af.Close()
		return err
	}
	if err := af.Close(); err != nil {
		return err
	}

	var siteAddrs, metricAddrs []string
	var sites []*exec.Cmd
	defer func() {
		for _, c := range sites {
			c.Process.Kill()
			c.Wait()
		}
	}()
	for i := 0; i < k; i++ {
		sp, err := freePort()
		if err != nil {
			return err
		}
		mp, err := freePort()
		if err != nil {
			return err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", sp)
		maddr := fmt.Sprintf("127.0.0.1:%d", mp)
		cmd := exec.Command(siteBin,
			"-graph", graphPath, "-assign", assignPath,
			"-fragment", fmt.Sprint(i), "-listen", addr,
			"-metrics", maddr, "-pprof")
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("start site %d: %w", i, err)
		}
		sites = append(sites, cmd)
		siteAddrs = append(siteAddrs, addr)
		metricAddrs = append(metricAddrs, maddr)
	}
	for _, m := range metricAddrs {
		if err := waitHTTP("http://"+m+"/metrics", deadline); err != nil {
			return err
		}
	}
	if err := gatewayLeg(serveBin, graphPath, deadline,
		"-sites", strings.Join(siteAddrs, ",")); err != nil {
		return err
	}
	for i, m := range metricAddrs {
		samples, err := scrapeExposition("http://" + m + "/metrics")
		if err != nil {
			return fmt.Errorf("site %d: %w", i, err)
		}
		if !anyPrefix(samples, "site_frames_total") {
			return fmt.Errorf("site %d served traffic but counted no frames", i)
		}
		if !anyPrefix(samples, "site_eval_seconds") {
			return fmt.Errorf("site %d exposition lacks the eval histogram", i)
		}
	}
	return nil
}

// drive fires the query and update mix and returns a trace ID captured
// from a wire round's response.
func drive(base string) (string, error) {
	rng := rand.New(rand.NewSource(seed))
	traceID := ""
	for i := 0; i < queries; i++ {
		var u string
		switch i % 3 {
		case 0:
			u = fmt.Sprintf("%s/reach?s=%d&t=%d", base, rng.Intn(nodes), rng.Intn(nodes))
		case 1:
			u = fmt.Sprintf("%s/reachwithin?s=%d&t=%d&l=%d", base, rng.Intn(nodes), rng.Intn(nodes), 1+rng.Intn(8))
		case 2:
			u = fmt.Sprintf("%s/reachregex?s=%d&t=%d&r=%s", base, rng.Intn(nodes), rng.Intn(nodes), url.QueryEscape("A(B|C)*"))
		}
		body, err := get(u)
		if err != nil {
			return "", err
		}
		var resp struct {
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return "", fmt.Errorf("%s: %v", u, err)
		}
		if resp.TraceID != "" {
			traceID = resp.TraceID
		}
	}
	if traceID == "" {
		return "", fmt.Errorf("no query response carried a trace_id — is tracing off?")
	}
	for i := 0; i < updates; i++ {
		payload := fmt.Sprintf(`{"op":"insert","u":%d,"v":%d}`, rng.Intn(nodes), rng.Intn(nodes))
		resp, err := http.Post(base+"/update", "application/json", bytes.NewReader([]byte(payload)))
		if err != nil {
			return "", err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("POST /update: status %d", resp.StatusCode)
		}
	}
	return traceID, nil
}

// checkTrace fetches one assembled trace tree and requires the site spans
// the acceptance criteria name: per-site eval timing with the reachindex
// outcome attached.
func checkTrace(base, traceID string) error {
	body, err := get(base + "/trace/" + traceID)
	if err != nil {
		return err
	}
	var tree struct {
		Name     string `json:"name"`
		Children []json.RawMessage
	}
	if err := json.Unmarshal(body, &tree); err != nil {
		return fmt.Errorf("/trace/%s: %v", traceID, err)
	}
	for _, want := range []string{`"eval"`, "reachindex_outcome"} {
		if !strings.Contains(string(body), want) {
			return fmt.Errorf("/trace/%s: tree has no %s span data", traceID, want)
		}
	}
	return nil
}

// checkGuarantees decodes the auditor summary and fails on any violation:
// the paper's bounds, measured on the traffic just driven.
func checkGuarantees(base string) error {
	body, err := get(base + "/guarantees")
	if err != nil {
		return err
	}
	var s struct {
		Rounds          int64   `json:"rounds"`
		VisitViolations int64   `json:"visit_violations"`
		MeanSitesPosted float64 `json:"mean_sites_posted"`
		Sites           int     `json:"sites"`
		ByteViolations  int64   `json:"byte_violations"`
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return fmt.Errorf("/guarantees: %v", err)
	}
	if s.Rounds == 0 {
		return fmt.Errorf("/guarantees: auditor observed no rounds")
	}
	if s.ByteViolations != 0 || s.VisitViolations != 0 {
		return fmt.Errorf("/guarantees: %d byte and %d visit violations over %d rounds: %s",
			s.ByteViolations, s.VisitViolations, s.Rounds, body)
	}
	if s.Sites == 0 || s.MeanSitesPosted <= 0 || s.MeanSitesPosted > float64(s.Sites) {
		return fmt.Errorf("/guarantees: %.2f sites posted per round of %d sites: %s", s.MeanSitesPosted, s.Sites, body)
	}
	fmt.Printf("obscheck: guarantees clean over %d audited rounds, %.2f of %d sites posted per round\n",
		s.Rounds, s.MeanSitesPosted, s.Sites)
	return nil
}

// scrapeExposition fetches a /metrics endpoint and validates it as
// Prometheus text exposition.
func scrapeExposition(url string) (map[string]float64, error) {
	body, err := get(url)
	if err != nil {
		return nil, err
	}
	samples, err := obs.ValidateExposition(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%s: malformed exposition: %w", url, err)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("%s: empty exposition", url)
	}
	fmt.Printf("obscheck: %s: %d samples, well-formed\n", url, len(samples))
	return samples, nil
}

func anyPrefix(samples map[string]float64, prefix string) bool {
	for key := range samples {
		if strings.HasPrefix(key, prefix) {
			return true
		}
	}
	return false
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}

// waitHTTP polls a URL until it answers 200.
func waitHTTP(url string, deadline time.Time) error {
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("timed out waiting for %s", url)
}

// freePort grabs an ephemeral port and releases it for the child to bind.
// The tiny reuse race is acceptable in a smoke run.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.Write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "obscheck: %v\n", err)
	os.Exit(1)
}
