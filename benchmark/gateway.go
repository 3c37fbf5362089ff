package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// janitor undoes what the benchmark leaves outside its own memory — child
// processes and temporary files — on every exit path, signals included.
type janitor struct {
	mu    sync.Mutex
	tasks map[int]func()
	next  int
}

// add registers a clean-up and returns the function that runs it (once)
// and forgets it.
func (j *janitor) add(task func()) (done func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.tasks == nil {
		j.tasks = map[int]func(){}
	}
	id := j.next
	j.next++
	j.tasks[id] = task
	return func() {
		j.mu.Lock()
		t := j.tasks[id]
		delete(j.tasks, id)
		j.mu.Unlock()
		if t != nil {
			t()
		}
	}
}

// sweep runs every clean-up still registered.
func (j *janitor) sweep() {
	j.mu.Lock()
	tasks := j.tasks
	j.tasks = nil
	j.mu.Unlock()
	for _, t := range tasks {
		t()
	}
}

// findRoot walks up from the working directory to the checkout root, the
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// buildDir is where everything the benchmark builds or writes by default
// goes; .gitignore names it.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildServe compiles cmd/serve from the checkout's source.
func buildServe(root string) (string, error) {
	bin := filepath.Join(buildDir(root), "bin", "serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/serve: %w\n%s", err, out)
	}
	return bin, nil
}

// writeGraph writes g where cmd/serve -graph can read it.
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

// gateway is a cmd/serve subprocess and the HTTP client that loads it.
type gateway struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	stop   func()
}

// freePort asks the kernel for an unused loopback port and releases it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startGateway execs bin on graphFile with default flags (plus extra),
// waits for /healthz and then for probe to be answered. The set-up time
// runs from the exec to that first answer.
func startGateway(jan *janitor, bin, graphFile string, clients int, probe *query, extra ...string) (*gateway, setupTimes, error) {
	var st setupTimes
	port, err := freePort()
	if err != nil {
		return nil, st, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-graph", graphFile, "-partition", "contiguous", "-k", strconv.Itoa(numSites), "-listen", addr}, extra...)
	cmd := exec.Command(bin, args...)
	var logs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logs, &logs
	// Should the benchmark itself be killed, the kernel takes the server
	// down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, st, err
	}
	exited := make(chan struct{})
	go func() {
		cmd.Wait()
		close(exited)
	}()
	gw := &gateway{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxIdleConns: clients},
		},
	}
	gw.stop = jan.add(func() {
		cmd.Process.Kill()
		<-exited
		gw.client.CloseIdleConnections()
	})
	for {
		if status, err := gw.call(http.MethodGet, "/healthz", nil, nil); err == nil && status == http.StatusOK {
			break
		}
		select {
		case <-exited:
			gw.stop()
			return nil, st, fmt.Errorf("cmd/serve exited during start-up: %s", logs.String())
		case <-time.After(time.Millisecond):
		}
		if time.Since(t0) > 60*time.Second {
			gw.stop()
			return nil, st, errors.New("cmd/serve did not come up within 60 s")
		}
	}
	st.bootMS = float64(time.Since(t0)) / float64(time.Millisecond)
	if _, err := gw.query(probe); err != nil {
		gw.stop()
		return nil, st, fmt.Errorf("first query: %w", err)
	}
	st.totalS = time.Since(t0).Seconds()
	return gw, st, nil
}

func (gw *gateway) close() { gw.stop() }

// call sends one request and decodes a JSON reply into out (when not nil).
// The body is always drained and closed, so the connection is reused.
func (gw *gateway) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, gw.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := gw.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	if _, derr := io.Copy(io.Discard, resp.Body); err == nil {
		err = derr
	}
	return resp.StatusCode, err
}

// wireJSON is the "wire" object of a gateway reply.
type wireJSON struct {
	BytesSent       int64 `json:"bytes_sent"`
	BytesReceived   int64 `json:"bytes_received"`
	FramesSent      int64 `json:"frames_sent"`
	FramesReceived  int64 `json:"frames_received"`
	FirstAnswerUS   int64 `json:"first_answer_us"`
	PartialFrames   int64 `json:"partial_frames"`
	CancelFrames    int64 `json:"cancel_frames"`
	EarlyTerminated bool  `json:"early_terminated"`
}

// query GETs /reach. Anything but a 200 — a 429, a 5xx, a timeout — is an
// error, which the load generator counts as a failed query.
func (gw *gateway) query(q *query) (outcome, error) {
	var reply struct {
		Answer bool      `json:"answer"`
		Cached bool      `json:"cached"`
		Wire   *wireJSON `json:"wire"`
	}
	path := "/reach?s=" + strconv.Itoa(int(q.s)) + "&t=" + strconv.Itoa(int(q.t))
	status, err := gw.call(http.MethodGet, path, nil, &reply)
	if err != nil {
		return outcome{}, err
	}
	if status != http.StatusOK {
		return outcome{}, fmt.Errorf("GET %s: status %d", path, status)
	}
	o := outcome{answer: reply.Answer, cached: reply.Cached}
	if w := reply.Wire; w != nil {
		o.wire = wireCount{
			bytesSent: w.BytesSent, bytesRecv: w.BytesReceived,
			framesSent: w.FramesSent, framesRecv: w.FramesReceived,
			partial: w.PartialFrames, cancel: w.CancelFrames,
			early: w.EarlyTerminated, firstAnswer: time.Duration(w.FirstAnswerUS) * time.Microsecond,
		}
	}
	return o, nil
}

// write POSTs one edge update to /update.
func (gw *gateway) write(op fragment.Op) (uint64, error) {
	name := "insert"
	if op.Kind == fragment.OpDeleteEdge {
		name = "delete"
	}
	body, err := json.Marshal(map[string]any{"op": name, "u": uint32(op.U), "v": uint32(op.V)})
	if err != nil {
		return 0, err
	}
	var reply struct {
		LSN    uint64 `json:"lsn"`
		Missed []int  `json:"missed"`
	}
	status, err := gw.call(http.MethodPost, "/update", body, &reply)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK || len(reply.Missed) > 0 {
		return 0, fmt.Errorf("POST /update: status %d, missed sites %v", status, reply.Missed)
	}
	return reply.LSN, nil
}

// counters reads /stats and the wire-byte totals of /metrics.
func (gw *gateway) counters() (counters, error) {
	var stats struct {
		Cache struct {
			Hits, Misses, Evictions int64
		} `json:"cache"`
		Coalesce struct {
			Rounds, Queries int64
		} `json:"coalesce"`
		Backpressure struct {
			Rejected int64
		} `json:"backpressure"`
		ReachIndex struct {
			Hits, Fallbacks, Rebuilds int64
			LabelBytes                int64 `json:"label_bytes"`
		} `json:"reachindex"`
	}
	if status, err := gw.call(http.MethodGet, "/stats", nil, &stats); err != nil || status != http.StatusOK {
		return counters{}, fmt.Errorf("GET /stats: status %d: %v", status, err)
	}
	c := counters{
		idxHits: stats.ReachIndex.Hits, idxFallbacks: stats.ReachIndex.Fallbacks,
		idxRebuilds: stats.ReachIndex.Rebuilds, idxLabelBytes: stats.ReachIndex.LabelBytes,
		cacheHits: stats.Cache.Hits, cacheMisses: stats.Cache.Misses, cacheEvictions: stats.Cache.Evictions,
		coalRounds: stats.Coalesce.Rounds, coalQueries: stats.Coalesce.Queries,
		rejected: stats.Backpressure.Rejected,
	}
	resp, err := gw.client.Get(gw.base + "/metrics")
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if ok && (name == "gateway_wire_sent_bytes_total" || name == "gateway_wire_received_bytes_total") {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return counters{}, fmt.Errorf("/metrics: %s: %w", name, err)
			}
			c.wireBytes += int64(f)
		}
	}
	return c, sc.Err()
}

// memMB reports the server's resident set size.
func (gw *gateway) memMB() (float64, error) {
	status, err := os.ReadFile("/proc/" + strconv.Itoa(gw.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS line in /proc/<pid>/status")
}
