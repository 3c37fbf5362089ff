// Package exp implements the experiment harness of Section 7: one
// regenerator per table and figure in the paper's evaluation (Table 2,
// Fig. 11(a)-(l), the in-text visit and traffic claims X1-X2 and the
// cross-check CHK), the ablations A1-A2, the co-location extension E2, and
// the three serving experiments no test or benchmark metric owns: N6
// (durable recovery and fsync-policy throughput), N7 (load and scale on
// the SNAP sample) and N10 (early decision under a straggler). Each
// experiment returns a Table whose rows mirror the series the paper plots;
// cmd/bench renders them.
package exp

import (
	"fmt"
	"io"
	"sort"
	"time"

	"distreach/internal/cluster"
)

// Table is the output of one experiment.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Config tunes experiment execution. The zero value is usable: paper-shaped
// defaults at reproduction scale.
type Config struct {
	// Queries per measurement point (the paper uses 100 for reachability,
	// 30-40 for regular queries). Default 10 to keep full-suite runs short;
	// raise with -queries for paper-strength averaging.
	Queries int
	// Scale multiplies dataset sizes (1.0 = the repo's ~1/100-of-paper
	// defaults). Use small values for smoke tests.
	Scale float64
	// Net is the modeled interconnect. The default models a modest data
	// center link so that shipping costs are visible in response times.
	Net *cluster.NetModel
	// Log, if non-nil, receives progress lines.
	Log io.Writer
}

func (c Config) queries(def int) int {
	if c.Queries > 0 {
		return c.Queries
	}
	return def
}

func (c Config) scale(n int) int {
	s := c.Scale
	if s <= 0 {
		s = 1.0
	}
	v := int(float64(n) * s)
	if v < 2 {
		v = 2
	}
	return v
}

func (c Config) net() cluster.NetModel {
	if c.Net != nil {
		return *c.Net
	}
	// 0.5 ms per message; bandwidth scaled to the data: the paper ships
	// full-size graphs over ~1 Gb/s EC2 links, so our ~1/100-scale graphs
	// see a 1/100-scale link (1.25 MB/s) to keep shipping costs the same
	// *relative to the data* as in the original deployment.
	return cluster.NetModel{Latency: 500 * time.Microsecond, BytesPerSecond: 1.25e6}
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Runner executes one experiment.
type Runner func(Config) (Table, error)

var registry = map[string]Runner{}
var order []string

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("exp: duplicate experiment " + id)
	}
	registry[id] = r
	order = append(order, id)
}

// IDs lists all experiment IDs in registration order.
func IDs() []string {
	out := append([]string(nil), order...)
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given ID.
func Run(id string, cfg Config) (Table, error) {
	r, ok := registry[id]
	if !ok {
		return Table{}, fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
	}
	return r(cfg)
}

// fmtMS renders a duration in milliseconds with two decimals.
func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// fmtMB renders bytes as megabytes with three decimals.
func fmtMB(b int64) string {
	return fmt.Sprintf("%.3f", float64(b)/(1<<20))
}
