package obs

import (
	"math"
	"sync"
)

// The paper's guarantees, as checkable invariants on one coordinator
// round ("visit each site at most once"): the coordinator sends at most one
// request frame per site per round; each site's response data is bounded
// by the fragmentation — O(|Vf|²) booleans per site, independent of |G|;
// and local evaluation time depends on the fragment, not the whole
// graph, so eval time should not correlate with |G| across deployments.
// A warm reach or distance round posts to the owners of its nodes first
// and to any site a reply names stale later in the same attempt, so the
// first is a real check: Auditor counts every post per site and flags a
// site posted twice in one attempt (TestBatchFramesPerExpectedSite pins
// the exact set posted). It checks the second exactly per observed round
// and tracks the third statistically across deployments of different
// sizes.
//
// The O(|Vf|²) part of a reach or distance reply is the fragment's
// boundary rows, which the coordinator keeps: a site ships them only when
// the coordinator's copy is missing or older than the fragment — as a delta
// against that copy when it still keeps its rows at the copy's state, in
// full otherwise. A delta is held to the quadratic bound too: it carries
// no more than the fragment's equations and the heads it drops. A reply
// without them is a query part per query — the source's equation and one
// constant per in-node that reaches the target (within the bound, for a
// distance), O(|Vf|) — and is held to a linear bound, so the quadratic cost
// is audited as what it now is: paid per change, not per query. Regex
// partials have no rows and stay under the quadratic bound.

// RowsOutcome says what a site's final reply did about its fragment's
// boundary rows.
type RowsOutcome uint8

const (
	RowsNone  RowsOutcome = iota // no final arrived, or the round had no reach or distance query to need rows
	RowsHit                      // left out, or not posted and vouched for: the coordinator's copy is the fragment's current rows
	RowsMiss                     // shipped in full: the coordinator held none, or a copy the site no longer keeps
	RowsPatch                    // shipped as a delta the coordinator patched its stale copy with
)

// String names the outcome as traces report it.
func (o RowsOutcome) String() string {
	switch o {
	case RowsHit:
		return "hit"
	case RowsMiss:
		return "miss"
	case RowsPatch:
		return "patch"
	default:
		return "none"
	}
}

// AuditRound is one round's per-site observations, reported by the
// coordinator after the round settles.
type AuditRound struct {
	Posts      []int         // request frames posted to each site in the attempt; at most 1 each
	RespBytes  []int64       // response payload bytes from each site (span overhead excluded)
	EvalNs     []int64       // site-reported local evaluation time, 0 if unreported
	Rows       []RowsOutcome // per site; nil counts as all RowsNone
	Queries    int           // queries the round carried
	RowsBacked bool          // no regex query: every reply rests on the rows (regex partials are O(|Vf|²) themselves)
}

// DefaultByteFactor is the constant c in the response-volume bounds:
// c·(|Vf|+1)² for a reply that carries rows (or distance or regex
// partials), c·(|Vf|+1) per query for a reach reply that does not. Each
// boolean equation is a variable plus a clause over at most |Vf| in-node
// variables; the wire encoding spends a handful of bytes per term, so 64
// is generous without being vacuous — a site shipping its whole
// fragment's adjacency (O(|Ef|), which can exceed |Vf|²·c on dense
// fragments with fat encodings) would trip the first, and a site
// re-shipping rows the coordinator holds the second.
const DefaultByteFactor = 64

// Auditor verifies the paper's per-round guarantees and aggregates
// violation counters. All methods are safe for concurrent use.
type Auditor struct {
	mu sync.Mutex

	vf         int64 // max fragment in-node count of the current deployment
	graphNodes int64 // |G| of the current deployment

	rounds          int64
	visitViolations int64   // sites posted more than once in one attempt
	posts           []int64 // per site: the rounds that posted to it
	byteViolations  int64
	maxRespBytes    int64 // worst per-site response payload seen
	byteBound       int64 // current c·(|Vf|+1)²

	// Per site: finals that left the boundary rows out (hits), finals that
	// carried them in full (misses) and finals that carried a delta
	// (patches). Grown to the widest round seen.
	rowsHits, rowsMisses, rowsPatches []int64

	// eval-time-vs-|G| correlation: one (|G|, mean eval ns) sample per
	// deployment size, pushed by SetDeployment-scoped benchmark runs.
	sizes   []float64
	evalMus []float64
	curSum  int64
	curN    int64
}

// NewAuditor returns an auditor with no deployment recorded yet.
func NewAuditor() *Auditor {
	return &Auditor{}
}

// SetDeployment records the fragmentation the next rounds run against:
// vf is the largest per-fragment in-node count, graphNodes is |G|. If a
// previous deployment accumulated eval samples, they are folded into one
// (|G|, mean eval) point for the correlation estimate.
func (a *Auditor) SetDeployment(vf, graphNodes int64) {
	a.mu.Lock()
	a.flushEvalLocked()
	if vf < 0 {
		vf = 0
	}
	a.vf = vf
	a.graphNodes = graphNodes
	a.byteBound = DefaultByteFactor * (vf + 1) * (vf + 1)
	a.mu.Unlock()
}

func (a *Auditor) flushEvalLocked() {
	if a.curN > 0 && a.graphNodes > 0 {
		a.sizes = append(a.sizes, float64(a.graphNodes))
		a.evalMus = append(a.evalMus, float64(a.curSum)/float64(a.curN))
	}
	a.curSum, a.curN = 0, 0
}

// Observe audits one settled round.
func (a *Auditor) Observe(r AuditRound) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rounds++
	for len(a.posts) < len(r.Posts) {
		a.posts = append(a.posts, 0)
	}
	for i, n := range r.Posts {
		if n > 0 {
			a.posts[i]++
		}
		if n > 1 {
			a.visitViolations++
		}
	}
	for len(a.rowsHits) < len(r.Rows) {
		a.rowsHits = append(a.rowsHits, 0)
		a.rowsMisses = append(a.rowsMisses, 0)
		a.rowsPatches = append(a.rowsPatches, 0)
	}
	for i, o := range r.Rows {
		switch o {
		case RowsHit:
			a.rowsHits[i]++
		case RowsMiss:
			a.rowsMisses[i]++
		case RowsPatch:
			a.rowsPatches[i]++
		}
	}
	for i, b := range r.RespBytes {
		if b > a.maxRespBytes {
			a.maxRespBytes = b
		}
		bound := a.byteBound // a miss or a patch: the rows, or a delta of them
		if r.RowsBacked && i < len(r.Rows) && r.Rows[i] == RowsHit {
			bound = int64(r.Queries) * DefaultByteFactor * (a.vf + 1)
		}
		if a.byteBound > 0 && b > bound {
			a.byteViolations++
		}
	}
	for _, ns := range r.EvalNs {
		if ns > 0 {
			a.curSum += ns
			a.curN++
		}
	}
}

// pearson computes the sample correlation coefficient; NaN when fewer
// than two points or zero variance.
func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return math.NaN()
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// AuditSummary is the /guarantees payload.
type AuditSummary struct {
	Rounds int64 `json:"rounds"`
	// VisitViolations counts sites posted more than once in one attempt.
	VisitViolations int64 `json:"visit_violations"`
	// MeanSitesPosted is the sites a round posted to, on average, against
	// Sites, the deployment's site count: every site for cold and regex
	// rounds, the owners of the queried nodes for warm ones.
	MeanSitesPosted float64 `json:"mean_sites_posted"`
	Sites           int     `json:"sites"`
	ByteViolations  int64   `json:"byte_violations"`
	MaxRespBytes    int64   `json:"max_resp_bytes_per_site"`
	ByteBound       int64   `json:"byte_bound"`        // c·(|Vf|+1)²: replies carrying rows, distance or regex partials
	LinearByteBound int64   `json:"linear_byte_bound"` // c·(|Vf|+1) per query: rows-free reach and distance replies
	ByteFactor      int64   `json:"byte_factor"`
	// RowsHits, RowsMisses and RowsPatches count, per site, the final
	// replies that left the fragment's boundary rows out (the coordinator's
	// copy was current), those that carried them in full, and those that
	// carried a delta against the coordinator's copy.
	RowsHits    []int64 `json:"rows_hits"`
	RowsMisses  []int64 `json:"rows_misses"`
	RowsPatches []int64 `json:"rows_patches"`
	Vf          int64   `json:"vf"`
	GraphNodes  int64   `json:"graph_nodes"`
	// EvalSizeCorr is Pearson r between |G| and mean eval time across
	// deployments of different sizes; meaningful only when SizePoints ≥ 2
	// (a live gateway adds a point whenever node churn changes |G|; with
	// one size the correlation is NaN and omitted).
	EvalSizeCorr *float64 `json:"eval_size_correlation,omitempty"`
	SizePoints   int      `json:"size_points"`
}

// Summary snapshots the audit state. The current deployment's pending
// eval samples are included as a provisional point for the correlation.
func (a *Auditor) Summary() AuditSummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	sizes := append([]float64(nil), a.sizes...)
	evals := append([]float64(nil), a.evalMus...)
	if a.curN > 0 && a.graphNodes > 0 {
		sizes = append(sizes, float64(a.graphNodes))
		evals = append(evals, float64(a.curSum)/float64(a.curN))
	}
	s := AuditSummary{
		Rounds:          a.rounds,
		VisitViolations: a.visitViolations,
		Sites:           len(a.posts),
		ByteViolations:  a.byteViolations,
		MaxRespBytes:    a.maxRespBytes,
		ByteBound:       a.byteBound,
		ByteFactor:      DefaultByteFactor,
		RowsHits:        append([]int64{}, a.rowsHits...),
		RowsMisses:      append([]int64{}, a.rowsMisses...),
		RowsPatches:     append([]int64{}, a.rowsPatches...),
		Vf:              a.vf,
		GraphNodes:      a.graphNodes,
		SizePoints:      len(sizes),
	}
	if a.byteBound > 0 {
		s.LinearByteBound = DefaultByteFactor * (a.vf + 1)
	}
	if a.rounds > 0 {
		var posts int64
		for _, n := range a.posts {
			posts += n
		}
		s.MeanSitesPosted = float64(posts) / float64(a.rounds)
	}
	if r := pearson(sizes, evals); !math.IsNaN(r) {
		s.EvalSizeCorr = &r
	}
	return s
}

// RowsReplies reports how many audited finals of the given site left its
// boundary rows out (hits) and how many carried them (misses).
func (a *Auditor) RowsReplies(site int) (hits, misses int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if site < 0 || site >= len(a.rowsHits) {
		return 0, 0
	}
	return a.rowsHits[site], a.rowsMisses[site]
}

// RowsPatches reports how many audited finals of the given site carried a
// delta of its boundary rows.
func (a *Auditor) RowsPatches(site int) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if site < 0 || site >= len(a.rowsPatches) {
		return 0
	}
	return a.rowsPatches[site]
}

// Posts reports how many audited rounds posted to the given site.
func (a *Auditor) Posts(site int) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if site < 0 || site >= len(a.posts) {
		return 0
	}
	return a.posts[site]
}

// Violations reports the violation count of both checked invariants —
// response volume and visits — for quick CI gating.
func (a *Auditor) Violations() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.byteViolations + a.visitViolations
}

// Register exposes the auditor's counters as gauges on r.
func (a *Auditor) Register(r *Registry) {
	r.GaugeFunc("distreach_guarantee_rounds_total", "Rounds audited against the paper's guarantees.", func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return float64(a.rounds)
	})
	r.GaugeFuncVec("distreach_guarantee_violations_total", "Guarantee violations observed, by invariant.", "invariant", "response_bytes", func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return float64(a.byteViolations)
	})
	r.GaugeFuncVec("distreach_guarantee_violations_total", "Guarantee violations observed, by invariant.", "invariant", "site_visits", func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return float64(a.visitViolations)
	})
	r.GaugeFunc("distreach_guarantee_byte_bound", "Current response-volume bound c*(|Vf|+1)^2 in bytes.", func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return float64(a.byteBound)
	})
}
