package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests.")
	c.Add(3)
	cv := r.CounterVec("test_by_class_total", "By class.", "class")
	cv.With("reach").Add(2)
	cv.With("dist").Inc()
	g := r.Gauge("test_temp", "A gauge.")
	g.Set(1.5)
	g.Add(-0.5)
	r.GaugeFunc("test_sampled", "Sampled gauge.", func() float64 { return 42 })
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	samples, err := ValidateExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("exposition failed validation: %v\n%s", err, out)
	}
	want := map[string]float64{
		"test_requests_total":                    3,
		`test_by_class_total{class="reach"}`:     2,
		`test_by_class_total{class="dist"}`:      1,
		"test_temp":                              1,
		"test_sampled":                           42,
		`test_latency_seconds_bucket{le="0.01"}`: 1,
		`test_latency_seconds_bucket{le="0.1"}`:  2,
		`test_latency_seconds_bucket{le="1"}`:    2,
		`test_latency_seconds_bucket{le="+Inf"}`: 3,
		"test_latency_seconds_count":             3,
	}
	for k, v := range want {
		got, ok := samples[k]
		if !ok {
			t.Fatalf("missing sample %q in:\n%s", k, out)
		}
		if got != v {
			t.Fatalf("sample %q = %v, want %v", k, got, v)
		}
	}
	if sum := samples["test_latency_seconds_sum"]; math.Abs(sum-5.055) > 1e-9 {
		t.Fatalf("histogram sum = %v, want 5.055", sum)
	}
}

func TestRegistryIdempotentAndEscaping(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "first")
	b := r.Counter("dup_total", "second registration returns same counter")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	cv := r.CounterVec("esc_total", `help with \ and newline`+"\n", "path")
	cv.With(`va"l\ue` + "\n").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("escaped exposition invalid: %v\n%s", err, buf.String())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	r.Gauge("dup_total", "wrong type")
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("conc_total", "c")
			h := r.Histogram("conc_seconds", "h", nil)
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) / 1000)
				if j%100 == 0 {
					var buf bytes.Buffer
					r.WritePrometheus(&buf)
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("conc_total", "c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	samples, err := ValidateExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if samples["conc_seconds_count"] != 8000 {
		t.Fatalf("histogram count = %v, want 8000", samples["conc_seconds_count"])
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	bad := []string{
		"1leading_digit 3\n",
		"metric{label=\"unterminated 3\n",
		"metric{=\"x\"} 3\n",
		"metric notanumber\n",
		"# TYPE m bogus\nm 1\n",
		"# TYPE m counter\nm 1\nm 1\n",       // duplicate sample
		"# TYPE m counter\nother_metric 1\n", // sample without TYPE
		"metric{l=\"bad\\q\"} 1\n",           // bad escape
	}
	for _, s := range bad {
		if _, err := ValidateExposition(strings.NewReader(s)); err == nil {
			t.Fatalf("accepted malformed exposition: %q", s)
		}
	}
	// Untyped-only output (no comments at all) is fine.
	got, err := ValidateExposition(strings.NewReader("free_metric 1.5 1700000000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got["free_metric"] != 1.5 {
		t.Fatalf("free_metric = %v", got["free_metric"])
	}
}

func TestWireSpanRoundTrip(t *testing.T) {
	spans := []WireSpan{
		{Parent: -1, Name: "queue", StartOffsetNs: 10, DurNs: 1000},
		{Parent: 0, Name: "eval", StartOffsetNs: 1010, DurNs: 50000, Attrs: []Attr{
			{Key: "reachindex_outcome", Val: "hit"},
			{Key: "eqs", Val: "12"},
		}},
		{Parent: 1, Name: "partial", StartOffsetNs: 2000, DurNs: 5},
	}
	p := AppendWireSpans(nil, spans)
	p = append(p, 0xAA, 0xBB) // trailing body must survive
	got, rest, err := DecodeWireSpans(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 || rest[0] != 0xAA {
		t.Fatalf("remainder wrong: %x", rest)
	}
	if len(got) != len(spans) {
		t.Fatalf("got %d spans, want %d", len(got), len(spans))
	}
	for i := range spans {
		if got[i].Parent != spans[i].Parent || got[i].Name != spans[i].Name ||
			got[i].StartOffsetNs != spans[i].StartOffsetNs || got[i].DurNs != spans[i].DurNs {
			t.Fatalf("span %d mismatch: %+v vs %+v", i, got[i], spans[i])
		}
		if len(got[i].Attrs) != len(spans[i].Attrs) {
			t.Fatalf("span %d attrs: %v vs %v", i, got[i].Attrs, spans[i].Attrs)
		}
		for j := range spans[i].Attrs {
			if got[i].Attrs[j] != spans[i].Attrs[j] {
				t.Fatalf("span %d attr %d: %v vs %v", i, j, got[i].Attrs[j], spans[i].Attrs[j])
			}
		}
	}
}

func TestWireSpanCapsAndMalformed(t *testing.T) {
	// Over-long fields are truncated at encode, not rejected.
	long := strings.Repeat("x", 300)
	p := AppendWireSpans(nil, []WireSpan{{Parent: -1, Name: long, Attrs: []Attr{{Key: long, Val: long}}}})
	got, _, err := DecodeWireSpans(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0].Name) != maxSpanName || len(got[0].Attrs[0].Key) != maxAttrKeyLen || len(got[0].Attrs[0].Val) != maxAttrValLen {
		t.Fatalf("caps not applied: name=%d key=%d val=%d", len(got[0].Name), len(got[0].Attrs[0].Key), len(got[0].Attrs[0].Val))
	}
	// No spans is one byte.
	if p := AppendWireSpans(nil, nil); len(p) != 1 {
		t.Fatalf("the empty section is %d bytes, want 1", len(p))
	}
	// Truncated buffers, absurd counts and padded ones must error, not panic.
	nameOverCap := append([]byte{0x01, 0x00, maxSpanName + 1}, strings.Repeat("a", maxSpanName+1)...)
	for _, b := range [][]byte{
		{},
		{0xFF, 0xFF},                         // truncated count varint
		{0x81, 0x02},                         // 257 spans claimed
		{0x80, 0x00},                         // padded count
		{0x01},                               // 1 span, no body
		{0x01, 0x00, 0x70, 0x00, 0x00},       // name length 112, no name
		{0x01, 0x82, 0x02, 0x00, 0x00, 0x00}, // parent+1 of 258, above the span cap
		{0x01, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00}, // padded start offset
		{0x01, 0x00, 0x00, 0x00, 0x00, 0x11},       // 17 attributes claimed
		append(nameOverCap, 0x00, 0x00, 0x00),      // name above its cap
		// One span in the retired fixed-width layout: parent i16 -1,
		// name length u8, name, start and duration u64 big-endian, no
		// attributes.
		{0x01, 0xFF, 0xFF, 0x01, 'q', 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0x00},
	} {
		if _, _, err := DecodeWireSpans(b); err == nil {
			t.Fatalf("decoded malformed %x", b)
		}
	}
}

func TestBuilderAndTree(t *testing.T) {
	b := NewBuilder(0xabc, "reach")
	round := b.StartSpan(b.Root(), "round", Attr{Key: "attempt", Val: "1"})
	rpc := b.StartSpan(round, "rpc", Attr{Key: "site", Val: "0"})
	anchor := time.Now()
	b.AttachRemote(rpc, 0, anchor, []WireSpan{
		{Parent: -1, Name: "queue", StartOffsetNs: 0, DurNs: 100},
		{Parent: 0, Name: "eval", StartOffsetNs: 100, DurNs: 900, Attrs: []Attr{{Key: "reachindex_outcome", Val: "hit"}}},
	})
	b.End(rpc)
	b.End(round)
	b.AddSpan(b.Root(), "solve", time.Now(), time.Millisecond)
	tr := b.Finish()
	if tr.ID != 0xabc || len(tr.Spans) != 6 {
		t.Fatalf("trace: id=%x spans=%d", tr.ID, len(tr.Spans))
	}
	if tr2 := b.Finish(); tr2.Dur != tr.Dur {
		t.Fatal("second Finish changed the trace")
	}

	raw, err := tr.Tree()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Tree []treeNode `json:"tree"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Tree) != 1 || doc.Tree[0].Name != "reach" {
		t.Fatalf("root: %+v", doc.Tree)
	}
	// Find the remote eval span under rpc and check site + attr survived.
	var findEval func(nodes []treeNode) *treeNode
	findEval = func(nodes []treeNode) *treeNode {
		for i := range nodes {
			if nodes[i].Name == "eval" {
				return &nodes[i]
			}
			if n := findEval(nodes[i].Children); n != nil {
				return n
			}
		}
		return nil
	}
	ev := findEval(doc.Tree)
	if ev == nil || ev.Site != 0 || len(ev.Attrs) != 1 || ev.Attrs[0].Val != "hit" {
		t.Fatalf("eval span wrong: %+v", ev)
	}
	txt := tr.Format()
	if !strings.Contains(txt, "eval") || !strings.Contains(txt, "reachindex_outcome=hit") {
		t.Fatalf("Format missing eval span:\n%s", txt)
	}
}

func TestRecorderAnchoring(t *testing.T) {
	t0 := time.Now()
	rec := NewRecorder(t0)
	// A start before t0 (clock jitter) clamps to offset 0.
	rec.Span(-1, "queue", t0.Add(-time.Millisecond), t0.Add(time.Millisecond))
	i := rec.Span(-1, "eval", t0.Add(2*time.Millisecond), t0.Add(5*time.Millisecond))
	rec.Span(i, "partial", t0.Add(3*time.Millisecond), t0.Add(3*time.Millisecond))
	spans, rest, err := DecodeWireSpans(rec.AppendWire(nil))
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v rest=%d", err, len(rest))
	}
	if spans[0].StartOffsetNs != 0 {
		t.Fatalf("pre-anchor start not clamped: %d", spans[0].StartOffsetNs)
	}
	if spans[1].StartOffsetNs != uint64(2*time.Millisecond) || spans[1].DurNs != uint64(3*time.Millisecond) {
		t.Fatalf("eval offsets: %+v", spans[1])
	}
	if spans[2].Parent != int16(i) {
		t.Fatalf("partial parent = %d, want %d", spans[2].Parent, i)
	}
}

func TestTraceStore(t *testing.T) {
	s := NewTraceStore(3)
	var slow []*Trace
	s.SetSlow(10*time.Millisecond, func(tr *Trace) { slow = append(slow, tr) })
	for i := 1; i <= 5; i++ {
		d := time.Duration(i) * 3 * time.Millisecond
		s.Put(&Trace{ID: uint64(i), Name: "q", Dur: d})
	}
	if s.Get(1) != nil || s.Get(2) != nil {
		t.Fatal("evicted traces still resolvable")
	}
	if tr := s.Get(5); tr == nil || tr.ID != 5 {
		t.Fatal("latest trace missing")
	}
	rec := s.Recent(10)
	if len(rec) != 3 || rec[0].ID != 5 || rec[2].ID != 3 {
		t.Fatalf("recent order wrong: %v", ids(rec))
	}
	// 12ms and 15ms traces (i=4,5) exceed the 10ms slow threshold.
	if len(slow) != 2 || slow[0].ID != 4 || slow[1].ID != 5 {
		t.Fatalf("slow log wrong: %v", ids(slow))
	}
}

func ids(trs []*Trace) []uint64 {
	out := make([]uint64, len(trs))
	for i, tr := range trs {
		out[i] = tr.ID
	}
	return out
}

func TestAuditor(t *testing.T) {
	a := NewAuditor()
	a.SetDeployment(10, 1000) // bound = 64 * 121 = 7744
	a.Observe(AuditRound{
		RespBytes: []int64{100, 7744, 200},
		EvalNs:    []int64{1000, 2000, 3000},
	})
	if v := a.Violations(); v != 0 {
		t.Fatalf("clean round produced %d violations", v)
	}
	a.Observe(AuditRound{
		RespBytes: []int64{7745, 10},
	})
	s := a.Summary()
	if s.ByteViolations != 1 {
		t.Fatalf("violations: %+v", s)
	}
	if s.MaxRespBytes != 7745 || s.ByteBound != 7744 {
		t.Fatalf("extrema: %+v", s)
	}
	if s.Rounds != 2 {
		t.Fatalf("rounds = %d", s.Rounds)
	}

	// Rows-free replies of a reach or distance round answer to the linear
	// bound, per query (64 * 11 = 704 here); a reply carrying rows, any
	// reply of a round with regex queries, and a site without a final to
	// the quadratic one.
	a.Observe(AuditRound{
		RespBytes: []int64{2 * 704, 2*704 + 1, 7744, 7744},
		Rows:      []RowsOutcome{RowsHit, RowsHit, RowsMiss, RowsNone},
		Queries:   2, RowsBacked: true,
	})
	a.Observe(AuditRound{
		RespBytes: []int64{7744, 7745},
		Rows:      []RowsOutcome{RowsHit, RowsHit},
		Queries:   1,
	})
	s = a.Summary()
	if s.ByteViolations != 3 || s.LinearByteBound != 704 {
		t.Fatalf("linear bound: %+v", s)
	}
	if !slices.Equal(s.RowsHits, []int64{2, 2, 0, 0}) || !slices.Equal(s.RowsMisses, []int64{0, 0, 1, 0}) {
		t.Fatalf("rows counters: hits %v misses %v", s.RowsHits, s.RowsMisses)
	}
	if h, m := a.RowsReplies(2); h != 0 || m != 1 {
		t.Fatalf("RowsReplies(2) = %d, %d", h, m)
	}
	// A reply carrying a delta of the rows answers to the quadratic bound,
	// as full rows do, and counts as a patch.
	pa := NewAuditor()
	pa.SetDeployment(10, 1000)
	pa.Observe(AuditRound{
		RespBytes: []int64{2000, 7745, 0},
		Rows:      []RowsOutcome{RowsPatch, RowsPatch, RowsHit},
		Queries:   1, RowsBacked: true,
	})
	if ps := pa.Summary(); ps.ByteViolations != 1 || !slices.Equal(ps.RowsPatches, []int64{1, 1, 0}) || pa.RowsPatches(1) != 1 || pa.RowsPatches(2) != 0 {
		t.Fatalf("patches: %+v", ps)
	}
	if RowsPatch.String() != "patch" || RowsMiss.String() != "miss" || RowsHit.String() != "hit" {
		t.Fatalf("outcome names: %v %v %v", RowsPatch, RowsMiss, RowsHit)
	}

	// Visits: a site posted twice in one attempt is a violation; a site
	// not posted at all (vouched for) is none, and the mean counts the
	// sites posted per round.
	v := NewAuditor()
	v.Observe(AuditRound{Posts: []int{1, 1, 0, 0}})
	v.Observe(AuditRound{Posts: []int{1, 0, 1, 1}})
	if s := v.Summary(); s.VisitViolations != 0 || s.Sites != 4 || s.MeanSitesPosted != 2.5 || v.Violations() != 0 {
		t.Fatalf("clean visits: %+v", s)
	}
	v.Observe(AuditRound{Posts: []int{2, 1, 0, 0}})
	if s := v.Summary(); s.VisitViolations != 1 || v.Violations() != 1 || v.Posts(0) != 3 || v.Posts(3) != 1 {
		t.Fatalf("a site posted twice: %+v, posts %d", s, v.Posts(0))
	}

	// Correlation needs ≥2 deployment sizes; uncorrelated eval times stay
	// well under a strong-correlation threshold.
	a2 := NewAuditor()
	for i, n := range []int64{100, 1000, 10000, 100000} {
		a2.SetDeployment(10, n)
		// Eval time flat in |G| (with a wiggle): guarantee holds.
		a2.Observe(AuditRound{EvalNs: []int64{5000 + int64(i%2)*100}})
	}
	s2 := a2.Summary()
	if s2.SizePoints != 4 {
		t.Fatalf("size points = %d", s2.SizePoints)
	}
	if s2.EvalSizeCorr == nil {
		t.Fatal("correlation missing with 4 points")
	}
	if math.Abs(*s2.EvalSizeCorr) > 0.9 {
		t.Fatalf("flat eval times reported as strongly correlated: %v", *s2.EvalSizeCorr)
	}

	// Register renders cleanly.
	r := NewRegistry()
	a.Register(r)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ValidateExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if samples[`distreach_guarantee_violations_total{invariant="response_bytes"}`] != 3 ||
		samples[`distreach_guarantee_violations_total{invariant="site_visits"}`] != 0 {
		t.Fatalf("registered violation gauge wrong: %v", samples)
	}
}
