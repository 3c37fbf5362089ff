package obs

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"distreach/internal/codec"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// Span is one timed operation inside a trace. Site is the fragment index
// the span ran on, or -1 for coordinator-side spans.
type Span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"` // 0 = root
	Name   string        `json:"name"`
	Site   int           `json:"site"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

// Trace is one query's assembled span tree.
type Trace struct {
	ID    uint64        `json:"id"`
	Name  string        `json:"name"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	Spans []Span        `json:"spans"`
}

// Builder assembles a trace on the coordinator. Span IDs are sequential
// per trace (root = 1); remote spans shipped back from sites are remapped
// into the same ID space by AttachRemote. Safe for the concurrent
// per-site goroutines a round fans out.
type Builder struct {
	mu    sync.Mutex
	tr    Trace
	next  uint64
	ended bool
}

// NewBuilder starts a trace with a root span named like the trace.
func NewBuilder(id uint64, name string) *Builder {
	now := time.Now()
	b := &Builder{next: 2}
	b.tr = Trace{ID: id, Name: name, Start: now, Spans: []Span{
		{ID: 1, Parent: 0, Name: name, Site: -1, Start: now},
	}}
	return b
}

// Root returns the root span's ID (always 1, named for readability at
// call sites).
func (b *Builder) Root() uint64 { return 1 }

// StartSpan opens a coordinator-side span under parent and returns its ID.
func (b *Builder) StartSpan(parent uint64, name string, attrs ...Attr) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.next
	b.next++
	b.tr.Spans = append(b.tr.Spans, Span{
		ID: id, Parent: parent, Name: name, Site: -1, Start: time.Now(), Attrs: attrs,
	})
	return id
}

// End closes a span opened by StartSpan and appends any late attributes.
func (b *Builder) End(id uint64, attrs ...Attr) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.tr.Spans {
		if b.tr.Spans[i].ID == id {
			b.tr.Spans[i].Dur = time.Since(b.tr.Spans[i].Start)
			b.tr.Spans[i].Attrs = append(b.tr.Spans[i].Attrs, attrs...)
			return
		}
	}
}

// AddSpan records an already-timed coordinator-side span.
func (b *Builder) AddSpan(parent uint64, name string, start time.Time, dur time.Duration, attrs ...Attr) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.next
	b.next++
	b.tr.Spans = append(b.tr.Spans, Span{
		ID: id, Parent: parent, Name: name, Site: -1, Start: start, Dur: dur, Attrs: attrs,
	})
	return id
}

// AttachRemote grafts a site's decoded spans under parent. anchor is the
// coordinator-clock instant the site started measuring from (we use the
// moment the request frame was posted), so remote offsets render on the
// coordinator's timeline without trusting the site's wall clock.
// Site-local parent indices are remapped into this trace's ID space; a
// parent index of -1 (or out of range) hangs the span off parent.
func (b *Builder) AttachRemote(parent uint64, site int, anchor time.Time, spans []WireSpan) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ids := make([]uint64, len(spans))
	for i := range spans {
		ids[i] = b.next
		b.next++
	}
	for i, ws := range spans {
		pid := parent
		if ws.Parent >= 0 && int(ws.Parent) < i {
			pid = ids[ws.Parent]
		}
		attrs := make([]Attr, len(ws.Attrs))
		copy(attrs, ws.Attrs)
		b.tr.Spans = append(b.tr.Spans, Span{
			ID: ids[i], Parent: pid, Name: ws.Name, Site: site,
			Start: anchor.Add(time.Duration(ws.StartOffsetNs)),
			Dur:   time.Duration(ws.DurNs),
			Attrs: attrs,
		})
	}
}

// Finish closes the root span and returns the completed trace. Further
// calls return the same trace without re-closing it.
func (b *Builder) Finish() *Trace {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.ended {
		b.ended = true
		b.tr.Spans[0].Dur = time.Since(b.tr.Start)
		b.tr.Dur = b.tr.Spans[0].Dur
	}
	tr := b.tr
	return &tr
}

// Wire-format caps. A reply frame carries at most maxWireSpans spans;
// recorders drop extras rather than bloat the answer, and decoders
// reject anything past the caps so a malicious peer can't balloon
// coordinator memory.
const (
	maxWireSpans    = 256
	maxSpanName     = 64
	maxSpanAttrs    = 16
	maxAttrKeyLen   = 64
	maxAttrValLen   = 256
	wireSpanMinSize = 5 // parent + name length + start + dur + attribute count
)

// WireSpan is a site-recorded span in shipping form: times are offsets
// from the site's frame-receipt instant so no wall-clock crosses the
// wire, and Parent indexes an earlier span in the same batch (-1 = the
// coordinator's enclosing rpc span).
type WireSpan struct {
	Parent        int16
	Name          string
	StartOffsetNs uint64
	DurNs         uint64
	Attrs         []Attr
}

// AppendWireSpans encodes spans onto dst (internal/codec): a uvarint span
// count (one byte for no spans), then per span:
//
//	parent+1 uvarint (0: the rpc span) | name blob | startOffsetNs uvarint
//	| durNs uvarint | nAttrs uvarint | per attribute: key blob | value blob
//
// where a blob is a uvarint length and the bytes. Names, keys, values and
// the counts are cut to the caps the decoder enforces.
func AppendWireSpans(dst []byte, spans []WireSpan) []byte {
	if len(spans) > maxWireSpans {
		spans = spans[:maxWireSpans]
	}
	dst = binary.AppendUvarint(dst, uint64(len(spans)))
	for _, s := range spans {
		dst = binary.AppendUvarint(dst, uint64(int64(s.Parent)+1))
		dst = codec.AppendBlob(dst, s.Name[:min(len(s.Name), maxSpanName)])
		dst = binary.AppendUvarint(dst, s.StartOffsetNs)
		dst = binary.AppendUvarint(dst, s.DurNs)
		attrs := s.Attrs[:min(len(s.Attrs), maxSpanAttrs)]
		dst = binary.AppendUvarint(dst, uint64(len(attrs)))
		for _, a := range attrs {
			dst = codec.AppendBlob(dst, a.Key[:min(len(a.Key), maxAttrKeyLen)])
			dst = codec.AppendBlob(dst, a.Val[:min(len(a.Val), maxAttrValLen)])
		}
	}
	return dst
}

var errWireSpans = errors.New("obs: malformed wire spans")

// DecodeWireSpans decodes a span batch produced by AppendWireSpans and
// returns the remaining bytes after it. Every varint must be in its
// shortest form and every count and length within its cap, so what decodes
// re-encodes to the same bytes.
func DecodeWireSpans(p []byte) ([]WireSpan, []byte, error) {
	r := codec.NewReader(p)
	n := r.Count(wireSpanMinSize)
	if n > maxWireSpans {
		return nil, nil, errWireSpans
	}
	spans := make([]WireSpan, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		s := WireSpan{Parent: int16(int(r.Uint(maxWireSpans)) - 1)}
		name := r.Blob()
		s.StartOffsetNs = r.Uvarint()
		s.DurNs = r.Uvarint()
		nAttrs := r.Count(2)
		if len(name) > maxSpanName || nAttrs > maxSpanAttrs {
			return nil, nil, errWireSpans
		}
		s.Name = string(name)
		for j := 0; j < nAttrs; j++ {
			k, v := r.Blob(), r.Blob()
			if len(k) > maxAttrKeyLen || len(v) > maxAttrValLen {
				return nil, nil, errWireSpans
			}
			s.Attrs = append(s.Attrs, Attr{Key: string(k), Val: string(v)})
		}
		spans = append(spans, s)
	}
	if r.Err() != nil {
		return nil, nil, fmt.Errorf("%w: %v", errWireSpans, r.Err())
	}
	return spans, r.Rest(), nil
}

// Recorder captures spans on a site worker while it processes one traced
// frame. It is used by a single goroutine (the worker owning the job) —
// except Span, which the emit path may call from the same goroutine —
// so it needs no locking; t0 is the frame-receipt instant all offsets
// are relative to.
type Recorder struct {
	t0    time.Time
	spans []WireSpan
}

// NewRecorder starts recording with offsets anchored at t0.
func NewRecorder(t0 time.Time) *Recorder {
	return &Recorder{t0: t0}
}

// Span records one completed span. parent is the index of an earlier
// recorded span, or -1 to hang it off the coordinator's rpc span.
// Returns this span's index for use as a later parent.
func (r *Recorder) Span(parent int, name string, start, end time.Time, attrs ...Attr) int {
	if len(r.spans) >= maxWireSpans {
		return -1
	}
	so := start.Sub(r.t0)
	if so < 0 {
		so = 0
	}
	d := end.Sub(start)
	if d < 0 {
		d = 0
	}
	r.spans = append(r.spans, WireSpan{
		Parent:        int16(parent),
		Name:          name,
		StartOffsetNs: uint64(so),
		DurNs:         uint64(d),
		Attrs:         attrs,
	})
	return len(r.spans) - 1
}

// AppendWire appends everything recorded so far, encoded, to dst.
func (r *Recorder) AppendWire(dst []byte) []byte {
	return AppendWireSpans(dst, r.spans)
}

// TraceStore is a fixed-capacity ring of recent traces with O(1) lookup
// by ID, plus an optional slow-query callback.
type TraceStore struct {
	mu     sync.Mutex
	ring   []*Trace
	next   int
	byID   map[uint64]*Trace
	slow   time.Duration
	onSlow func(*Trace)
}

// NewTraceStore returns a store retaining the last capacity traces.
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = 256
	}
	return &TraceStore{ring: make([]*Trace, capacity), byID: make(map[uint64]*Trace)}
}

// SetSlow arms the slow-query log: any stored trace with Dur >= d is
// passed to fn (synchronously, so fn should be quick — the gateway logs).
func (s *TraceStore) SetSlow(d time.Duration, fn func(*Trace)) {
	s.mu.Lock()
	s.slow, s.onSlow = d, fn
	s.mu.Unlock()
}

// Put stores a finished trace, evicting the oldest when full.
func (s *TraceStore) Put(tr *Trace) {
	s.mu.Lock()
	if old := s.ring[s.next]; old != nil {
		delete(s.byID, old.ID)
	}
	s.ring[s.next] = tr
	s.byID[tr.ID] = tr
	s.next = (s.next + 1) % len(s.ring)
	slow, fn := s.slow, s.onSlow
	s.mu.Unlock()
	if fn != nil && slow > 0 && tr.Dur >= slow {
		fn(tr)
	}
}

// Get returns the trace with the given ID, or nil.
func (s *TraceStore) Get(id uint64) *Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// Recent returns up to n most-recent traces, newest first.
func (s *TraceStore) Recent(n int) []*Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 || n > len(s.ring) {
		n = len(s.ring)
	}
	out := make([]*Trace, 0, n)
	i := s.next - 1
	for len(out) < n {
		if i < 0 {
			i += len(s.ring)
		}
		if s.ring[i] == nil {
			break
		}
		out = append(out, s.ring[i])
		i--
		if i == s.next-1 {
			break
		}
	}
	return out
}

// treeNode is the nested JSON view of a span.
type treeNode struct {
	Name     string     `json:"name"`
	Site     int        `json:"site"`
	StartUs  int64      `json:"start_us"` // offset from trace start
	DurUs    int64      `json:"dur_us"`
	Attrs    []Attr     `json:"attrs,omitempty"`
	Children []treeNode `json:"children,omitempty"`
}

func (t *Trace) buildTree() []treeNode {
	kids := make(map[uint64][]int)
	byID := make(map[uint64]int)
	for i := range t.Spans {
		byID[t.Spans[i].ID] = i
		kids[t.Spans[i].Parent] = append(kids[t.Spans[i].Parent], i)
	}
	var build func(id uint64) []treeNode
	build = func(id uint64) []treeNode {
		idx := kids[id]
		sort.Slice(idx, func(a, b int) bool {
			return t.Spans[idx[a]].Start.Before(t.Spans[idx[b]].Start)
		})
		var out []treeNode
		for _, i := range idx {
			sp := &t.Spans[i]
			out = append(out, treeNode{
				Name:     sp.Name,
				Site:     sp.Site,
				StartUs:  sp.Start.Sub(t.Start).Microseconds(),
				DurUs:    sp.Dur.Microseconds(),
				Attrs:    sp.Attrs,
				Children: build(sp.ID),
			})
		}
		return out
	}
	return build(0)
}

// Tree marshals the trace as a nested JSON document for /trace/<id>.
func (t *Trace) Tree() ([]byte, error) {
	return json.MarshalIndent(struct {
		ID    uint64     `json:"trace_id"`
		Name  string     `json:"name"`
		Start time.Time  `json:"start"`
		DurUs int64      `json:"dur_us"`
		Tree  []treeNode `json:"tree"`
	}{t.ID, t.Name, t.Start, t.Dur.Microseconds(), t.buildTree()}, "", "  ")
}

// Format renders the trace as an indented text tree for the slow-query log.
func (t *Trace) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %x %s dur=%s\n", t.ID, t.Name, t.Dur)
	var walk func(nodes []treeNode, depth int)
	walk = func(nodes []treeNode, depth int) {
		for _, n := range nodes {
			fmt.Fprintf(&b, "%s%s", strings.Repeat("  ", depth+1), n.Name)
			if n.Site >= 0 {
				fmt.Fprintf(&b, " site=%d", n.Site)
			}
			fmt.Fprintf(&b, " +%dµs %dµs", n.StartUs, n.DurUs)
			for _, a := range n.Attrs {
				fmt.Fprintf(&b, " %s=%s", a.Key, a.Val)
			}
			b.WriteByte('\n')
			walk(n.Children, depth+1)
		}
	}
	walk(t.buildTree(), 0)
	return b.String()
}
