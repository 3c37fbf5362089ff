package baseline

// This file is a small vertex-centric bulk-synchronous-parallel substrate
// in the style of Malewicz et al.'s Pregel [21], which the paper uses as
// its message-passing comparison point (algorithm disReachm in Section 7;
// DisReachM is its one client). One worker (site) hosts each fragment;
// computation proceeds in supersteps; vertices exchange messages, vote to
// halt, and are reactivated by incoming messages. Messages between vertices
// in different fragments are delivered through the master and are accounted
// as visits to the destination site, matching the paper's visit metric for
// message-passing algorithms.

import (
	"sync"
	"sync/atomic"

	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// Context is handed to a vertex's Compute function for one superstep.
type Context[M any] struct {
	w         *worker[M]
	v         graph.NodeID
	halted    bool
	Superstep int
}

// Send delivers a message to vertex dst at the beginning of the next
// superstep.
func (c *Context[M]) Send(dst graph.NodeID, m M) { c.w.send(c.v, dst, m) }

// SendToNeighbors delivers a message to every out-neighbor of the current
// vertex.
func (c *Context[M]) SendToNeighbors(m M) {
	for _, w := range c.w.g.Out(c.v) {
		c.w.send(c.v, w, m)
	}
}

// VoteToHalt deactivates the vertex; it is reactivated by the next message
// it receives.
func (c *Context[M]) VoteToHalt() { c.halted = true }

// Signal raises the global stop flag: the engine finishes the current
// superstep and terminates. It backs early termination such as "the target
// has been reached".
func (c *Context[M]) Signal() { c.w.sig.Store(true) }

// Config describes one Pregel computation.
type Config[V, M any] struct {
	// Init returns the initial value of a vertex.
	Init func(v graph.NodeID) V
	// InitialActive lists the vertices active in superstep 0. Nil means all
	// vertices start active (standard Pregel); BFS-style programs activate
	// only the source.
	InitialActive []graph.NodeID
	// Compute processes one vertex for one superstep.
	Compute func(ctx *Context[M], v graph.NodeID, val *V, msgs []M)
	// MsgBytes accounts the wire size of one message; 0 means a flat 12
	// bytes (vertex ID + small payload).
	MsgBytes func(m M) int
	// MaxSupersteps caps execution; 0 means no cap.
	MaxSupersteps int
	// DeliverOnce makes the master drop cross-fragment messages to
	// vertices that have already received one earlier in the run. This is
	// the filter of the paper's disReachm description — the master
	// "redirects the message to workers Sj where the fragment Fj has
	// inactive in-node v" — and is only sound for programs whose first
	// message carries all the information (BFS activation). Local
	// (intra-fragment) messages are not filtered.
	DeliverOnce bool
}

// Engine runs Pregel computations over a fixed fragmentation.
type Engine[V, M any] struct {
	fr    *fragment.Fragmentation
	g     *graph.Graph
	cfg   Config[V, M]
	stop  atomic.Bool
	run   *cluster.Run
	sites []*worker[M]
	value []V
	halt  []bool
}

type worker[M any] struct {
	site int
	mu   sync.Mutex
	// outbox for the next superstep, keyed by destination site.
	local  map[graph.NodeID][]M
	remote map[int]map[graph.NodeID][]M
	// vertices that computed this superstep without voting to halt.
	keepActive []graph.NodeID
	g          *graph.Graph
	owner      func(graph.NodeID) int
	msgSz      func(M) int
	sig        *atomic.Bool
}

func (w *worker[M]) send(src, dst graph.NodeID, m M) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.owner(dst) == w.site {
		w.local[dst] = append(w.local[dst], m)
		return
	}
	site := w.owner(dst)
	if w.remote[site] == nil {
		w.remote[site] = make(map[graph.NodeID][]M)
	}
	w.remote[site][dst] = append(w.remote[site][dst], m)
}

// Result reports the outcome of a Pregel run.
type Result[V any] struct {
	Supersteps int
	Values     []V // indexed by NodeID
	Signalled  bool
}

// Run executes the computation, charging all accounting to run.
func Run[V, M any](run *cluster.Run, fr *fragment.Fragmentation, cfg Config[V, M]) Result[V] {
	g := fr.Graph()
	n := g.NumNodes()
	if cfg.MsgBytes == nil {
		cfg.MsgBytes = func(M) int { return 12 }
	}
	eng := &Engine[V, M]{fr: fr, g: g, cfg: cfg, run: run}
	eng.value = make([]V, n)
	eng.halt = make([]bool, n)
	if cfg.Init != nil {
		for v := 0; v < n; v++ {
			eng.value[v] = cfg.Init(graph.NodeID(v))
		}
	}
	k := fr.Card()
	workers := make([]*worker[M], k)
	for i := 0; i < k; i++ {
		workers[i] = &worker[M]{
			site:   i,
			local:  make(map[graph.NodeID][]M),
			remote: make(map[int]map[graph.NodeID][]M),
			g:      g,
			owner:  fr.Owner,
			msgSz:  cfg.MsgBytes,
			sig:    &eng.stop,
		}
	}

	// Cross-delivery dedup state for DeliverOnce.
	var delivered []bool
	if cfg.DeliverOnce {
		delivered = make([]bool, n)
	}

	// Current-superstep inboxes, per vertex.
	inbox := make([]map[graph.NodeID][]M, k)
	for i := range inbox {
		inbox[i] = make(map[graph.NodeID][]M)
	}
	if cfg.InitialActive == nil {
		for v := 0; v < n; v++ {
			site := fr.Owner(graph.NodeID(v))
			inbox[site][graph.NodeID(v)] = nil
		}
	} else {
		for _, v := range cfg.InitialActive {
			inbox[fr.Owner(v)][v] = nil
		}
	}

	supersteps := 0
	for {
		if cfg.MaxSupersteps > 0 && supersteps >= cfg.MaxSupersteps {
			break
		}
		anyActive := false
		for i := range inbox {
			if len(inbox[i]) > 0 {
				anyActive = true
				break
			}
		}
		if !anyActive || eng.stop.Load() {
			break
		}
		supersteps++
		run.AddRound()
		run.Parallel(func(site int) {
			w := workers[site]
			w.keepActive = w.keepActive[:0]
			for v, msgs := range inbox[site] {
				if eng.halt[v] && len(msgs) == 0 {
					continue
				}
				eng.halt[v] = false
				ctx := &Context[M]{w: w, v: v, Superstep: supersteps - 1}
				cfg.Compute(ctx, v, &eng.value[v], msgs)
				if ctx.halted {
					eng.halt[v] = true
				} else {
					w.keepActive = append(w.keepActive, v)
				}
			}
		})
		// Message exchange: local messages stay at the site; cross messages
		// travel through the master, which relays them one by one. We
		// follow the paper's visit metric and count one visit per cross
		// message delivered to a site; the master relay serializes, which
		// is exactly the cost the paper ascribes to message passing
		// ("may serialize operations that can be conducted in parallel").
		crossBytes, crossMsgs := 0, 0
		for i := range inbox {
			inbox[i] = make(map[graph.NodeID][]M)
		}
		for _, w := range workers {
			w.mu.Lock()
			for v, msgs := range w.local {
				inbox[w.site][v] = append(inbox[w.site][v], msgs...)
			}
			w.local = make(map[graph.NodeID][]M)
			for site, byDst := range w.remote {
				// The master bundles all of a worker's messages for one
				// destination site into a single delivery (one visit), but
				// handles each vertex message individually (serial relay
				// cost below).
				batchBytes := 0
				for v, msgs := range byDst {
					if cfg.DeliverOnce {
						if delivered[v] {
							continue
						}
						delivered[v] = true
						msgs = msgs[:1]
					}
					for _, m := range msgs {
						batchBytes += cfg.MsgBytes(m)
					}
					inbox[site][v] = append(inbox[site][v], msgs...)
					crossMsgs += len(msgs)
				}
				if batchBytes > 0 {
					run.Route(w.site, site, batchBytes)
					crossBytes += batchBytes
				}
			}
			w.remote = make(map[int]map[graph.NodeID][]M)
			// Vertices that did not vote to halt stay active even without
			// incoming messages.
			for _, v := range w.keepActive {
				if _, ok := inbox[w.site][v]; !ok {
					inbox[w.site][v] = nil
				}
			}
			w.mu.Unlock()
		}
		if crossMsgs > 0 {
			run.NetSerial(crossBytes, crossMsgs)
		}
	}
	return Result[V]{Supersteps: supersteps, Values: eng.value, Signalled: eng.stop.Load()}
}
