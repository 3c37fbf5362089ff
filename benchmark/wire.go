package main

import (
	"fmt"
	"runtime"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/graph"
	"distreach/internal/netsite"
	"distreach/internal/reachindex"
)

// setupTimes is where one set-up spent its time.
type setupTimes struct {
	partitionMS float64
	indexMS     float64
	bootMS      float64 // sites listening, coordinator dialed, first query answered
	totalS      float64
}

// counters are cumulative counts a system exposes to the outside; the
// benchmark reports their growth over the timed rounds.
type counters struct {
	idxHits, idxFallbacks, idxRebuilds int64
	idxLabelBytes                      int64
	// Gateway only, from /stats and /metrics.
	cacheHits, cacheMisses, cacheEvictions int64
	coalRounds, coalQueries, rejected      int64
	wireBytes                              int64
}

// system is a deployed target the benchmark set up and must tear down.
type system interface {
	target
	counters() (counters, error)
	// memMB reports the memory the system holds right now.
	memMB() (float64, error)
	close()
}

// deployment is the in-process system: a fragmentation served by loopback
// TCP sites behind one netsite.Coordinator, with production defaults
// (anytime answers on, reachability index at its default budget).
type deployment struct {
	fr    *fragment.Fragmentation
	sites []*netsite.Site
	co    *netsite.Coordinator
}

// deploy partitions g (which the deployment then owns and mutates), builds
// the indexes, starts the sites, dials them and answers probe.
func deploy(g *graph.Graph, partitioner string, seed uint64, probe *query) (*deployment, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	p, err := fragment.ByName(partitioner, seed)
	if err != nil {
		return nil, st, err
	}
	fr, err := fragment.Partition(g, p, numSites)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	fr.EnableReachIndex(reachindex.DefaultBudget)
	fr.WaitReachIndexes()
	t2 := time.Now()
	d := &deployment{fr: fr}
	var addrs []string
	d.sites, addrs, err = netsite.ServeReplica(fragment.NewReplica(fr), netsite.SiteOptions{})
	if err != nil {
		return nil, st, err
	}
	if d.co, err = netsite.Dial(addrs, 3*time.Second); err != nil {
		d.close()
		return nil, st, err
	}
	if _, err := d.query(probe); err != nil {
		d.close()
		return nil, st, fmt.Errorf("first query: %w", err)
	}
	t3 := time.Now()
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }
	st = setupTimes{partitionMS: ms(t0, t1), indexMS: ms(t1, t2), bootMS: ms(t2, t3), totalS: t3.Sub(t0).Seconds()}
	return d, st, nil
}

func (d *deployment) close() {
	if d.co != nil {
		d.co.Close()
	}
	for _, s := range d.sites {
		s.Close()
	}
	d.fr.WaitReachIndexes()
}

func fromWireStats(st netsite.WireStats) wireCount {
	return wireCount{
		bytesSent: st.BytesSent, bytesRecv: st.BytesReceived,
		framesSent: st.FramesSent, framesRecv: st.FramesReceived,
		partial: st.PartialFrames, cancel: st.CancelFrames,
		early: st.EarlyTerminated, firstAnswer: st.FirstAnswer,
	}
}

func (d *deployment) query(q *query) (outcome, error) {
	var (
		o   outcome
		st  netsite.WireStats
		err error
	)
	switch q.class {
	case classQR:
		o.answer, st, err = d.co.Reach(q.s, q.t)
	case classQBR:
		o.answer, o.dist, st, err = d.co.ReachWithin(q.s, q.t, q.l)
	case classQRR:
		o.answer, st, err = d.co.ReachRegex(q.s, q.t, q.a)
	}
	o.lsn = st.LSN
	o.wire = fromWireStats(st)
	return o, err
}

func (d *deployment) write(op fragment.Op) (uint64, error) {
	res, _, err := d.co.Apply([]netsite.Op{op})
	if err == nil && len(res.Missed) > 0 {
		err = fmt.Errorf("update %d missed sites %v", res.LSN, res.Missed)
	}
	return res.LSN, err
}

func (d *deployment) counters() (counters, error) {
	st := d.fr.ReachIndexStats()
	return counters{idxHits: st.Hits, idxFallbacks: st.Fallbacks, idxRebuilds: st.Rebuilds, idxLabelBytes: st.LabelBytes}, nil
}

// memMB reports the live heap of this process, which holds the deployment
// beside the benchmark's own inputs. A writer may be at work beside it, so
// it cannot wait out index rebuilds (WaitReachIndexes must not run beside
// Apply); a sample that catches a half-built index is why the run reports
// the median of its samples.
func (d *deployment) memMB() (float64, error) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20), nil
}
