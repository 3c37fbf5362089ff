package main

import (
	"fmt"
	"sort"

	"distreach/internal/automaton"
	"distreach/internal/fragment"
	"distreach/internal/graph"
)

// The static workloads check every answer against query.want as it arrives
// (load.go). This file is the oracle of the workload whose writes change
// answers: each answer was pinned by its round to an update-log position
// (WireStats.LSN), so it must equal centralized evaluation on the graph as
// it stood after exactly that many writes.

// checksPerLSN bounds how many recorded answers of each class are checked
// at each log position.
const checksPerLSN = 2

// centralized evaluates q on g without any of the distributed machinery.
func centralized(g *graph.Graph, q *query) (answer bool, dist int64) {
	switch q.class {
	case classQBR:
		d := g.Dist(q.s, q.t)
		return d >= 0 && d <= q.l, int64(d)
	case classQRR:
		return automaton.Eval(g, q.s, q.t, q.a), 0
	default:
		return g.Reachable(q.s, q.t), 0
	}
}

// agrees reports whether a recorded answer matches centralized evaluation
// on g; for a true qbr answer the distance must match too.
func agrees(g *graph.Graph, q *query, r record) bool {
	want, dist := centralized(g, q)
	if r.answer != want {
		return false
	}
	return q.class != classQBR || !want || r.dist == dist
}

// replayCheck replays the acknowledged writes in LSN order into g (which
// it mutates) and, at each log position, checks up to checksPerLSN recorded
// answers per class. It reports how many answers were checked and how many
// were wrong. The writes must occupy positions 1..n without a gap,
// otherwise the graph at a position is unknown and an error is returned.
func replayCheck(g *graph.Graph, pool []query, writes []written, recs []record) (checked, wrong int, err error) {
	sort.Slice(writes, func(i, j int) bool { return writes[i].lsn < writes[j].lsn })
	for i, w := range writes {
		if w.lsn != uint64(i+1) {
			return 0, 0, fmt.Errorf("write %d holds LSN %d: the update log has a gap or a fork", i+1, w.lsn)
		}
	}
	atLSN := map[uint64][]record{}
	for _, r := range recs {
		if r.lsn > uint64(len(writes)) {
			return 0, 0, fmt.Errorf("an answer is pinned to LSN %d but only %d writes were acknowledged", r.lsn, len(writes))
		}
		atLSN[r.lsn] = append(atLSN[r.lsn], r)
	}
	for lsn := 0; lsn <= len(writes); lsn++ {
		if lsn > 0 {
			switch op := writes[lsn-1].op; op.Kind {
			case fragment.OpInsertEdge:
				g.InsertEdge(op.U, op.V)
			case fragment.OpDeleteEdge:
				g.DeleteEdge(op.U, op.V)
			}
		}
		var perClass [numClasses]int
		for _, r := range atLSN[uint64(lsn)] {
			q := &pool[r.qi]
			if perClass[q.class] == checksPerLSN {
				continue
			}
			perClass[q.class]++
			checked++
			if !agrees(g, q, r) {
				wrong++
			}
		}
	}
	return checked, wrong, nil
}
