package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distreach/internal/fragment"
)

// The load generator: closed-loop and open-loop phases driven from this
// one process, a paced writer, and the per-query checks.

// wireCount is one query round's wire accounting, as netsite.WireStats or
// the gateway's "wire" object report it. Zero for a cache hit.
type wireCount struct {
	bytesSent, bytesRecv   int64
	framesSent, framesRecv int64
	partial, cancel        int64
	early                  bool
	firstAnswer            time.Duration
}

// outcome is what the system answered.
type outcome struct {
	answer bool
	dist   int64  // qbr: exact distance when answer is true
	lsn    uint64 // update-log position the round was pinned to
	cached bool
	wire   wireCount
}

// target is a system under load.
type target interface {
	query(q *query) (outcome, error)
	// write applies one edge update and reports the LSN it was given.
	write(op fragment.Op) (uint64, error)
}

// record is one answer kept for the LSN-replay oracle.
type record struct {
	qi     int
	answer bool
	dist   int64
	lsn    uint64
}

// phase is the tally of one load phase (or of one client within it).
type phase struct {
	lat      []float64 // ms per completed query; open loop: from the scheduled arrival
	late     []float64 // ms; open loop: issue time minus scheduled arrival, in arrival order
	classLat [numClasses][]float64
	hitLat   []float64 // ms; answers served from the gateway's cache
	missLat  []float64
	records  []record

	attempted, completed int
	errors               int // transport errors, refusals, timeouts
	wrong                int // answers that differ from the oracle
	violations           int // rounds with more than one final frame per site
	elapsed              time.Duration

	rounds, early               int64 // completed wire rounds, and those answered early
	bytesSent, bytesRecv        int64
	framesSent, framesRecv      int64
	partialFrames, cancelFrames int64
	firstAnswerUS               []float64
}

// issue runs pool query qi against tg and books the result. start is when
// the query's latency clock began. With replay the answer is recorded for
// the LSN-replay oracle, otherwise it is compared with query.want.
func (p *phase) issue(tg target, pool []query, qi int, start time.Time, replay bool) {
	q := &pool[qi]
	p.attempted++
	o, err := tg.query(q)
	if err != nil {
		p.errors++
		return
	}
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	// Guarantee (1): a round visits each site once, so it collects at most
	// one final frame per site. A retried round posts a whole new set of
	// request frames; hence the comparison is with the frames sent.
	sent := (o.wire.framesSent + numSites - 1) / numSites * numSites
	if o.wire.framesRecv > sent {
		p.violations++
		return
	}
	if replay {
		p.records = append(p.records, record{qi: qi, answer: o.answer, dist: o.dist, lsn: o.lsn})
	} else if o.answer != q.want {
		p.wrong++
		return
	}
	p.completed++
	p.lat = append(p.lat, ms)
	p.classLat[q.class] = append(p.classLat[q.class], ms)
	if o.cached {
		p.hitLat = append(p.hitLat, ms)
		return
	}
	p.missLat = append(p.missLat, ms)
	w := o.wire
	p.rounds++
	if w.early {
		p.early++
	}
	p.bytesSent += w.bytesSent
	p.bytesRecv += w.bytesRecv
	p.framesSent += w.framesSent
	p.framesRecv += w.framesRecv
	p.partialFrames += w.partial
	p.cancelFrames += w.cancel
	p.firstAnswerUS = append(p.firstAnswerUS, float64(w.firstAnswer)/float64(time.Microsecond))
}

// merge folds another tally into p.
func (p *phase) merge(o *phase) {
	p.lat = append(p.lat, o.lat...)
	p.late = append(p.late, o.late...)
	for c := range p.classLat {
		p.classLat[c] = append(p.classLat[c], o.classLat[c]...)
	}
	p.hitLat = append(p.hitLat, o.hitLat...)
	p.missLat = append(p.missLat, o.missLat...)
	p.records = append(p.records, o.records...)
	p.attempted += o.attempted
	p.completed += o.completed
	p.errors += o.errors
	p.wrong += o.wrong
	p.violations += o.violations
	p.elapsed += o.elapsed
	p.rounds += o.rounds
	p.early += o.early
	p.bytesSent += o.bytesSent
	p.bytesRecv += o.bytesRecv
	p.framesSent += o.framesSent
	p.framesRecv += o.framesRecv
	p.partialFrames += o.partialFrames
	p.cancelFrames += o.cancelFrames
	p.firstAnswerUS = append(p.firstAnswerUS, o.firstAnswerUS...)
}

func (p *phase) failed() int { return p.errors + p.wrong + p.violations }

// load describes who issues queries in a phase.
type load struct {
	tg      target
	sp      spec
	in      *inputs
	clients int
	seed    uint64
}

// fanOut runs one goroutine per client and merges their tallies.
func (ld load) fanOut(client func(c int, p *phase)) *phase {
	parts := make([]phase, ld.clients)
	begin := time.Now()
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client(c, &parts[c])
		}()
	}
	wg.Wait()
	total := &phase{}
	for i := range parts {
		total.merge(&parts[i])
	}
	total.elapsed = time.Since(begin)
	return total
}

// closed runs a closed loop: each client issues its next query as soon as
// the previous one is answered, for the given length. tag names the phase
// so that every phase draws its own queries from the seed.
func (ld load) closed(length time.Duration, tag string) *phase {
	deadline := time.Now().Add(length)
	return ld.fanOut(func(c int, p *phase) {
		pick := picker(subRNG(ld.seed, fmt.Sprintf("%s/client%d", tag, c)), len(ld.in.pool), ld.sp.zipf)
		for time.Now().Before(deadline) {
			p.issue(ld.tg, ld.in.pool, pick(), time.Now(), ld.sp.replay)
		}
	})
}

// open runs an open loop: Poisson arrivals at rate, on a schedule fixed by
// the seed, whatever the system's speed. A free client takes the next
// arrival and waits until it is due; latency is timed from that due time,
// so the wait a stall imposes on later arrivals counts, and how late the
// query was issued is kept as lateness.
func (ld load) open(rate float64, length time.Duration, tag string) (*phase, error) {
	sched := poissonSchedule(subRNG(ld.seed, tag+"/arrivals"), rate, length)
	pick := picker(subRNG(ld.seed, tag+"/picks"), len(ld.in.pool), ld.sp.zipf)
	picks := make([]int, len(sched))
	for i := range picks {
		picks[i] = pick()
	}
	alarms := make([]*alarm, ld.clients)
	for c := range alarms {
		var err error
		if alarms[c], err = newAlarm(); err != nil {
			return nil, err
		}
		defer alarms[c].close()
	}
	late := make([]float64, len(sched)) // in arrival order; each slot has one writer
	errs := make([]error, ld.clients)   // a client that cannot wait stops
	var next atomic.Int64
	begin := time.Now()
	total := ld.fanOut(func(c int, p *phase) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(sched) {
				return
			}
			due := begin.Add(sched[i])
			if errs[c] = alarms[c].until(due); errs[c] != nil {
				return
			}
			late[i] = float64(time.Since(due)) / float64(time.Millisecond)
			p.issue(ld.tg, ld.in.pool, picks[i], due, ld.sp.replay)
		}
	})
	total.late = late
	return total, errors.Join(errs...)
}

// written is one acknowledged write.
type written struct {
	op  fragment.Op
	lsn uint64
	ms  float64
}

// writer applies ops one at a time, op i due at i*interval, until the ops
// run out or stop is closed. It returns the acknowledged writes and how
// many failed.
func writer(tg target, ops []fragment.Op, interval time.Duration, stop <-chan struct{}) (done []written, errs int) {
	begin := time.Now()
	for i, op := range ops {
		select {
		case <-stop:
			return done, errs
		case <-time.After(time.Until(begin.Add(time.Duration(i) * interval))):
		}
		t0 := time.Now()
		lsn, err := tg.write(op)
		if err != nil {
			errs++
			continue
		}
		done = append(done, written{op: op, lsn: lsn, ms: float64(time.Since(t0)) / float64(time.Millisecond)})
	}
	return done, errs
}
