package oplog

import (
	"errors"
	"fmt"
	"sync"

	"distreach/internal/fragment"
)

// ErrNotDelivered marks a broadcast failure in which the batch reached no
// replica at all. Wrapped into the error a Submit broadcast returns, it
// lets an in-memory sequencer roll the assigned LSN back: with no log and
// no replica holding the batch, keeping the LSN would leave a hole in the
// order that nothing could ever fill.
var ErrNotDelivered = errors.New("oplog: batch reached no replica")

// Sequencer assigns one monotonic LSN to every update batch of a
// deployment and (when durable) write-ahead logs the batch before it is
// broadcast. Every writer — however many coordinators or gateways front
// the deployment — must submit through the same sequencer: that is what
// turns interleaved update streams into one total order the replicas can
// enforce. Broadcasts run strictly in LSN order (an in-memory sequencer
// holds the order lock across the broadcast; a durable one hands out
// broadcast turns by LSN ticket), so batch N+1 never reaches a replica
// before batch N.
//
// Durable submits group-commit: the order lock covers only LSN
// assignment and the unflushed WAL frame, then concurrent submitters
// share one coalesced fsync (Log.SyncCommit) and take their broadcast
// turn. Under fsync=always this turns N concurrent submits into a
// handful of fsyncs instead of N serialized ones — the dominant cost on
// the N6 throughput table.
//
// A durable sequencer resumes exactly where it stopped: the log's segment
// headers pin the last assigned LSN even when every record has been
// truncated away, so a restarted gateway extends the order instead of
// forking it (the failure the old random-seq-base scheme had).
type Sequencer struct {
	mu   sync.Mutex
	last uint64
	log  *Log // nil: in-memory order only

	// Broadcast turnstile for the durable path: bnext is the LSN whose
	// broadcast runs next; a submitter waits on bcond until its ticket
	// comes up, broadcasts while holding bmu, then advances bnext. The
	// in-memory path never touches these (it broadcasts under mu).
	bmu   sync.Mutex
	bcond *sync.Cond
	bnext uint64
}

// NewSequencer starts an in-memory sequencer whose next LSN is last+1.
func NewSequencer(last uint64) *Sequencer {
	return newSequencer(last, nil)
}

// NewDurableSequencer resumes the order recorded in the store: the next
// LSN follows the newest record or snapshot, and every submitted batch is
// appended to the store's log before it is broadcast.
func NewDurableSequencer(st *Store) *Sequencer {
	return newSequencer(st.LastLSN(), st.Log())
}

func newSequencer(last uint64, log *Log) *Sequencer {
	s := &Sequencer{last: last, log: log, bnext: last + 1}
	s.bcond = sync.NewCond(&s.bmu)
	return s
}

// LSN reports the last assigned LSN.
func (s *Sequencer) LSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Advance raises the sequencer to at least lsn. Used when a fresh
// in-memory sequencer fronts a deployment that already has history: the
// coordinator adopts the replicas' LSN before its first submit so it
// extends the order.
func (s *Sequencer) Advance(lsn uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lsn <= s.last {
		return nil
	}
	if s.log != nil {
		// The deployment is ahead of the write-ahead log — records were lost
		// (a deleted WAL directory, say). Jump the log forward so the order
		// stays intact; the lost prefix was only needed to catch up replicas
		// older than it, which snapshot transfer covers.
		if err := s.log.AdvanceTo(lsn); err != nil {
			return err
		}
	}
	s.last = lsn
	// Raise the broadcast turnstile past the adopted prefix, or durable
	// submits after the jump would wait for broadcasts that never ran.
	s.bmu.Lock()
	if lsn+1 > s.bnext {
		s.bnext = lsn + 1
		s.bcond.Broadcast()
	}
	s.bmu.Unlock()
	return nil
}

// Submit assigns the next LSN to ops, write-ahead logs the batch when
// durable, then broadcasts it — broadcasts always in LSN order. When the
// sequencer is durable the LSN is consumed even if broadcast fails: the
// record is in the log, so replicas that missed it catch up from there —
// at-least-once delivery under one total order. An in-memory sequencer
// has no such backstop, so a broadcast that reached no replica at all
// (ErrNotDelivered) rolls the LSN back — the batch exists nowhere, and
// keeping the number would wedge every later update behind a hole
// nothing can fill.
//
// The durable path group-commits: the order lock covers only the LSN
// assignment and the unflushed WAL frame; the fsync is coalesced across
// concurrent submitters (Log.SyncCommit) and the broadcast runs under
// the LSN turnstile. A batch whose flush failed still takes (and
// releases) its broadcast turn — without broadcasting — so one bad flush
// cannot wedge the turnstile; its LSN stands, and replicas cross the gap
// by log replay or snapshot transfer.
func (s *Sequencer) Submit(ops []fragment.Op, broadcast func(lsn uint64) error) (uint64, error) {
	if s.log == nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		lsn := s.last + 1
		s.last = lsn
		err := broadcast(lsn)
		if err != nil && errors.Is(err, ErrNotDelivered) {
			s.last = lsn - 1
		}
		return lsn, err
	}
	s.mu.Lock()
	lsn := s.last + 1
	seq, err := s.log.AppendNoSync(Record{LSN: lsn, Ops: ops})
	if err != nil {
		s.mu.Unlock()
		return 0, fmt.Errorf("oplog: write-ahead append: %w", err)
	}
	s.last = lsn
	s.mu.Unlock()
	syncErr := s.log.SyncCommit(seq)
	s.bmu.Lock()
	for s.bnext != lsn {
		s.bcond.Wait()
	}
	var err2 error
	if syncErr == nil {
		err2 = broadcast(lsn)
	}
	s.bnext = lsn + 1
	s.bcond.Broadcast()
	s.bmu.Unlock()
	if syncErr != nil {
		return lsn, fmt.Errorf("oplog: write-ahead sync: %w", syncErr)
	}
	return lsn, err2
}
