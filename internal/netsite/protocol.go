// Package netsite runs the partial-evaluation algorithms over real TCP
// connections: each fragment is served by a Site (a TCP server owning one
// fragment), and a Coordinator dials all sites, posts queries, gathers the
// partial answers, and assembles them. It is the wire-level counterpart of
// the in-process simulation in internal/cluster — answers are identical,
// but here the bytes actually cross a socket, each site really is visited
// at most once per query — a warm reach or distance round visits only the
// sites that own its nodes or hold rows the coordinator lacks (batch.go,
// Routing) — and the reply sizes can be measured on the wire.
//
// The protocol is length-prefixed binary frames, multiplexed: every frame
// carries a request ID, so many rounds can be in flight on one connection
// at once. Sites may answer out of order; the coordinator demultiplexes
// replies back to their rounds by ID. Every request but a cancel gets
// exactly one response.
//
//	frame := length u32 (of the rest) | id u32 | kind u8 | payload
//
//	requests (coordinator -> site)
//	'B' query      the one query frame: a batch of one or more mixed-class
//	               queries (layout below)
//	'U' update     a sequenced transactional batch of edge and node mutations
//	'R' rebalance  re-fragment the deployment at a new epoch
//	'S' sync       catch-up replication: hello / replay / snapshot / fetch
//	'C' cancel     abandon the in-flight request whose ID the frame echoes;
//	               no response is owed for either frame
//
//	responses (site -> coordinator), each echoing the request's ID
//	'R' answer     epoch u64 | lsn u64 | body
//	'E' error      the error text
//
// There is one query request and one query reply, whatever the class and
// however many queries (see batch.go for the per-query fields):
//
//	'B' payload := version u8 | flags u8 | rows tag (2 x u64)
//	               | [trace ID u64 | parent span u64] | count u32 | queries
//	               | [skip section]
//	'R' body    := spans | version u8 | [rows tag | rows] | stale sites
//	               | owners | per-query parts
//
// The flags byte carries the trace flag (the 16 bytes of trace context
// follow, and the site records spans); any other bit is rejected. spans is
// the site's recorded span section (queue wait, lock wait, local eval with
// its reachindex outcome) — empty, two bytes, when the request was not
// traced — so tracing adds no frame and no second layout. 'U', 'R' and 'S' answers carry their own body
// codecs straight after the (epoch, lsn) tag.
//
// The boundary cache lives in that one round trip. What a fragment
// contributes to a reach or distance answer is, almost entirely, its
// weighted in-node rows — O(|Vf|²) terms Xv <= Xb + d that do not depend on
// the query, read as Booleans for qr and as min-plus equations for qbr. The
// coordinator keeps the rows each site last shipped, and the request's rows
// tag names the copy it holds for the receiving site: the instance ID of
// the site's fragmentation and the fragment's generation, zero when it
// holds none. A site whose fragment is still at that tag answers with the
// query parts alone — per reach query, the source's equation and the
// in-nodes that reach the target; per distance query, the same weighted
// and cut at its bound: a few dozen bytes, in the rows' own layout
// (core.Rows), with no weights on a reach part — and otherwise ships its
// rows, once for the whole batch, tagged with the state they were computed
// at, ahead of the same query parts; the coordinator replaces its copy. Every
// mutation bumps the generation of the fragments it dirties and every new
// fragmentation draws a new instance ID (batch.go says why that makes a
// match safe), so a miss is answered in the frame that reports it: no
// invalidation message, no refetch round, still at most one visit per site.
// Per-query traffic is O(|Vf|); the paper's O(|Vf|²) is paid once per
// change of a fragment. Regex queries carry their full partials: a fresh
// automaton per query leaves (node, state) rows nothing to reuse.
//
// Anytime answers: the coordinator feeds each reply, as it arrives, into an
// incremental equation system and, the moment the replies in hand prove
// every query of a reach-only round true, returns and broadcasts 'C' frames
// so the remaining sites abandon their evaluation (cooperatively: mid-BFS
// checkpoints, and a cancelled request owes no response at all). Deciding
// on a subset of the sites is sound because the system is monotone: a
// closed chain of true equations cannot be retracted by an absent site. A
// site whose rows the coordinator holds replies at once with a few dozen
// bytes, so a straggler — a slow site, or one re-shipping its rows after an
// update — is waited for only when the answer needs it. A response of any
// kind but 'R' and 'E' fails its round with an error naming the kind.
//
// Every answer is prefixed with the epoch of the fragmentation that
// produced it plus the LSN of the last update batch it reflects: the
// coordinator rejects (and retries) a query round whose sites answered from
// different (epoch, LSN) states, so a query racing a live rebalance or
// update never combines partial answers across fragmentations or update
// positions — a persistent LSN split marks a replica that missed updates
// and triggers catch-up replication. The byte 'R' names both the rebalance
// request and the answer response; direction disambiguates (coordinators
// send requests, sites send responses). A site stamps a query reply with
// the LSN it reads under the read lock its evaluation holds
// (fragment.Fragmentation.LSN), so the stamp names the state evaluated even
// when an update batch is applied while the query waits for the lock.
//
// The query frame is the wire form of the paper's visit guarantee: one
// request frame per posted site carries the whole batch, and one response
// frame per posted site carries every partial answer — and the rows, when
// they are owed — so k queries cost the same number of frames as one, and
// no site is posted twice in one attempt. A site that is not posted has
// nothing new to say: another site, reading the same replica under the same
// lock, vouches that the rows the coordinator holds for it are current.
package netsite

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Frame kinds. kindRebalance shares the byte 'R' with kindAnswer: request
// and response kinds never travel in the same direction, so the site
// reads it as "rebalance" and the coordinator as "answer".
const (
	kindBatch     = 'B'
	kindUpdate    = 'U'
	kindRebalance = 'R'
	kindSync      = 'S'
	kindCancel    = 'C'
	kindAnswer    = 'R'
	kindError     = 'E'
)

// answerPrefix is the length of the state tag every answer frame carries:
// epoch u64 | lsn u64.
const answerPrefix = 16

// maxFrame bounds a frame to guard against corrupt length prefixes.
const maxFrame = 1 << 28

// minFrame is the smallest legal length value: id u32 + kind u8, no payload.
const minFrame = 5

// writeFrame sends one frame and reports the bytes written. The frame is
// assembled into one buffer so a single Write hits the socket: concurrent
// senders serialized by a mutex then interleave whole frames, never bytes.
func writeFrame(w io.Writer, id uint32, kind byte, payload []byte) (int, error) {
	buf := make([]byte, 4+minFrame+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(minFrame+len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], id)
	buf[8] = kind
	copy(buf[9:], payload)
	if _, err := w.Write(buf); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// readFrame receives one frame and reports the bytes read.
func readFrame(r io.Reader) (id uint32, kind byte, payload []byte, n int, err error) {
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, 0, err
	}
	size := binary.LittleEndian.Uint32(hdr)
	if size < minFrame || size > maxFrame {
		return 0, 0, nil, 0, fmt.Errorf("netsite: implausible frame size %d", size)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, 0, nil, 0, err
	}
	return binary.LittleEndian.Uint32(body), body[4], body[5:], 4 + int(size), nil
}
