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
// replies back to their rounds by ID. Every request gets exactly one
// response. A coordinator opens each connection with the
// 4-byte preamble "DRW4", the protocol's only version: no payload carries a
// version byte of its own. A site closes a connection that starts with
// anything else, so a peer of another build — "DRW3" or "DRW2" (see
// preamble), or one on the fixed-width frame header of the framing before
// them (length u32 | id u32) — is refused before its first frame is
// parsed, and the preamble, read as such a header, names a length that
// peer rejects too.
//
//	frame := length uvarint (of the rest) | id uvarint (<= u32) | kind u8
//	         | payload
//
// Every payload is written and read through internal/codec: every integer
// a shortest-form uvarint, except random or clock-seeded identifiers
// (fragmentation instance, update nonce, fingerprint, partitioner seed,
// trace ID), which are fixed little-endian u64s. A reader rejects any
// padded varint, a length above maxFrame (before allocating for it) and an
// ID above u32: whatever decodes re-encodes to the same bytes. Each end
// reads a connection through one buffered reader, and writes each frame —
// header, state tag and body — from one buffer that reserved room for the
// header and tag ahead of the body, in one Write.
//
//	requests (coordinator -> site)
//	'B' query      the one query frame: a batch of one or more mixed-class
//	               queries (layout below)
//	'U' update     a sequenced transactional batch of edge and node
//	               mutations (update.go)
//	'R' rebalance  re-fragment the deployment at a new epoch (rebalance.go)
//	'S' sync       catch-up replication: hello / replay / snapshot / fetch
//	               (sync.go)
//
// 'C', the cancel frame of earlier DRW4 builds, is retired. A site answers
// it, as any unknown kind, with an error frame; the coordinator that sent
// it waits for no reply under that ID, so its read loop drains the frame.
//
//	responses (site -> coordinator), each echoing the request's ID
//	'R' answer     epoch uvarint | lsn uvarint | body
//	'E' error      the error text
//
// There is one query request and one query reply, whatever the class and
// however many queries (see batch.go for the per-query fields):
//
//	'B' payload := flags u8 | instance u64 | generation+1 uvarint (0: no
//	               rows held) | [trace ID u64 | parent span uvarint]
//	               | count uvarint | queries | [skip section]
//	'R' body    := spans | rows u8 | [rows tag | rows] or [generation
//	               | rows delta] | stale sites | owners | per-query parts
//
// The flags byte carries the trace flag (the trace context follows, and the
// site records spans); any other bit is rejected. spans is the site's
// recorded span section (queue wait, lock wait, local eval with its
// reachindex outcome) — empty, one byte, when the request was not traced —
// so tracing adds no frame and no second layout. 'U', 'R' and 'S' answers
// carry their own body codecs straight after the (epoch, lsn) tag.
//
// The boundary cache lives in that one round trip. What a fragment
// contributes to a reach or distance answer is, almost entirely, its
// weighted in-node rows — O(|Vf|²) terms Xv <= Xb + d that do not depend on
// the query, read as Booleans for qr and as min-plus equations for qbr. The
// coordinator keeps the rows each site last shipped, and the request's rows
// tag names the copy it holds for the receiving site: the instance ID of
// the site's fragmentation and the fragment's generation (generation+1 is
// 0 when it holds none). A site whose fragment is still at that tag answers with the
// query parts alone — per reach query, the source's equation and the
// in-nodes that reach the target; per distance query, the same weighted
// and cut at its bound: a few dozen bytes, in the rows' own layout
// (core.Rows), with no weights on a reach part — and otherwise ships its
// rows, once for the whole batch, tagged with the state they were computed
// at, ahead of the same query parts; the coordinator replaces its copy.
// When the site still keeps its rows at the request's tag, it ships only a
// delta against them — the equations a write changed — and the coordinator
// patches its copy (batch.go, Row deltas). Every
// mutation bumps the generation of the fragments it dirties and every new
// fragmentation draws a new instance ID (batch.go says why that makes a
// match safe), so a miss is answered in the frame that reports it: no
// invalidation message, no refetch round, still at most one visit per site.
// Per-query traffic is O(|Vf|); the paper's O(|Vf|²) is paid once per
// new fragmentation, and a write costs the equations it changed. Regex queries carry their full partials: a fresh
// automaton per query leaves (node, state) rows nothing to reuse.
//
// Anytime answers: the coordinator feeds each reply, as it arrives, into an
// incremental equation system and, the moment the replies in hand prove
// every query of a reach-only round true, returns. It writes nothing to the
// remaining sites: they finish their evaluation and reply, and the read
// loop drains the replies nobody waits for. Deciding on a subset of the
// sites is sound because the system is monotone: a closed chain of true
// equations cannot be retracted by an absent site. A site whose rows the
// coordinator holds replies at once with a few dozen bytes, so a
// straggler — a slow site, or one re-shipping its rows after an update —
// is waited for only when the answer needs it. A response of any kind but
// 'R' and 'E' fails its round with an error naming the kind.
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
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"distreach/internal/codec"
)

// Frame kinds. kindRebalance shares the byte 'R' with kindAnswer: request
// and response kinds never travel in the same direction, so the site
// reads it as "rebalance" and the coordinator as "answer".
const (
	kindBatch     = 'B'
	kindUpdate    = 'U'
	kindRebalance = 'R'
	kindSync      = 'S'
	kindAnswer    = 'R'
	kindError     = 'E'
)

// preamble opens every coordinator connection, and it is the protocol's
// only version: no payload carries one. A site of another build closes the
// connection before it reads a frame, whatever the payloads changed:
// "DRW3" wrote core.Rows terms as absolute IDs and regex partials in a
// layout of their own, "DRW2" control payloads fixed-width and a version
// byte per payload. Read as the u32 length of the framing before it, each
// is above that framing's maxFrame, which therefore rejects it as well.
const preamble = "DRW4"

// maxFrame bounds a frame to guard against corrupt length prefixes.
const maxFrame = 1 << 28

// minFrame is the smallest legal length value: a one-byte id and the kind,
// no payload.
const minFrame = 2

// maxHeader is the largest frame header: length and id uvarints and the
// kind. frameHeadroom is what a frame buffer reserves ahead of its
// payload: the header plus an answer's (epoch, lsn) state tag.
const (
	maxHeader     = 2*binary.MaxVarintLen32 + 1
	frameHeadroom = maxHeader + 2*binary.MaxVarintLen64
)

// newFrame returns an empty frame buffer with room for size payload bytes:
// frameHeadroom reserved bytes the payload is appended after.
func newFrame(size int) []byte {
	return make([]byte, frameHeadroom, frameHeadroom+size)
}

// prepend writes v as a uvarint ending just before b[off] and returns
// where it starts.
func prepend(b []byte, off int, v uint64) int {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return off - copy(b[off-n:], tmp[:n])
}

// putTag writes an answer's (epoch, lsn) state tag just before the payload
// of the frame buffer b and returns where the tagged payload starts.
func putTag(b []byte, epoch, lsn uint64) int {
	return prepend(b, prepend(b, frameHeadroom, lsn), epoch)
}

// writeFrame sends the frame whose payload is buf[off:] and reports the
// bytes written. The header goes into buf[:off], which must hold maxHeader
// bytes, so a single Write of one buffer hits the socket: concurrent
// senders serialized by a mutex then interleave whole frames, never bytes.
func writeFrame(w io.Writer, id uint32, kind byte, buf []byte, off int) (int, error) {
	off--
	buf[off] = kind
	off = prepend(buf, off, uint64(id))
	if size := len(buf) - off; size > maxFrame {
		return 0, fmt.Errorf("netsite: frame of %d bytes exceeds %d", size, maxFrame)
	}
	off = prepend(buf, off, uint64(len(buf)-off))
	if _, err := w.Write(buf[off:]); err != nil {
		return 0, err
	}
	return len(buf) - off, nil
}

// errPadded rejects a frame length that is not in its shortest form.
var errPadded = errors.New("netsite: padded frame length")

// readFrame receives one frame from a connection's reader and reports its
// wire size.
func readFrame(r *bufio.Reader) (id uint32, kind byte, payload []byte, n int, err error) {
	size, ln, err := readLength(r)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	if size < minFrame || size > maxFrame {
		return 0, 0, nil, 0, fmt.Errorf("netsite: implausible frame size %d", size)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, 0, err
	}
	hr := codec.NewReader(body)
	v, kind := hr.Uint(math.MaxUint32), hr.U8()
	if err := hr.Err(); err != nil {
		return 0, 0, nil, 0, fmt.Errorf("netsite: header of a %d-byte frame: %w", size, err)
	}
	return uint32(v), kind, hr.Rest(), ln + int(size), nil
}

// readLength reads a frame's length uvarint and its byte count. A stream
// that ends before the first byte is a clean io.EOF; one that ends inside
// the varint is io.ErrUnexpectedEOF.
func readLength(r io.ByteReader) (uint64, int, error) {
	var v uint64
	for i := 0; i < binary.MaxVarintLen32; i++ {
		c, err := r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, i, err
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if i > 0 && c == 0 {
				return 0, i + 1, errPadded
			}
			return v, i + 1, nil
		}
	}
	return 0, binary.MaxVarintLen32, fmt.Errorf("netsite: overlong frame length")
}

// readPreamble consumes a connection's preamble, failing on anything else.
func readPreamble(r io.Reader) error {
	var p [len(preamble)]byte
	if _, err := io.ReadFull(r, p[:]); err != nil {
		return err
	}
	if string(p[:]) != preamble {
		return fmt.Errorf("netsite: connection preamble %q, want %q", p[:], preamble)
	}
	return nil
}
