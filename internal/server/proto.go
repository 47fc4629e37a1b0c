// Package server is the network tier: a length-prefixed binary protocol
// over TCP fronting a Store or a replica follower, plus the replication source
// that ships snapshot images and raw WAL frames to followers.
//
// Every frame is "u32 length | u8 type | body" (length counts the type
// byte and body, little-endian throughout). Every response body begins
// with a u64 epoch: the snapshot epoch the answer was computed at, which
// doubles as the read-your-writes token — Apply returns the batch's epoch,
// and a later read carrying it as minEpoch is held until the serving
// snapshot has caught up. Decoding is total: any input — truncated,
// bit-flipped, adversarial — yields an error, never a panic (the same
// contract snapfile and wal.ParseRecord uphold, enforced by the fuzz
// targets in this package).
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// MaxFrame bounds a frame's declared length so a flipped bit in a length
// field cannot make a peer attempt a multi-gigabyte allocation.
const MaxFrame = 1 << 26

// MsgType tags a frame. Requests and responses share one space; servers
// reject response-typed requests and vice versa.
type MsgType byte

// Request frame types.
const (
	// MsgPing checks liveness; the response is MsgEpoch.
	MsgPing MsgType = 0x01
	// MsgReach asks one reachability query: u64 minEpoch, u32 u, u32 v,
	// u8 onG (1 = answer on the uncompressed graph).
	MsgReach MsgType = 0x02
	// MsgBatchReach asks n queries at once: u64 minEpoch, u32 n, n u32
	// sources, n u32 targets.
	MsgBatchReach MsgType = 0x03
	// MsgMatch asks a pattern query: u64 minEpoch, then the pattern
	// (EncodePattern).
	MsgMatch MsgType = 0x04
	// MsgApply submits one update batch: u64 callerTerm (0 = no term
	// claim), then the WAL payload encoding (store.EncodeBatch). A caller
	// term above the endpoint's fences it; below, the write is rejected as
	// stale. The MsgApplied response carries the RYW token and the term.
	MsgApply MsgType = 0x05
	// MsgStats asks for a store summary (MsgInfo response).
	MsgStats MsgType = 0x06
	// MsgSnapshot asks the replication source for the newest checkpoint:
	// MsgSnapMeta, then MsgSnapChunk frames, then MsgSnapDone.
	MsgSnapshot MsgType = 0x07
	// MsgTail asks for WAL frames from u64 fromSeq, followed by the u64
	// callerTerm (0 = no claim), the u32 hold in milliseconds and the u64
	// lineage of the follower's views (store.Snapshot.Lineage; 0 = it takes
	// no effects, ship raw frames only): MsgRecord frames for what is on
	// disk, each group's followed by its MsgEffect, then MsgCaughtUp (or
	// MsgSnapNeeded when fromSeq predates the oldest retained segment). A
	// source whose effect ring chains the follower's (lineage, fromSeq-1)
	// ships the frames as far as the last effect it can send and no further;
	// one that cannot ships one image instead (a MsgEffect of the current
	// snapshot's views, after the frames up to it); with no effect to send
	// the round is raw. It is a long poll.
	// With a hold, a source whose published epoch is below fromSeq parks
	// the round and answers when the epoch swap that publishes fromSeq
	// wakes it, or when the hold (clamped by the server) runs out, the
	// server closes, or the source is fenced — a fenced source's history
	// is frozen, it parks nothing and a fence taken mid-hold releases the
	// round with the fenced flag set. Hold 0 answers at once with what is
	// there. A follower asks again the moment a round returns: no timer on
	// either side. A follower that adopted a newer term fences a stale
	// source just by asking it.
	MsgTail MsgType = 0x08
	// MsgMetrics asks for the server's metrics scrape; the MsgMetricsText
	// response carries the Prometheus text exposition. No body.
	MsgMetrics MsgType = 0x09
	// MsgPromote asks a follower endpoint to promote itself to leader: u64
	// wait millis (0 = promote immediately, else first wait to catch up).
	// The MsgPromoted response names the epoch frontier and the new term;
	// a non-follower backend answers MsgErr.
	MsgPromote MsgType = 0x0a
)

// Response frame types. Every body begins with a u64 epoch.
const (
	// MsgErr carries a u8 error code and the error text after the epoch.
	MsgErr MsgType = 0x40
	// MsgEpoch is an epoch alone (ping response).
	MsgEpoch MsgType = 0x41
	// MsgBool is one boolean answer: epoch, u8.
	MsgBool MsgType = 0x42
	// MsgBools is a batch answer: epoch, u32 n, n bytes.
	MsgBools MsgType = 0x43
	// MsgMatched is a match result: epoch, u8 ok, u32 k, then k node sets
	// (u32 len, len u32 ids).
	MsgMatched MsgType = 0x44
	// MsgApplied acknowledges an Apply: the epoch is the batch's RYW
	// token, followed by the u64 term it was accepted under.
	MsgApplied MsgType = 0x45
	// MsgInfo is an encoded Info summary.
	MsgInfo MsgType = 0x46
	// MsgSnapMeta opens a snapshot transfer: epoch, u64 total bytes, u64
	// term.
	MsgSnapMeta MsgType = 0x47
	// MsgSnapChunk carries snapshot bytes after the epoch.
	MsgSnapChunk MsgType = 0x48
	// MsgSnapDone closes a snapshot transfer.
	MsgSnapDone MsgType = 0x49
	// MsgRecord ships one raw WAL frame after the u64 record seq. The frame
	// bytes are exactly what the leader's log holds — CRC intact — so the
	// follower, not the shipping path, is the integrity gate.
	MsgRecord MsgType = 0x4a
	// MsgCaughtUp ends a tail round: the epoch is the source's published
	// epoch as read before the round read its log — every record up to it
	// was there to ship — the follower's staleness reference, followed by
	// the u64 leader term and a u8 fenced flag. A fenced source's WAL is safe,
	// frozen history that can never advance — followers rotate away.
	MsgCaughtUp MsgType = 0x4b
	// MsgSnapNeeded rejects a tail round: fromSeq predates the oldest
	// retained WAL segment (the epoch is the oldest available seq); the
	// follower must re-bootstrap from a fresh snapshot.
	MsgSnapNeeded MsgType = 0x4c
	// MsgMetricsText carries the Prometheus text exposition after the
	// epoch; empty text when the server runs without a registry.
	MsgMetricsText MsgType = 0x4d
	// MsgPromoted acknowledges a MsgPromote: the epoch is the promoted
	// follower's frontier (every batch acked at or below it survived the
	// failover), followed by the u64 new term.
	MsgPromoted MsgType = 0x4e
	// MsgEffect ships, inside a tail round, the effect of the group whose
	// MsgRecord frames precede it — what those batches did to the source's
	// views — or an image of the source's views: the epoch is the last one it
	// covers, the rest opaque, CRC-checked bytes that only the follower's
	// store decodes (store.Store.ApplyEffect). A follower applies the frames
	// and the effect as one group and runs no maintainer; frames no effect
	// covers it re-derives.
	MsgEffect MsgType = 0x4f
)

// Error codes carried by MsgErr after the epoch, so clients can react to
// the class of failure (retry elsewhere, rediscover the leader) without
// string matching. Unknown codes are treated as ErrCodeGeneric.
const (
	// ErrCodeGeneric is any error without a more specific class.
	ErrCodeGeneric byte = 0
	// ErrCodeReadOnly: the endpoint is a follower and cannot accept writes.
	ErrCodeReadOnly byte = 1
	// ErrCodeFenced: the endpoint observed a newer leader term and fenced
	// itself; a newer leader exists somewhere.
	ErrCodeFenced byte = 2
	// ErrCodeStaleTerm: the request carried a term below the endpoint's —
	// the caller's leader view is stale.
	ErrCodeStaleTerm byte = 3
	// ErrCodeDegraded: the endpoint's write path is degraded by a storage
	// fault and heals itself; the same batch may be retried after a pause.
	ErrCodeDegraded byte = 4
)

// errShortFrame reports a frame body too short for its type.
var errShortFrame = errors.New("server: truncated message body")

// WriteFrame writes one frame; the caller flushes.
func WriteFrame(bw *bufio.Writer, t MsgType, body []byte) error {
	if len(body)+1 > MaxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds MaxFrame", len(body)+1)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)+1))
	hdr[4] = byte(t)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	_, err := bw.Write(body)
	return err
}

// ReadFrame reads one frame, reusing buf for the body when it fits.
func ReadFrame(br *bufio.Reader, buf []byte) (MsgType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < 1 || n > MaxFrame {
		return 0, nil, fmt.Errorf("server: impossible frame length %d", n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return 0, nil, err
	}
	return MsgType(buf[0]), buf[1:], nil
}

// DecodeFrame splits one frame from b, returning the type, a body view
// into b, and the bytes consumed. It is the pure-parsing half of ReadFrame
// and the surface FuzzDecodeFrame exercises: forged input errors, never
// panics.
func DecodeFrame(b []byte) (MsgType, []byte, int, error) {
	if len(b) < 4 {
		return 0, nil, 0, fmt.Errorf("server: short frame header (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b[0:4]))
	if n < 1 || n > MaxFrame {
		return 0, nil, 0, fmt.Errorf("server: impossible frame length %d", n)
	}
	if len(b) < 4+n {
		return 0, nil, 0, fmt.Errorf("server: truncated frame: %d of %d bytes", len(b)-4, n)
	}
	return MsgType(b[4]), b[5 : 4+n], 4 + n, nil
}

// cursor is a bounds-checked little-endian reader: out-of-range reads set
// a sticky error and return zero values, so message decoders are total
// functions without per-field error plumbing.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s at offset %d", errShortFrame, what, c.off)
	}
}

func (c *cursor) u8() byte {
	if c.err != nil || c.off+1 > len(c.b) {
		c.fail("u8")
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) u32() uint32 {
	if c.err != nil || c.off+4 > len(c.b) {
		c.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil || c.off+8 > len(c.b) {
		c.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cursor) take(n int) []byte {
	if c.err != nil || n < 0 || c.off+n > len(c.b) {
		c.fail("bytes")
		return nil
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v
}

func (c *cursor) rest() []byte {
	if c.err != nil {
		return nil
	}
	v := c.b[c.off:]
	c.off = len(c.b)
	return v
}

// fin returns the sticky error, rejecting trailing bytes: a well-formed
// peer never pads, so padding is corruption.
func (c *cursor) fin() error {
	if c.err == nil && c.off != len(c.b) {
		return fmt.Errorf("server: %d trailing bytes after message", len(c.b)-c.off)
	}
	return c.err
}

// unboundedWire encodes pattern.Unbounded ("*") on the wire.
const unboundedWire = ^uint32(0)

// EncodePattern appends the wire form of p: u32 node count, length-prefixed
// labels, u32 edge count, then (u32 from, u32 to, u32 bound) triples with
// Unbounded as 0xffffffff.
func EncodePattern(buf []byte, p *pattern.Pattern) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.NumNodes()))
	for u := int32(0); u < int32(p.NumNodes()); u++ {
		label := p.Label(u)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(label)))
		buf = append(buf, label...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.NumEdges()))
	for u := int32(0); u < int32(p.NumNodes()); u++ {
		for _, e := range p.EdgesFrom(u) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(u))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e.To))
			if e.Bound == pattern.Unbounded {
				buf = binary.LittleEndian.AppendUint32(buf, unboundedWire)
			} else {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Bound))
			}
		}
	}
	return buf
}

// maxPatternNodes and maxPatternEdges bound a decoded pattern, so one
// request's match costs at most 64·|Gr| membership flags: the paper's
// largest pattern has 8 nodes, and 64 is the refinement's counter-level
// budget. A 65 536-node pattern once cost a single match 2.9 GB.
const (
	maxPatternNodes = 64
	maxPatternEdges = 1024
)

// decodePattern reads a pattern from c, validating counts against the
// remaining bytes and edge endpoints against the node count before
// touching pattern.AddEdge (which panics on bad bounds by contract — the
// wire decoder must never let that happen).
func decodePattern(c *cursor) (*pattern.Pattern, error) {
	n := c.u32()
	if c.err != nil {
		return nil, c.err
	}
	if n > maxPatternNodes || int(n) > len(c.b)-c.off {
		return nil, fmt.Errorf("server: pattern claims %d nodes in %d bytes", n, len(c.b)-c.off)
	}
	p := pattern.New()
	for i := uint32(0); i < n; i++ {
		ln := c.u32()
		if c.err != nil {
			return nil, c.err
		}
		if int(ln) > len(c.b)-c.off {
			return nil, fmt.Errorf("server: pattern label of %d bytes overruns message", ln)
		}
		p.AddNode(string(c.take(int(ln))))
	}
	m := c.u32()
	if c.err != nil {
		return nil, c.err
	}
	if m > maxPatternEdges || int64(m) > int64(len(c.b)-c.off)/12 {
		return nil, fmt.Errorf("server: pattern claims %d edges in %d bytes", m, len(c.b)-c.off)
	}
	for i := uint32(0); i < m; i++ {
		from, to, bound := c.u32(), c.u32(), c.u32()
		if c.err != nil {
			return nil, c.err
		}
		if from >= n || to >= n {
			return nil, fmt.Errorf("server: pattern edge (%d,%d) outside %d nodes", from, to, n)
		}
		switch {
		case bound == unboundedWire:
			p.AddEdge(int32(from), int32(to), pattern.Unbounded)
		case bound >= 1 && bound <= 1<<20:
			p.AddEdge(int32(from), int32(to), int(bound))
		default:
			return nil, fmt.Errorf("server: pattern edge bound %d out of range", bound)
		}
	}
	return p, nil
}

// encodeResult appends a match result: u8 ok, u32 set count, then each
// set's u32 length and node ids.
func encodeResult(buf []byte, r *pattern.Result) []byte {
	if r.OK {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Sets)))
	for _, set := range r.Sets {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(set)))
		for _, v := range set {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	return buf
}

// decodeResult reads a match result from c.
func decodeResult(c *cursor) (*pattern.Result, error) {
	r := &pattern.Result{OK: c.u8() == 1}
	k := c.u32()
	if c.err != nil {
		return nil, c.err
	}
	if int64(k) > int64(len(c.b)-c.off)/4 {
		return nil, fmt.Errorf("server: result claims %d sets in %d bytes", k, len(c.b)-c.off)
	}
	r.Sets = make([][]graph.Node, k)
	for i := uint32(0); i < k; i++ {
		ln := c.u32()
		if c.err != nil {
			return nil, c.err
		}
		if int64(ln) > int64(len(c.b)-c.off)/4 {
			return nil, fmt.Errorf("server: result set of %d ids overruns message", ln)
		}
		set := make([]graph.Node, ln)
		for j := uint32(0); j < ln; j++ {
			set[j] = graph.Node(c.u32())
		}
		r.Sets[i] = set
	}
	if err := c.fin(); err != nil {
		return nil, err
	}
	return r, nil
}

// Info is the wire form of a store summary, a flattened cut of
// store.Stats.
type Info struct {
	// Epoch is the latest published snapshot epoch.
	Epoch uint64
	// Batches, Updates and Reads count accepted work, as in store.Stats.
	Batches, Updates, Reads uint64
	// Nodes and Edges describe G at the latest snapshot.
	Nodes, Edges int
	// Term is the endpoint's leader term (0 before any failover).
	Term uint64
	// Writable reports whether the endpoint currently accepts Apply:
	// leaders that are not fenced, and promoted followers.
	Writable bool
}

// encodeInfo appends the wire form of an Info after the epoch prefix.
func encodeInfo(buf []byte, in Info) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, in.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, in.Batches)
	buf = binary.LittleEndian.AppendUint64(buf, in.Updates)
	buf = binary.LittleEndian.AppendUint64(buf, in.Reads)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(in.Nodes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(in.Edges))
	buf = binary.LittleEndian.AppendUint64(buf, in.Term)
	if in.Writable {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// decodeInfo parses an Info body.
func decodeInfo(body []byte) (Info, error) {
	c := &cursor{b: body}
	var in Info
	in.Epoch = c.u64()
	in.Batches = c.u64()
	in.Updates = c.u64()
	in.Reads = c.u64()
	in.Nodes = int(c.u32())
	in.Edges = int(c.u32())
	in.Term = c.u64()
	in.Writable = c.u8() == 1
	if err := c.fin(); err != nil {
		return Info{}, err
	}
	return in, nil
}
