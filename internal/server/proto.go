// Package server is the network tier: a length-prefixed binary protocol
// over TCP fronting a Store or a replica follower, plus the replication source
// that ships followers the effect of each group — its raw batches and what
// they did to the views — or an image of its snapshot.
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
	"slices"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// MaxFrame bounds a frame's declared length so a flipped bit in a length
// field cannot make a peer attempt a multi-gigabyte allocation.
const MaxFrame = 1 << 26

// maxApplyUpdates bounds the updates one MsgApply may carry: as many as
// fit in a frame at nine bytes an update, the older batch form. The
// current form packs an update in as few as one bit, so without the bound
// one frame could make the server allocate half a billion updates, 6 GB,
// before it checked any of them.
const maxApplyUpdates = MaxFrame / 9

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
	// claim), then the batch in the batch codec (store.EncodeBatch), which
	// a WAL record and a diff's batches also use. The server also takes
	// the older form, nine bytes an update, that older clients send, and
	// refuses a batch of more than maxApplyUpdates updates. A caller term
	// above the endpoint's fences it; below, the write is rejected as
	// stale. The MsgApplied response carries the RYW token and the term.
	MsgApply MsgType = 0x05
	// MsgStats asks for a store summary (MsgInfo response).
	MsgStats MsgType = 0x06
	// MsgTail asks for the groups from u64 fromSeq, followed by the u64
	// callerTerm (0 = no claim), the u32 hold in milliseconds and the u64
	// lineage of the follower's views (store.Snapshot.Lineage), then ends
	// with MsgCaughtUp. A round ships from the source's effect ring alone
	// and reads no file: when the ring chains the follower's (lineage,
	// fromSeq-1), one MsgEffect per group, each diff carrying its group's
	// raw batches; when it cannot, one image instead, a single MsgEffect of
	// the current snapshot, G included. A round sends no other frame type.
	// Lineage 0 chains nothing, so a follower asks for an image — to start
	// in an empty directory, or to resync — with fromSeq 1 and lineage 0.
	// It is a long poll.
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
	// (u32 len, len u32 ids). The server sizes the body first and writes it
	// in one pass into a buffer its connection reuses; the client reads
	// every id into one array and hands each set out as a view of it. Both
	// keep the layout every earlier server and client used.
	MsgMatched MsgType = 0x44
	// MsgApplied acknowledges an Apply: the epoch is the batch's RYW
	// token, followed by the u64 term it was accepted under.
	MsgApplied MsgType = 0x45
	// MsgInfo is an encoded Info summary.
	MsgInfo MsgType = 0x46
	// MsgCaughtUp ends a tail round: the epoch is the source's published
	// epoch as read before the round read its effect ring — every group up
	// to it was there to ship — the follower's staleness reference, followed by
	// the u64 leader term and a u8 fenced flag. A fenced source's WAL is safe,
	// frozen history that can never advance — followers rotate away.
	MsgCaughtUp MsgType = 0x4b
	// MsgMetricsText carries the Prometheus text exposition after the
	// epoch; empty text when the server runs without a registry.
	MsgMetricsText MsgType = 0x4d
	// MsgPromoted acknowledges a MsgPromote: the epoch is the promoted
	// follower's frontier (every batch acked at or below it survived the
	// failover), followed by the u64 new term.
	MsgPromoted MsgType = 0x4e
	// MsgEffect ships, inside a tail round, one group — its raw batches and
	// what they did to the source's views — or an image of the source's
	// whole snapshot: the epoch is the last one it covers, the rest opaque,
	// CRC-checked bytes that only the follower's store decodes
	// (store.Store.ApplyEffect). A follower applies a group as one and runs
	// no maintainer. Type 0x4a, the raw WAL frame older sources shipped
	// beside each diff, is retired: a round that brings one fails
	// (ErrUnexpectedFrame).
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
// set's u32 length and node ids. It sizes the result first and grows buf
// once, so it never reallocates per id: into a buffer that already holds
// the bytes, such as a connection's reused one, it allocates nothing.
func encodeResult(buf []byte, r *pattern.Result) []byte {
	n := 5 + 4*len(r.Sets)
	for _, set := range r.Sets {
		n += 4 * len(set)
	}
	buf, b := grow(buf, n)
	b[0] = 0
	if r.OK {
		b[0] = 1
	}
	binary.LittleEndian.PutUint32(b[1:5], uint32(len(r.Sets)))
	b = b[5:]
	for _, set := range r.Sets {
		binary.LittleEndian.PutUint32(b[:4], uint32(len(set)))
		putNodes(b[4:], set)
		b = b[4+4*len(set):]
	}
	return buf
}

// decodeResult reads a match result from c. Every id goes into one array
// sized from the bytes left, and each set is a view of it whose capacity
// ends where the set does, so appending to one set cannot overwrite the
// next.
func decodeResult(c *cursor) (*pattern.Result, error) {
	ok := c.u8()
	k := c.u32()
	if c.err != nil {
		return nil, c.err
	}
	if ok > 1 {
		return nil, fmt.Errorf("server: result ok flag %d, want 0 or 1", ok)
	}
	r := &pattern.Result{OK: ok == 1}
	if int64(k) > int64(len(c.b)-c.off)/4 {
		return nil, fmt.Errorf("server: result claims %d sets in %d bytes", k, len(c.b)-c.off)
	}
	// What the k length words leave holds at most this many ids: a set
	// longer than what is left of it overruns the message.
	flat := make([]graph.Node, (len(c.b)-c.off-4*int(k))/4)
	r.Sets = make([][]graph.Node, k)
	for i := range r.Sets {
		ln := c.u32()
		if c.err != nil {
			return nil, c.err
		}
		if int64(ln) > int64(len(flat)) {
			return nil, fmt.Errorf("server: result set of %d ids overruns message", ln)
		}
		set := flat[:ln:ln]
		flat = flat[ln:]
		src := c.take(4 * len(set))
		if c.err != nil {
			return nil, c.err
		}
		for j := range set {
			set[j] = graph.Node(binary.LittleEndian.Uint32(src))
			src = src[4:]
		}
		r.Sets[i] = set
	}
	if err := c.fin(); err != nil {
		return nil, err
	}
	return r, nil
}

// encodeBools appends a batch answer after its epoch: u32 n, then one byte
// per answer, 1 for reachable and 0 for not.
func encodeBools(buf []byte, res []bool) []byte {
	buf, b := grow(buf, 4+len(res))
	binary.LittleEndian.PutUint32(b[:4], uint32(len(res)))
	b = b[4 : 4+len(res)]
	for i, ok := range res {
		var v byte
		if ok {
			v = 1
		}
		b[i] = v
	}
	return buf
}

// encodeBatchReach appends a MsgBatchReach body: u64 minEpoch, u32 n, n u32
// sources, n u32 targets. us and vs have the same length.
func encodeBatchReach(buf []byte, minEpoch uint64, us, vs []graph.Node) []byte {
	buf, b := grow(buf, 12+8*len(us))
	binary.LittleEndian.PutUint64(b[:8], minEpoch)
	binary.LittleEndian.PutUint32(b[8:12], uint32(len(us)))
	putNodes(b[12:], us)
	putNodes(b[12+4*len(us):], vs)
	return buf
}

// grow extends buf by n bytes, reallocating at most once, and returns it
// with the n new bytes, which the caller overwrites: a reused buffer holds
// an earlier message's bytes there.
func grow(buf []byte, n int) ([]byte, []byte) {
	off := len(buf)
	buf = slices.Grow(buf, n)[:off+n]
	return buf, buf[off:]
}

// putNodes writes ids into b as little-endian u32s.
func putNodes(b []byte, ids []graph.Node) {
	for _, v := range ids {
		binary.LittleEndian.PutUint32(b, uint32(v))
		b = b[4:]
	}
}

// maxKeptBuffer bounds every buffer a connection keeps between messages,
// for the frames it reads and those it encodes, on either side, to the size
// of its write buffer. A larger message gets a buffer of its own, dropped
// once handled (a follower allocates one per image it reads), so one large
// request or answer does not stay alive as long as its connection does.
const maxKeptBuffer = 64 << 10

// reuse empties b for the next message, or drops it when it is larger than
// maxKeptBuffer.
func reuse(b []byte) []byte {
	if cap(b) > maxKeptBuffer {
		return nil
	}
	return b[:0]
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
