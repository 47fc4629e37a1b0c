package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/store"
)

// ErrFenced matches (via errors.Is) a WireError reporting that the
// endpoint fenced itself after observing a newer leader term: a newer
// leader exists somewhere and the client should rediscover it.
var ErrFenced = errors.New("server: endpoint fenced by newer leader term")

// ErrStaleTerm matches (via errors.Is) a WireError reporting that the
// request carried a term below the endpoint's: the client's leader view
// predates a promotion.
var ErrStaleTerm = errors.New("server: stale leader term")

// ErrDegraded matches (via errors.Is) a WireError reporting that the
// endpoint's write path is degraded: nothing of the batch was logged, and
// the store re-arms itself, so the same batch may be retried later.
var ErrDegraded = errors.New("server: write path degraded")

// ErrUnexpectedFrame reports a tail round that brought a frame type a round
// does not carry — such as the raw WAL frame (type 0x4a) older sources
// shipped beside each diff. The stream position is lost; the round fails.
var ErrUnexpectedFrame = errors.New("server: unexpected frame in tail round")

// WireError is a server-reported failure, carrying the error code and the
// epoch the endpoint was at. errors.Is matches it against ErrReadOnly,
// ErrFenced, ErrStaleTerm and ErrDegraded by code.
type WireError struct {
	// Code is one of the ErrCode constants (ErrCodeGeneric for unclassed
	// failures and pre-failover peers).
	Code byte
	// Epoch is the endpoint's epoch when it failed the request.
	Epoch uint64
	// Msg is the server's error text.
	Msg string
}

// Error formats the failure as the server reported it.
func (e *WireError) Error() string { return "server: " + e.Msg }

// Is maps the wire code onto the package's sentinel errors.
func (e *WireError) Is(target error) bool {
	switch target {
	case ErrReadOnly:
		return e.Code == ErrCodeReadOnly
	case ErrFenced:
		return e.Code == ErrCodeFenced
	case ErrStaleTerm:
		return e.Code == ErrCodeStaleTerm
	case ErrDegraded:
		return e.Code == ErrCodeDegraded
	}
	return false
}

// Client is a synchronous wire-protocol client. One request is in flight
// at a time (methods serialize); it remembers the largest epoch any
// response carried and offers it as the default read-your-writes token,
// and likewise the largest leader term, which it attaches to writes and
// tail polls so stale leaders fence themselves on contact.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  []byte // the read buffer, reused up to maxKeptBuffer
	out  []byte // BatchReachable's request buffer, reused up to maxKeptBuffer

	timeout atomic.Int64 // per-request deadline, ns; 0 = none

	epochMu   sync.Mutex
	lastEpoch uint64
	lastTerm  uint64
	srcFenced bool
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) { return dial(addr, 10*time.Second) }

// dial connects to a server, giving up on the connection after timeout.
func dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}, nil
}

// Close drops the connection.
func (c *Client) Close() error { return c.conn.Close() }

// LastEpoch is the largest epoch seen in any response: the session's
// read-your-writes token. Pass it as minEpoch to read your own writes on
// another endpoint.
func (c *Client) LastEpoch() uint64 {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	return c.lastEpoch
}

// noteEpoch folds a response epoch into the session token (monotonic).
func (c *Client) noteEpoch(e uint64) {
	c.epochMu.Lock()
	if e > c.lastEpoch {
		c.lastEpoch = e
	}
	c.epochMu.Unlock()
}

// LastTerm is the largest leader term seen in any response (or set by
// SetTerm). Writes and tail polls carry it, so any stale leader the
// client contacts fences itself instead of accepting a divergent write.
func (c *Client) LastTerm() uint64 {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	return c.lastTerm
}

// SetTerm raises the term the client attaches to requests — monotonic,
// like noteTerm. A follower seeds a fresh connection with its local term;
// a failover client carries the term across reconnects.
func (c *Client) SetTerm(t uint64) { c.noteTerm(t) }

// noteTerm folds a response term into the session's term (monotonic).
func (c *Client) noteTerm(t uint64) {
	c.epochMu.Lock()
	if t > c.lastTerm {
		c.lastTerm = t
	}
	c.epochMu.Unlock()
}

// SourceFenced reports whether the last TailRound's MsgCaughtUp came from
// a fenced endpoint — frozen history that can never advance. Followers use
// it to rotate to a live source.
func (c *Client) SourceFenced() bool {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	return c.srcFenced
}

// SetTimeout arms a per-request deadline: every subsequent request (and
// every frame of a streaming one) must complete within d or the
// connection errors out. 0 disables the deadline. Safe to call
// concurrently with requests.
func (c *Client) SetTimeout(d time.Duration) { c.timeout.Store(int64(d)) }

// arm pushes the connection deadline forward by the configured timeout;
// no-op when none is set.
func (c *Client) arm() {
	if d := time.Duration(c.timeout.Load()); d > 0 {
		c.conn.SetDeadline(time.Now().Add(d))
	}
}

// roundTrip sends one frame and reads one response frame. The returned
// body aliases the client's buffer: decode before the next call.
func (c *Client) roundTrip(t MsgType, body []byte) (MsgType, []byte, error) {
	c.arm()
	if err := WriteFrame(c.bw, t, body); err != nil {
		return 0, nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	rt, rbody, err := ReadFrame(c.br, c.buf)
	if err != nil {
		return 0, nil, err
	}
	c.buf = reuse(rbody[:0])
	return rt, rbody, nil
}

// decodeErr turns a MsgErr body into a *WireError (noting its epoch).
func (c *Client) decodeErr(body []byte) error {
	cur := &cursor{b: body}
	epoch := cur.u64()
	code := cur.u8()
	msg := cur.rest()
	if cur.err != nil {
		return fmt.Errorf("server: malformed error response")
	}
	c.noteEpoch(epoch)
	return &WireError{Code: code, Epoch: epoch, Msg: string(msg)}
}

// Ping checks liveness and returns the server's current epoch.
func (c *Client) Ping() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, body, err := c.roundTrip(MsgPing, nil)
	if err != nil {
		return 0, err
	}
	switch t {
	case MsgEpoch:
		cur := &cursor{b: body}
		e := cur.u64()
		if err := cur.fin(); err != nil {
			return 0, err
		}
		c.noteEpoch(e)
		return e, nil
	case MsgErr:
		return 0, c.decodeErr(body)
	}
	return 0, fmt.Errorf("server: unexpected response 0x%02x to ping", byte(t))
}

// Reachable asks one reachability query at minEpoch or later; onG answers
// on the uncompressed graph. It returns the answer and the epoch it was
// computed at.
func (c *Client) Reachable(u, v graph.Node, minEpoch uint64, onG bool) (bool, uint64, error) {
	req := binary.LittleEndian.AppendUint64(nil, minEpoch)
	req = binary.LittleEndian.AppendUint32(req, uint32(u))
	req = binary.LittleEndian.AppendUint32(req, uint32(v))
	if onG {
		req = append(req, 1)
	} else {
		req = append(req, 0)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t, body, err := c.roundTrip(MsgReach, req)
	if err != nil {
		return false, 0, err
	}
	switch t {
	case MsgBool:
		cur := &cursor{b: body}
		epoch := cur.u64()
		ans := cur.u8()
		if err := cur.fin(); err != nil {
			return false, 0, err
		}
		c.noteEpoch(epoch)
		return ans == 1, epoch, nil
	case MsgErr:
		return false, 0, c.decodeErr(body)
	}
	return false, 0, fmt.Errorf("server: unexpected response 0x%02x to reach", byte(t))
}

// BatchReachable asks len(us) queries answered on one snapshot at
// minEpoch or later.
func (c *Client) BatchReachable(us, vs []graph.Node, minEpoch uint64) ([]bool, uint64, error) {
	if len(us) != len(vs) {
		return nil, 0, fmt.Errorf("server: %d sources vs %d targets", len(us), len(vs))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	req := encodeBatchReach(c.out[:0], minEpoch, us, vs)
	c.out = reuse(req)
	t, body, err := c.roundTrip(MsgBatchReach, req)
	if err != nil {
		return nil, 0, err
	}
	switch t {
	case MsgBools:
		cur := &cursor{b: body}
		epoch := cur.u64()
		k := cur.u32()
		raw := cur.take(int(k))
		if err := cur.fin(); err != nil {
			return nil, 0, err
		}
		out := make([]bool, k)
		for i, b := range raw {
			out[i] = b == 1
		}
		c.noteEpoch(epoch)
		return out, epoch, nil
	case MsgErr:
		return nil, 0, c.decodeErr(body)
	}
	return nil, 0, fmt.Errorf("server: unexpected response 0x%02x to batch reach", byte(t))
}

// Match asks a pattern query at minEpoch or later.
func (c *Client) Match(p *pattern.Pattern, minEpoch uint64) (*pattern.Result, uint64, error) {
	req := binary.LittleEndian.AppendUint64(nil, minEpoch)
	req = EncodePattern(req, p)
	c.mu.Lock()
	defer c.mu.Unlock()
	t, body, err := c.roundTrip(MsgMatch, req)
	if err != nil {
		return nil, 0, err
	}
	switch t {
	case MsgMatched:
		cur := &cursor{b: body}
		epoch := cur.u64()
		res, rerr := decodeResult(cur)
		if rerr != nil {
			return nil, 0, rerr
		}
		c.noteEpoch(epoch)
		return res, epoch, nil
	case MsgErr:
		return nil, 0, c.decodeErr(body)
	}
	return nil, 0, fmt.Errorf("server: unexpected response 0x%02x to match", byte(t))
}

// Apply submits one update batch and returns its visibility epoch — the
// read-your-writes token for subsequent reads anywhere in the fleet. The
// request carries the session's term, so a stale leader rejects it (and
// fences itself) instead of diverging.
func (c *Client) Apply(batch []graph.Update) (uint64, error) {
	req := binary.LittleEndian.AppendUint64(nil, c.LastTerm())
	req = store.EncodeBatch(req, batch)
	c.mu.Lock()
	defer c.mu.Unlock()
	t, body, err := c.roundTrip(MsgApply, req)
	if err != nil {
		return 0, err
	}
	switch t {
	case MsgApplied:
		cur := &cursor{b: body}
		epoch := cur.u64()
		term := cur.u64()
		if err := cur.fin(); err != nil {
			return 0, err
		}
		c.noteEpoch(epoch)
		c.noteTerm(term)
		return epoch, nil
	case MsgErr:
		return 0, c.decodeErr(body)
	}
	return 0, fmt.Errorf("server: unexpected response 0x%02x to apply", byte(t))
}

// Stats fetches the server's store summary.
func (c *Client) Stats() (Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, body, err := c.roundTrip(MsgStats, nil)
	if err != nil {
		return Info{}, err
	}
	switch t {
	case MsgInfo:
		in, derr := decodeInfo(body)
		if derr != nil {
			return Info{}, derr
		}
		c.noteEpoch(in.Epoch)
		c.noteTerm(in.Term)
		return in, nil
	case MsgErr:
		return Info{}, c.decodeErr(body)
	}
	return Info{}, fmt.Errorf("server: unexpected response 0x%02x to stats", byte(t))
}

// Metrics fetches the server's Prometheus text scrape and the epoch it
// was taken at. The text is empty when the server runs without a metrics
// registry.
func (c *Client) Metrics() (string, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, body, err := c.roundTrip(MsgMetrics, nil)
	if err != nil {
		return "", 0, err
	}
	switch t {
	case MsgMetricsText:
		cur := &cursor{b: body}
		epoch := cur.u64()
		text := cur.rest()
		if cur.err != nil {
			return "", 0, cur.err
		}
		c.noteEpoch(epoch)
		return string(text), epoch, nil
	case MsgErr:
		return "", 0, c.decodeErr(body)
	}
	return "", 0, fmt.Errorf("server: unexpected response 0x%02x to metrics", byte(t))
}

// TailRound asks for the groups from seq on, letting the source park the
// round for up to hold while it has published nothing at or past from (0 =
// answer at once). lineage names the views the caller holds at from-1; a
// source that cannot chain them ships an image. effect is called once per
// shipped effect, a diff carrying its group's batches or an image, with the
// last epoch it covers and its bytes (store.Store.ApplyEffect decodes
// them). It returns the leader's published epoch from the closing
// MsgCaughtUp; a frame of any other type fails the round with
// ErrUnexpectedFrame. What effect is passed aliases the read buffer —
// decode within the call. A timeout set with SetTimeout must cover the
// hold. Close, from another goroutine, is what interrupts a parked round.
func (c *Client) TailRound(from, lineage uint64, hold time.Duration, effect func(epoch uint64, b []byte) error) (leaderEpoch uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.arm()
	req := binary.LittleEndian.AppendUint64(nil, from)
	req = binary.LittleEndian.AppendUint64(req, c.LastTerm())
	req = binary.LittleEndian.AppendUint32(req, uint32(hold/time.Millisecond))
	req = binary.LittleEndian.AppendUint64(req, lineage)
	if err := WriteFrame(c.bw, MsgTail, req); err != nil {
		return 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	for {
		c.arm()
		t, body, err := ReadFrame(c.br, c.buf)
		if err != nil {
			return 0, err
		}
		c.buf = reuse(body[:0])
		switch t {
		case MsgEffect:
			cur := &cursor{b: body}
			epoch := cur.u64()
			b := cur.rest()
			if cur.err != nil {
				return 0, cur.err
			}
			if err := effect(epoch, b); err != nil {
				return 0, err
			}
		case MsgCaughtUp:
			cur := &cursor{b: body}
			e := cur.u64()
			term := cur.u64()
			fenced := cur.u8()
			if err := cur.fin(); err != nil {
				return 0, err
			}
			c.noteEpoch(e)
			c.noteTerm(term)
			c.epochMu.Lock()
			c.srcFenced = fenced == 1
			c.epochMu.Unlock()
			return e, nil
		case MsgErr:
			return 0, c.decodeErr(body)
		default:
			return 0, fmt.Errorf("%w: type 0x%02x", ErrUnexpectedFrame, byte(t))
		}
	}
}

// Promote asks a follower endpoint to promote itself to leader, first
// waiting up to wait for its tail to drain (0 = promote immediately). It
// returns the promoted follower's epoch frontier — every batch acked at
// or below it survived the failover — and the new term.
func (c *Client) Promote(wait time.Duration) (epoch, term uint64, err error) {
	req := binary.LittleEndian.AppendUint64(nil, uint64(wait/time.Millisecond))
	c.mu.Lock()
	defer c.mu.Unlock()
	t, body, err := c.roundTrip(MsgPromote, req)
	if err != nil {
		return 0, 0, err
	}
	switch t {
	case MsgPromoted:
		cur := &cursor{b: body}
		epoch = cur.u64()
		term = cur.u64()
		if err := cur.fin(); err != nil {
			return 0, 0, err
		}
		c.noteEpoch(epoch)
		c.noteTerm(term)
		return epoch, term, nil
	case MsgErr:
		return 0, 0, c.decodeErr(body)
	}
	return 0, 0, fmt.Errorf("server: unexpected response 0x%02x to promote", byte(t))
}
