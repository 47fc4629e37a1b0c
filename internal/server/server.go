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
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/snapfile"
	"repro/internal/store"
)

// Options configures a Server.
type Options struct {
	// Backend serves the queries and writes. Required.
	Backend Backend
	// ReplDir, when set, makes this node a replication source: the server
	// answers MsgTail from the backend's effect ring. No file under it is
	// read; any non-empty value switches shipping on. Empty disables
	// replication serving.
	ReplDir string
	// EpochWaitTimeout bounds how long a read waits for its minEpoch (the
	// RYW token) before failing. 0 means 5s.
	EpochWaitTimeout time.Duration
	// Obs, when non-nil, receives the server's instrumentation (request
	// latency by type, in-flight gauge, rejects, the qpgc_query trace
	// family) and is what MsgMetrics scrapes. Nil disables both.
	Obs *obs.Registry
	// SlowQuery is the slow-query log threshold: point reads at or above
	// it record a stage breakdown in the registry's "qpgc_query" slow log.
	// 0 disables the log. Ignored without Obs.
	SlowQuery time.Duration
}

// Server answers the wire protocol on a listener: queries and writes
// against its Backend, effect shipping for followers.
type Server struct {
	opts    Options
	backend Backend

	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
	done   chan struct{} // closed by Close: cancels every held request

	requests atomic.Uint64
	waits    atomic.Uint64
	ob       *serverObs // nil without Options.Obs
}

// New builds a Server; Serve or Start runs it.
func New(opts Options) *Server {
	s := &Server{opts: opts, backend: opts.Backend, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
	if s.opts.EpochWaitTimeout == 0 {
		s.opts.EpochWaitTimeout = 5 * time.Second
	}
	s.ob = newServerObs(s, s.opts)
	return s
}

// Start listens on addr (":0" picks a free port) and serves in the
// background; Close stops it.
func Start(addr string, opts Options) (*Server, error) {
	s := New(opts)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return s, nil
}

// Addr is the bound listen address (after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, drops live connections, releases the requests
// held for an epoch (reads pinned ahead, parked tail rounds — a handler in
// a hold is not looking at its connection) and waits for handlers. It does
// not close the Backend — the caller owns the store.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.done)
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Requests counts frames handled since start.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// connState is what one connection keeps while it handles a request.
type connState struct {
	// start is when the request being handled began, for its latency
	// sample; a tail round that was parked restarts it when it wakes. Zero
	// without a registry.
	start time.Time
	// out is the buffer MsgMatched and MsgBools answers are encoded into,
	// kept for the next request while it is no larger than maxKeptBuffer.
	// emit is done with an answer before the next request is read.
	out []byte
}

// serveConn runs one connection's request loop: frames in, frames out,
// strictly in order. A malformed frame gets a MsgErr response and the
// connection stays up; only IO errors drop it.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var buf []byte
	var cs connState
	emit := func(t MsgType, body []byte) error {
		return WriteFrame(bw, t, body)
	}
	for {
		t, body, err := ReadFrame(br, buf)
		if err != nil {
			return
		}
		buf = reuse(body[:0]) // handleRequest never retains body
		s.requests.Add(1)
		if s.ob != nil {
			s.ob.inflight.Add(1)
			cs.start = time.Now()
		}
		herr := s.handleRequest(t, body, emit, &cs)
		if s.ob != nil {
			s.ob.observe(t, time.Since(cs.start))
			s.ob.inflight.Add(-1)
		}
		if herr != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// errStaleTerm rejects a write whose caller term is below the endpoint's:
// the caller's leader view predates a promotion.
var errStaleTerm = errors.New("server: stale leader term")

// errBody builds a MsgErr body at the current epoch: epoch, error code,
// text. The code classifies failover-relevant failures so clients redirect
// without string matching.
func (s *Server) errBody(err error) []byte {
	body := binary.LittleEndian.AppendUint64(nil, s.backend.Epoch())
	body = append(body, errCode(err))
	return append(body, err.Error()...)
}

// errCode maps an error to its wire code.
func errCode(err error) byte {
	switch {
	case errors.Is(err, ErrReadOnly):
		return ErrCodeReadOnly
	case errors.Is(err, store.ErrFenced):
		return ErrCodeFenced
	case errors.Is(err, errStaleTerm):
		return ErrCodeStaleTerm
	case errors.Is(err, store.ErrDegraded):
		return ErrCodeDegraded
	}
	return ErrCodeGeneric
}

// waitEpoch is the read-your-writes hold: the read parks until the
// backend's published epoch reaches minEpoch — the epoch swap wakes it — or
// the configured timeout passes, the server closes or the backend is fenced.
func (s *Server) waitEpoch(minEpoch uint64) error {
	if s.backend.Epoch() >= minEpoch {
		return nil
	}
	s.waits.Add(1)
	if e := s.backend.AwaitEpoch(minEpoch, s.opts.EpochWaitTimeout, s.done); e < minEpoch {
		return fmt.Errorf("server: epoch %d not reached within %v (at %d)", minEpoch, s.opts.EpochWaitTimeout, e)
	}
	return nil
}

// pinned is a read that is answered at an epoch of at least minEpoch, and
// stamped with the epoch it was answered at: it holds the request until the
// published epoch reaches minEpoch, then runs read — which answers on one
// pinned snapshot and returns that snapshot's epoch — and returns that
// epoch. A read that lands on a snapshot below minEpoch (a follower's
// resync can swap in an older store) waits again. sp is charged the wait
// and the read as their two stages.
func (s *Server) pinned(minEpoch uint64, sp *obs.Span, read func() uint64) (uint64, error) {
	for {
		err := s.waitEpoch(minEpoch)
		sp.Step(obs.StageEpochWait)
		if err != nil {
			return 0, err
		}
		epoch := read()
		sp.Step(obs.StageWave)
		if epoch >= minEpoch {
			return epoch, nil
		}
	}
}

// handleRequest decodes one request frame and emits its response frames.
// It returns an error only for IO failure on emit; protocol-level problems
// become MsgErr responses. FuzzHandleRequest drives this function with
// arbitrary frames: whatever arrives, it must neither panic nor emit an
// unparseable response.
func (s *Server) handleRequest(t MsgType, body []byte, emit func(MsgType, []byte) error, cs *connState) error {
	switch t {
	case MsgPing:
		return emit(MsgEpoch, binary.LittleEndian.AppendUint64(nil, s.backend.Epoch()))

	case MsgReach:
		c := &cursor{b: body}
		minEpoch := c.u64()
		u, v := c.u32(), c.u32()
		onG := c.u8()
		if err := c.fin(); err != nil {
			return emit(MsgErr, s.errBody(err))
		}
		if onG > 1 {
			return emit(MsgErr, s.errBody(fmt.Errorf("server: onG flag %d, want 0 or 1", onG)))
		}
		n := uint32(s.backend.NumNodes())
		if u >= n || v >= n {
			return emit(MsgErr, s.errBody(fmt.Errorf("server: node id outside [0,%d)", n)))
		}
		// The span walks the point read through the pipeline: epoch wait,
		// then the read itself. The store's leaf and summary stages land in
		// the same qpgc_query family.
		sp := s.ob.qtracer().Start(u, v)
		var reach bool
		epoch, err := s.pinned(minEpoch, &sp, func() (epoch uint64) {
			reach, epoch = s.backend.Reachable(graph.Node(u), graph.Node(v), onG == 1)
			return epoch
		})
		sp.Finish()
		if err != nil {
			s.ob.reject()
			return emit(MsgErr, s.errBody(err))
		}
		out := binary.LittleEndian.AppendUint64(nil, epoch)
		if reach {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		return emit(MsgBool, out)

	case MsgBatchReach:
		c := &cursor{b: body}
		minEpoch := c.u64()
		k := c.u32()
		if c.err == nil && int64(k) > int64(len(body)-c.off)/8 {
			return emit(MsgErr, s.errBody(fmt.Errorf("server: batch claims %d pairs in %d bytes", k, len(body)-c.off)))
		}
		us := make([]graph.Node, k)
		vs := make([]graph.Node, k)
		n := uint32(s.backend.NumNodes())
		for i := range us {
			us[i] = graph.Node(c.u32())
		}
		for i := range vs {
			vs[i] = graph.Node(c.u32())
		}
		if err := c.fin(); err != nil {
			return emit(MsgErr, s.errBody(err))
		}
		for i := range us {
			if uint32(us[i]) >= n || uint32(vs[i]) >= n {
				return emit(MsgErr, s.errBody(fmt.Errorf("server: pair %d names node outside [0,%d)", i, n)))
			}
		}
		var res []bool
		epoch, err := s.pinned(minEpoch, &obs.Span{}, func() (epoch uint64) {
			res, epoch = s.backend.BatchReachable(us, vs)
			return epoch
		})
		if err != nil {
			s.ob.reject()
			return emit(MsgErr, s.errBody(err))
		}
		out := encodeBools(binary.LittleEndian.AppendUint64(cs.out[:0], epoch), res)
		cs.out = reuse(out)
		return emit(MsgBools, out)

	case MsgMatch:
		c := &cursor{b: body}
		minEpoch := c.u64()
		p, perr := decodePattern(c)
		if perr == nil {
			perr = c.fin()
		}
		if perr != nil {
			return emit(MsgErr, s.errBody(perr))
		}
		var res *pattern.Result
		epoch, err := s.pinned(minEpoch, &obs.Span{}, func() (epoch uint64) {
			res, epoch = s.backend.Match(p)
			return epoch
		})
		if err != nil {
			s.ob.reject()
			return emit(MsgErr, s.errBody(err))
		}
		out := encodeResult(binary.LittleEndian.AppendUint64(cs.out[:0], epoch), res)
		cs.out = reuse(out)
		return emit(MsgMatched, out)

	case MsgApply:
		if len(body) < 8 {
			return emit(MsgErr, s.errBody(errShortFrame))
		}
		callerTerm := binary.LittleEndian.Uint64(body)
		// A term claim of 0 means "no claim" (pre-failover clients); any
		// other value is checked against the local term. A higher caller
		// term proves another node was promoted — observing it fences a
		// leader-acting backend before the write is rejected. A lower one
		// marks the caller's leader view as stale.
		if callerTerm != 0 {
			if local := s.backend.Term(); callerTerm > local {
				s.backend.ObserveTerm(callerTerm)
			} else if callerTerm < local {
				return emit(MsgErr, s.errBody(fmt.Errorf("%w: caller term %d, endpoint term %d", errStaleTerm, callerTerm, local)))
			}
		}
		batch, err := snapfile.DecodeBatchAtMost(body[8:], s.backend.NumNodes(), maxApplyUpdates)
		if err != nil {
			return emit(MsgErr, s.errBody(err))
		}
		epoch, err := s.backend.Apply(batch)
		if err != nil {
			return emit(MsgErr, s.errBody(err))
		}
		out := binary.LittleEndian.AppendUint64(nil, epoch)
		out = binary.LittleEndian.AppendUint64(out, s.backend.Term())
		return emit(MsgApplied, out)

	case MsgStats:
		if len(body) != 0 {
			return emit(MsgErr, s.errBody(errors.New("server: stats takes no body")))
		}
		return emit(MsgInfo, encodeInfo(nil, s.backend.Info()))

	case MsgMetrics:
		if len(body) != 0 {
			return emit(MsgErr, s.errBody(errors.New("server: metrics takes no body")))
		}
		out := binary.LittleEndian.AppendUint64(nil, s.backend.Epoch())
		out = append(out, s.ob.scrape()...)
		return emit(MsgMetricsText, out)

	case MsgTail:
		return s.handleTail(body, emit, cs)

	case MsgPromote:
		c := &cursor{b: body}
		waitMs := c.u64()
		if err := c.fin(); err != nil {
			return emit(MsgErr, s.errBody(err))
		}
		p, ok := s.backend.(Promoter)
		if !ok {
			return emit(MsgErr, s.errBody(errors.New("server: backend is not promotable (not a follower)")))
		}
		epoch, term, err := p.Promote(time.Duration(waitMs) * time.Millisecond)
		if err != nil {
			return emit(MsgErr, s.errBody(err))
		}
		out := binary.LittleEndian.AppendUint64(nil, epoch)
		out = binary.LittleEndian.AppendUint64(out, term)
		return emit(MsgPromoted, out)

	default:
		return emit(MsgErr, s.errBody(fmt.Errorf("server: unknown request type 0x%02x", byte(t))))
	}
}

// maxTailHold clamps the hold a MsgTail round may ask for.
const maxTailHold = 5 * time.Second

// handleTail ships one round from the backend's effect ring: the diffs
// that chain from the follower's (lineage, from-1), each carrying its
// group's batches, or else one image, which holds G; it ends with
// MsgCaughtUp (current published epoch). A round that asks to be held and
// finds nothing to ship parks until the published epoch reaches its seq —
// what is shipped is what has been published, and the swap that publishes
// it is what wakes the round — or until the hold runs out, the server
// closes or the backend is fenced; a fenced backend never parks a round.
// No file is read: the follower's store decoder is the single integrity
// gate for what ships (chaos tests corrupt it on the wire to prove it).
func (s *Server) handleTail(body []byte, emit func(MsgType, []byte) error, cs *connState) error {
	c := &cursor{b: body}
	from := c.u64()
	callerTerm := c.u64()
	hold := time.Duration(c.u32()) * time.Millisecond
	lineage := c.u64()
	if err := c.fin(); err != nil {
		return emit(MsgErr, s.errBody(err))
	}
	if s.opts.ReplDir == "" {
		return emit(MsgErr, s.errBody(errors.New("server: not a replication source")))
	}
	// A follower that adopted a newer term fences a stale source just by
	// asking it: the shipped history stays readable (it is frozen, safe
	// history), but the source's write path shuts before it can diverge.
	if callerTerm > s.backend.Term() {
		s.backend.ObserveTerm(callerTerm)
	}
	if from == 0 {
		// Seq 0 never exists (epochs are 1-based); a follower at epoch 0
		// tails from 1.
		from = 1
	}
	if hold > maxTailHold {
		hold = maxTailHold
	}
	if hold > 0 && s.backend.Epoch() < from && !s.backend.Fenced() {
		// A parked round is an idle follower, not a request in flight: the
		// latency sample is the service after the wake.
		s.ob.parkTail(1)
		s.backend.AwaitEpoch(from, hold, s.done)
		s.ob.parkTail(-1)
		if s.ob != nil {
			cs.start = time.Now()
		}
	}
	// Read before the ring is: what the round reports published, it has
	// had the chance to ship, so a follower told of an epoch it was not
	// sent knows the round went wrong.
	epoch := s.backend.Epoch()
	for _, e := range s.backend.Effects(lineage, from-1) {
		if err := s.emitEffect(emit, e); err != nil {
			return err
		}
	}
	out := binary.LittleEndian.AppendUint64(nil, epoch)
	out = binary.LittleEndian.AppendUint64(out, s.backend.Term())
	// The fenced flag is what lets a follower distinguish a deposed leader
	// (frozen history, rotate away) from a healthy chained sibling (also
	// not writable, but advancing).
	fenced := byte(0)
	if s.backend.Fenced() {
		fenced = 1
	}
	return emit(MsgCaughtUp, append(out, fenced))
}

// emitEffect sends one effect: the last epoch it covers, then its bytes.
func (s *Server) emitEffect(emit func(MsgType, []byte) error, e store.Effect) error {
	s.ob.effectBytes(len(e.Bytes))
	out := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+len(e.Bytes)), e.Epoch)
	return emit(MsgEffect, append(out, e.Bytes...))
}
