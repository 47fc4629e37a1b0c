// Package replica turns a durable store directory into a read replica: it
// bootstraps from the leader's newest snapfile checkpoint, then tails the
// leader's WAL — one long-polled round after another, each answered when
// the leader publishes an epoch. Each group of raw frames arrives with its
// effect: what those batches did to the leader's views (store/effect.go).
// The follower appends the frames to its own WAL, patches its G from them
// and its views from the effect, and publishes — it runs no maintainer and
// holds none until Promote builds them. A round that cannot chain the
// follower's views brings one image of the leader's instead. So a follower
// has two transitions, a diff and an image: frames that arrive without
// their effect — a round cut short by a dropped connection or a rejected
// effect — are not applied, and the next round ships them again.
//
// The design leans entirely on one invariant the storage layer already
// guarantees: a WAL record's sequence number IS the batch's epoch. A
// follower's catch-up position is therefore just its own store epoch; its
// staleness is the leader epoch minus that; and the read-your-writes token
// a leader hands out on Apply is directly comparable to any follower's
// published snapshot. Applying a shipped record through the follower's own
// durable store re-logs it in the follower's WAL before acknowledgement,
// so a SIGKILLed follower recovers to an epoch it already served — RYW
// tokens never move backward across a crash.
//
// Shipped bytes are untrusted. Every frame is re-validated with
// wal.ParseRecord (CRC), its embedded seq must equal both the claimed seq
// and the follower's next epoch, and the decoded batch must apply at
// exactly that epoch; an effect must decode, chain from the follower's own
// views and agree with its patched G (store.Store.ApplyEffect checks).
// Any violation is a quarantine event: the connection
// is dropped and catch-up restarts from the follower's own epoch — wrong
// answers are never served. A follower that cannot make progress (or whose
// tail position the leader has truncated) wipes its directory and
// re-bootstraps from a fresh snapshot, keeping the old snapshot serving
// reads until the new store is live.
package replica

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wal"
)

// Options configures a Follower.
type Options struct {
	// Dir is the follower's own durable directory. Required.
	Dir string
	// Leader is the leader's replication address, or a comma-separated
	// retry list of sources. Required. A follower rotates through the list
	// on connection failure or when a source turns out to be stale (its
	// term is below the follower's), which is how a survivor re-points to a
	// promoted sibling after failover — any follower's own WAL is a valid
	// shipping source.
	Leader string
	// FS is the filesystem the follower's local store runs on. Nil means
	// the disk; chaos tests inject faults into local durability here.
	FS faultfs.FS
	// ReconnectBackoff is the delay before redialing a dropped leader
	// connection. 0 means 100ms.
	ReconnectBackoff time.Duration
	// Obs, when non-nil, receives the follower's replication metrics (lag,
	// shipped bytes, quarantines, resyncs) and is passed through to the
	// local store, so one scrape covers both tiers. Nil disables it.
	Obs *obs.Registry
}

// Status is a point-in-time view of a follower's replication state.
type Status struct {
	// Epoch is the follower's published snapshot epoch (its RYW token
	// watermark); LeaderEpoch is the leader's epoch at the last completed
	// tail round. Lag is their difference.
	Epoch, LeaderEpoch, Lag uint64
	// Term is the local store's leader term; LeaderTerm the highest term
	// any replication source reported.
	Term, LeaderTerm uint64
	// CaughtUp reports the last tail round ended with nothing missing.
	CaughtUp bool
	// Promoted reports this follower has been promoted to leader: it has
	// stopped tailing and serves writes.
	Promoted bool
	// Quarantines counts rejected shipped frames (CRC/seq/decode/apply
	// violations); Reconnects counts dropped leader connections;
	// Resyncs counts full snapshot re-bootstraps.
	Quarantines, Reconnects, Resyncs uint64
	// Err is the most recent replication error, "" when none.
	Err string
}

// LagError is the structured failure WaitCaughtUp returns on timeout: how
// far behind the follower is, in epochs and (estimated from the mean
// shipped frame size) bytes.
type LagError struct {
	// Wait is the timeout that expired.
	Wait time.Duration
	// Epoch and LeaderEpoch are the follower's and leader's positions;
	// LagEpochs their difference.
	Epoch, LeaderEpoch, LagEpochs uint64
	// LagBytes estimates the outstanding WAL payload from the mean size of
	// frames shipped so far (0 when nothing has shipped yet).
	LagBytes uint64
	// LastErr is the most recent replication error, "" when none.
	LastErr string
}

// Error formats the lag report.
func (e *LagError) Error() string {
	msg := fmt.Sprintf("replica: not caught up after %v: %d epochs behind (epoch %d, leader %d", e.Wait, e.LagEpochs, e.Epoch, e.LeaderEpoch)
	if e.LagBytes > 0 {
		msg += fmt.Sprintf(", ~%d bytes", e.LagBytes)
	}
	if e.LastErr != "" {
		msg += fmt.Sprintf(", last error %q", e.LastErr)
	}
	return msg + ")"
}

// Follower is a live read replica. It satisfies server.Backend, so a
// Server can front it directly; Apply returns server.ErrReadOnly until
// Promote turns the follower into a leader.
type Follower struct {
	opts    Options
	leaders []string // replication source retry list

	mu sync.RWMutex // guards s across resync swaps
	s  *store.Store // the local store, swapped on resync
	// wake is broadcast when what AwaitEpoch waits on moves: the local store
	// published a batch, was swapped by a resync, or was fenced. Waiters
	// park here and not on the store, so a swap carries them over.
	wake store.Wake

	leaderEpoch atomic.Uint64
	leaderTerm  atomic.Uint64 // highest term any source reported
	caughtUp    atomic.Bool
	promoted    atomic.Bool
	quarantines atomic.Uint64
	reconnects  atomic.Uint64
	resyncs     atomic.Uint64
	lastErr     atomic.Value  // string
	tailRounds  atomic.Uint64 // MsgTail rounds completed
	shipped     *obs.Counter  // bytes of WAL frames applied; nil without Obs
	// diffs and images count the shipped effects applied, by kind; ob times
	// every apply by path (nil without Obs: then no clock is read).
	diffs, images atomic.Uint64
	ob            *followerObs

	// shippedBytes/shippedFrames estimate the mean shipped frame size for
	// LagError.LagBytes, independent of Obs.
	shippedBytes  atomic.Uint64
	shippedFrames atomic.Uint64

	nextLeader int // rotation cursor; tail goroutine only

	// The tail loop is separately stoppable so Promote can halt shipping
	// while the Follower itself stays open. tailCli is the connection its
	// round may be parked on: whoever stops the loop closes it, since a
	// parked round returns through nothing else.
	tailMu   sync.Mutex
	tailStop chan struct{}
	tailCli  *server.Client
	tailWg   sync.WaitGroup

	promoteMu sync.Mutex // serializes Promote calls

	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

const (
	// tailHold is how long a caught-up follower lets its source park a tail
	// round. It is not a poll interval — the source answers the moment it
	// publishes — but the bound on everything that does not wake a parked
	// round by itself: a term the follower adopted meanwhile reaches the
	// source, and fences it if stale, within one tailHold.
	tailHold = time.Second
	// tailMargin is what a round may take on top of its hold before the
	// source counts as silent and the follower rotates to the next one.
	tailMargin = time.Second
	// snapFrameTimeout bounds the wait for each frame of a snapshot transfer.
	snapFrameTimeout = 30 * time.Second
	// resyncAfter is how many consecutive quarantine events without epoch
	// progress trigger a full wipe-and-re-bootstrap.
	resyncAfter = 5
)

// errQuarantine tags shipped-frame validation failures: the frame is
// rejected, the connection dropped, and catch-up restarts — as opposed to
// plain IO errors, which only reconnect.
var errQuarantine = errors.New("replica: shipped frame rejected")

// Start bootstraps (if dir holds no durable state) and opens the local
// store, then begins tailing the leader in the background. A dir that
// already holds state — a restarted follower — skips the snapshot and
// catches up from its own recovered epoch.
func Start(opts Options) (*Follower, error) {
	leaders := leaderList(opts)
	if opts.Dir == "" || len(leaders) == 0 {
		return nil, errors.New("replica: Dir and Leader are required")
	}
	if opts.ReconnectBackoff == 0 {
		opts.ReconnectBackoff = 100 * time.Millisecond
	}
	f := &Follower{opts: opts, leaders: leaders, stop: make(chan struct{})}
	if !store.HasState(opts.FS, opts.Dir) {
		if err := f.bootstrap(); err != nil {
			return nil, err
		}
	}
	s, err := f.openLocal()
	if err != nil {
		return nil, err
	}
	f.s = s
	f.bindObs(opts.Obs)
	f.startTail()
	return f, nil
}

// leaderList splits Leader's retry list, dropping empties.
func leaderList(opts Options) []string {
	var out []string
	for _, addr := range strings.Split(opts.Leader, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			out = append(out, addr)
		}
	}
	return out
}

// The ways a shipped group reaches the local store, the path label of
// qpgc_replica_apply_seconds: a diff of the source's views or an image of
// them.
const (
	pathEffect = iota
	pathImage
	numPaths
)

// followerObs is the follower's directly fed instruments.
type followerObs struct {
	apply [numPaths]*obs.Histogram // per group
}

// bindObs registers the follower's replication metrics: scrape-time
// callbacks over the atomics Status already reads, the shipped-bytes counter
// and the apply histograms a round feeds. The local store registered its own
// families when openLocal passed Obs through. No-op on a nil registry.
func (f *Follower) bindObs(r *obs.Registry) {
	if r == nil {
		return
	}
	f.shipped = r.Counter("qpgc_replica_shipped_bytes_total")
	f.ob = &followerObs{}
	for p, name := range [numPaths]string{"effect", "image"} {
		f.ob.apply[p] = r.Histogram(obs.Label("qpgc_replica_apply_seconds", "path", name))
	}
	r.CounterFunc(obs.Label("qpgc_replica_effects_total", "kind", "diff"), f.diffs.Load)
	r.CounterFunc(obs.Label("qpgc_replica_effects_total", "kind", "image"), f.images.Load)
	r.GaugeFunc("qpgc_replica_epoch", func() float64 { return float64(f.local().Epoch()) })
	r.GaugeFunc("qpgc_replica_leader_epoch", func() float64 { return float64(f.leaderEpoch.Load()) })
	r.GaugeFunc("qpgc_replica_lag_epochs", func() float64 {
		e, le := f.local().Epoch(), f.leaderEpoch.Load()
		if le > e {
			return float64(le - e)
		}
		return 0
	})
	r.GaugeFunc("qpgc_replica_caught_up", func() float64 {
		if f.caughtUp.Load() {
			return 1
		}
		return 0
	})
	r.CounterFunc("qpgc_replica_quarantines_total", f.quarantines.Load)
	r.CounterFunc("qpgc_replica_reconnects_total", f.reconnects.Load)
	r.CounterFunc("qpgc_replica_resyncs_total", f.resyncs.Load)
	r.CounterFunc("qpgc_replica_tail_rounds_total", f.tailRounds.Load)
	r.GaugeFunc("qpgc_replica_term", func() float64 { return float64(f.local().Term()) })
	r.GaugeFunc("qpgc_replica_leader_term", func() float64 { return float64(f.leaderTerm.Load()) })
	r.GaugeFunc("qpgc_replica_promoted", func() float64 {
		if f.promoted.Load() {
			return 1
		}
		return 0
	})
}

// bootstrap fetches a source's newest checkpoint and installs it as this
// directory's initial durable state, trying each leader in order.
func (f *Follower) bootstrap() error {
	var lastErr error
	for _, addr := range f.leaders {
		epoch, data, err := f.fetchSnapshot(addr)
		if err != nil {
			lastErr = fmt.Errorf("replica: bootstrap: %w", err)
			continue
		}
		return store.InstallSnapshot(f.opts.FS, f.opts.Dir, epoch, data)
	}
	return lastErr
}

// fetchSnapshot fetches addr's newest checkpoint and folds the term the
// source reported into the tracked maximum, which openLocal adopts.
func (f *Follower) fetchSnapshot(addr string) (uint64, []byte, error) {
	cli, err := server.Dial(addr)
	if err != nil {
		return 0, nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	defer cli.Close()
	cli.SetTimeout(snapFrameTimeout)
	epoch, data, err := cli.FetchSnapshot()
	f.noteLeaderTerm(cli.LastTerm())
	if err != nil {
		return 0, nil, fmt.Errorf("snapshot fetch from %s: %w", addr, err)
	}
	return epoch, data, nil
}

// noteLeaderTerm folds a source-reported term into the tracked maximum.
func (f *Follower) noteLeaderTerm(t uint64) {
	for {
		cur := f.leaderTerm.Load()
		if t <= cur || f.leaderTerm.CompareAndSwap(cur, t) {
			return
		}
	}
}

// openLocal recovers the directory's store at the highest term any source
// reported, so a store installed from a fetched snapshot — whose directory
// holds no TERM file — joins the cluster at its current term, not 0.
func (f *Follower) openLocal() (*store.Store, error) {
	o := store.DefaultOptions()
	o.Dir, o.FS, o.Sync, o.Obs = f.opts.Dir, f.opts.FS, store.SyncNone, f.opts.Obs
	s, err := store.Open(nil, &o)
	if err != nil {
		return nil, err
	}
	if t := f.leaderTerm.Load(); t > 0 {
		if err := s.AdoptTerm(t); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// local returns the currently serving local store.
func (f *Follower) local() *store.Store {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.s
}

// backend returns the currently serving local store as the server sees it.
func (f *Follower) backend() server.Backend { return server.NewStoreBackend(f.local()) }

// startTail launches the tail loop with a fresh stop channel.
func (f *Follower) startTail() {
	f.tailMu.Lock()
	defer f.tailMu.Unlock()
	st := make(chan struct{})
	f.tailStop = st
	f.tailWg.Add(1)
	f.wg.Add(1)
	go func() {
		defer f.tailWg.Done()
		defer f.wg.Done()
		f.tailLoop(st)
	}()
}

// stopTail halts the tail loop — interrupting the round it may be parked
// in — and waits for it to return. Idempotent; safe alongside Close.
func (f *Follower) stopTail() {
	f.tailMu.Lock()
	st := f.tailStop
	f.tailStop = nil
	f.tailMu.Unlock()
	if st != nil {
		close(st)
	}
	f.interruptTail()
	f.tailWg.Wait()
}

// holdTailConn makes cli the connection interruptTail closes, unless the
// loop was stopped before it got this far: then cli is refused and the
// caller gives up. It is the stop signal first, the connection second on
// both sides, so a stop either finds the connection or is found by it.
func (f *Follower) holdTailConn(cli *server.Client, tailStop chan struct{}) bool {
	f.tailMu.Lock()
	defer f.tailMu.Unlock()
	if f.stopped(tailStop) {
		return false
	}
	f.tailCli = cli
	return true
}

// interruptTail closes the tail loop's connection, failing the round parked
// on it. Call it after closing the stop channel the loop is to find.
func (f *Follower) interruptTail() {
	f.tailMu.Lock()
	cli := f.tailCli
	f.tailMu.Unlock()
	if cli != nil {
		cli.Close()
	}
}

// stopped reports whether the follower, or the tail loop started with
// tailStop, has been told to stop.
func (f *Follower) stopped(tailStop chan struct{}) bool {
	select {
	case <-f.stop:
		return true
	case <-tailStop:
		return true
	default:
		return false
	}
}

// Close stops replication and closes the local store. The final snapshot
// remains answerable by any handles already taken.
func (f *Follower) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(f.stop)
	f.interruptTail()
	f.wg.Wait()
	return f.local().Close()
}

// Status reports the follower's replication state.
func (f *Follower) Status() Status {
	st := Status{
		Epoch:       f.local().Epoch(),
		LeaderEpoch: f.leaderEpoch.Load(),
		Term:        f.local().Term(),
		LeaderTerm:  f.leaderTerm.Load(),
		CaughtUp:    f.caughtUp.Load(),
		Promoted:    f.promoted.Load(),
		Quarantines: f.quarantines.Load(),
		Reconnects:  f.reconnects.Load(),
		Resyncs:     f.resyncs.Load(),
	}
	if st.LeaderEpoch > st.Epoch {
		st.Lag = st.LeaderEpoch - st.Epoch
	}
	if e, ok := f.lastErr.Load().(string); ok {
		st.Err = e
	}
	return st
}

// WaitCaughtUp blocks until the follower has completed a tail round with
// nothing missing, or the timeout passes — in which case it returns a
// *LagError naming the remaining epoch delta and its byte estimate.
//
// It parks on the follower's wake-up, which the tail loop broadcasts when
// caughtUp turns true; Close releases it.
func (f *Follower) WaitCaughtUp(timeout time.Duration) error {
	if f.wake.Await(f.caughtUp.Load, timeout, f.stop) {
		return nil
	}
	st := f.Status()
	lag := &LagError{
		Wait:        timeout,
		Epoch:       st.Epoch,
		LeaderEpoch: st.LeaderEpoch,
		LagEpochs:   st.Lag,
		LastErr:     st.Err,
	}
	if frames := f.shippedFrames.Load(); frames > 0 {
		lag.LagBytes = st.Lag * (f.shippedBytes.Load() / frames)
	}
	return lag
}

// errStaleSource tags a replication source whose term is below the
// follower's: its WAL is frozen, safe history, but it can never carry the
// cluster forward — rotate to the next source.
var errStaleSource = errors.New("replica: source term is stale")

// tailLoop dials, tails, and recovers until Close (or stopTail, closed by
// Promote). Each connection runs tail rounds from the follower's own
// epoch; validation failures drop the connection (quarantine), repeated
// failure without progress triggers a full resync, ErrSnapshotNeeded
// re-bootstraps immediately, and connection or staleness failures rotate
// to the next source of the retry list.
func (f *Follower) tailLoop(tailStop chan struct{}) {
	stuck := 0
	lastEpoch := f.local().Epoch()
	for {
		if f.stopped(tailStop) {
			return
		}
		if err := f.tailConn(tailStop); err != nil {
			f.lastErr.Store(err.Error())
			// Only integrity failures count toward the resync trigger: a
			// flapping TCP connection or a briefly absent leader heals by
			// reconnecting, and wiping the directory for it would turn a
			// network blip into a full re-bootstrap.
			counts := true
			switch {
			case errors.Is(err, server.ErrSnapshotNeeded):
				stuck = resyncAfter // resync now
			case errors.Is(err, errQuarantine):
				f.quarantines.Add(1)
			default:
				f.reconnects.Add(1)
				f.nextLeader++ // rotate: dead or stale source
				counts = false
			}
			if e := f.local().Epoch(); e > lastEpoch {
				lastEpoch, stuck = e, 0
			} else if counts {
				stuck++
			}
			if stuck >= resyncAfter {
				if rerr := f.resync(); rerr != nil {
					f.lastErr.Store(rerr.Error())
					f.nextLeader++ // the source may be the problem
				} else {
					stuck = 0
					lastEpoch = f.local().Epoch()
				}
			}
		}
		select {
		case <-f.stop:
			return
		case <-tailStop:
			return
		case <-time.After(f.opts.ReconnectBackoff):
		}
	}
}

// source is the retry-list entry the tail goroutine is currently on.
func (f *Follower) source() string {
	return f.leaders[f.nextLeader%len(f.leaders)]
}

// errNothingShipped tags a round that reported an epoch the follower does
// not have and shipped nothing toward it. The source read its epoch before
// its log, so this is no race: the source's read position has lost track of
// its log (a rollback under it), or the log is damaged where the follower
// needs it. A fresh connection reads from the directory again.
var errNothingShipped = errors.New("replica: source shipped nothing of what it has published")

// tailConn runs tail rounds on one source connection until an error or
// stop; a nil return only happens at stop. A round is a long poll: the
// first one of a connection asks for an answer at once (it is how the
// follower learns where the source stands), every later one lets the source
// park it for tailHold, and the follower asks again the moment a round
// returns — the caught-up path has no timer. Every round carries the local
// store's term (so a deposed leader fences itself when asked) and adopts
// the source's term when it is newer; a source whose term is below ours is
// stale — return errStaleSource so the loop rotates. A source that lets a
// round's deadline pass is silent, and fails the round the same way.
func (f *Follower) tailConn(tailStop chan struct{}) error {
	cli, err := server.Dial(f.source())
	if err != nil {
		return err
	}
	defer cli.Close()
	if !f.holdTailConn(cli, tailStop) {
		return nil
	}
	cli.SetTerm(f.local().Term())
	hold := time.Duration(0)
	for {
		before, lineage := f.position()
		cli.SetTimeout(hold + tailMargin)
		rd := round{f: f}
		// Frames still buffered when the round ends had no effect: they are
		// dropped with rd, and the next round ships them again.
		leaderEpoch, err := cli.TailRound(before+1, lineage, hold, rd.frame, rd.effect)
		if f.stopped(tailStop) {
			return nil // also when the stop is what failed the round
		}
		if err != nil {
			return err
		}
		f.tailRounds.Add(1)
		hold = tailHold
		srcTerm := cli.LastTerm()
		f.noteLeaderTerm(srcTerm)
		local := f.local()
		prevTerm := local.Term()
		if srcTerm < prevTerm || cli.SourceFenced() {
			// Asking already fenced a deposed leader (the request carried our
			// term), so its term may now LOOK current — the fenced flag is the
			// durable signal that its history is frozen.
			return fmt.Errorf("%w: source %s at term %d (local %d, fenced=%v)", errStaleSource, f.source(), srcTerm, prevTerm, cli.SourceFenced())
		}
		after := f.local().Epoch()
		if srcTerm > prevTerm && after > leaderEpoch {
			// First contact with a new-term leader whose frontier is behind
			// ours: our WAL suffix was never acked on the new timeline and
			// would silently diverge if kept. Wipe and re-bootstrap.
			return fmt.Errorf("replica: local epoch %d extends past term-%d leader frontier %d: %w", after, srcTerm, leaderEpoch, server.ErrSnapshotNeeded)
		}
		if err := local.AdoptTerm(srcTerm); err != nil {
			return err
		}
		f.leaderEpoch.Store(leaderEpoch)
		if up := after >= leaderEpoch; f.caughtUp.Swap(up) != up && up {
			f.wake.Broadcast() // WaitCaughtUp parks on it
		}
		if after == before && leaderEpoch > after {
			return fmt.Errorf("%w: %s at epoch %d, asked from %d", errNothingShipped, f.source(), leaderEpoch, before+1)
		}
	}
}

// position is where the local store stands: its epoch and the lineage of
// its views.
func (f *Follower) position() (epoch, lineage uint64) {
	sn := f.local().Snapshot()
	return sn.Epoch, sn.Lineage
}

// round is the follower's side of one tail round: shipped frames wait here
// until the effect that covers them arrives, and go into the local store
// with it as one group.
type round struct {
	f       *Follower
	batches [][]graph.Update
	bytes   uint64 // of the frames buffered
}

// frame validates one shipped WAL frame end to end and buffers its batch:
// its seq must be the next after the local epoch and the frames already
// buffered. Frames at or below that are duplicates from segment re-reads
// and are skipped; anything else that does not line up is quarantined.
func (r *round) frame(claimed uint64, frame []byte) error {
	seq, payload, _, err := wal.ParseRecord(frame)
	if err != nil {
		return fmt.Errorf("%w: %v", errQuarantine, err)
	}
	if seq != claimed {
		return fmt.Errorf("%w: frame embeds seq %d, leader claims %d", errQuarantine, seq, claimed)
	}
	s := r.f.local()
	want := s.Epoch() + 1 + uint64(len(r.batches))
	if seq < want {
		return nil // duplicate of an already-applied epoch
	}
	if seq > want {
		return fmt.Errorf("%w: gap: got seq %d, want %d", errQuarantine, seq, want)
	}
	batch, err := store.DecodeBatch(payload, s.NumNodes())
	if err != nil {
		return fmt.Errorf("%w: %v", errQuarantine, err)
	}
	r.batches = append(r.batches, batch)
	r.bytes += uint64(len(frame))
	return nil
}

// effect applies the buffered frames together with the effect that covers
// them — patching, not maintaining — and publishes their last epoch. A
// rejected effect is a quarantine; a local write failure only reconnects.
func (r *round) effect(epoch uint64, b []byte) error {
	s := r.f.local()
	if last := s.Epoch() + uint64(len(r.batches)); epoch != last {
		return fmt.Errorf("%w: an effect through epoch %d after frames through %d", errQuarantine, epoch, last)
	}
	var start time.Time
	if r.f.ob != nil {
		start = time.Now()
	}
	_, image, err := s.ApplyEffect(r.batches, b)
	if errors.Is(err, store.ErrEffect) {
		return fmt.Errorf("%w: %v", errQuarantine, err)
	}
	if err != nil {
		return fmt.Errorf("replica: local apply: %w", err)
	}
	path := pathEffect
	if image {
		path = pathImage
		r.f.images.Add(1)
	} else {
		r.f.diffs.Add(1)
	}
	if r.f.ob != nil {
		r.f.ob.apply[path].Observe(time.Since(start))
	}
	r.f.wake.Broadcast()
	r.f.shipped.Add(r.bytes)
	r.f.shippedBytes.Add(r.bytes)
	r.f.shippedFrames.Add(uint64(len(r.batches)))
	r.batches, r.bytes = nil, 0
	return nil
}

// resync is the last-resort recovery: fetch a fresh snapshot, wipe the
// directory, install, and reopen — swapping the serving backend only once
// the new store is live. Reads keep answering on the old store's final
// snapshot throughout.
func (f *Follower) resync() error {
	f.resyncs.Add(1)
	epoch, data, err := f.fetchSnapshot(f.source())
	if err != nil {
		return fmt.Errorf("replica: resync: %w", err)
	}
	// The image is fully validated by InstallSnapshot before the old state
	// is touched beyond this point's directory wipe.
	f.local().Close() // final snapshot stays answerable
	if err := wipeDir(faultfs.Or(f.opts.FS), f.opts.Dir); err != nil {
		return err
	}
	if err := store.InstallSnapshot(f.opts.FS, f.opts.Dir, epoch, data); err != nil {
		return err
	}
	s, err := f.openLocal()
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.s = s
	f.mu.Unlock()
	f.wake.Broadcast() // reads held for an epoch now wait on the new store
	f.caughtUp.Store(false)
	return nil
}

// wipeDir removes every entry of dir through fsys, leaving the directory
// itself. A store directory is flat, so removing its files empties it.
func wipeDir(fsys faultfs.FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := fsys.Remove(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// Epoch implements server.Backend: the local published snapshot epoch.
func (f *Follower) Epoch() uint64 { return f.local().Epoch() }

// AwaitEpoch implements server.Backend: it parks until the local store —
// whichever one is serving by then, a resync may swap it under the wait —
// has published min, timeout passes, cancel is closed or the store is
// fenced, and returns the epoch then current.
func (f *Follower) AwaitEpoch(min uint64, timeout time.Duration, cancel <-chan struct{}) uint64 {
	return f.wake.AwaitEpoch(f, min, timeout, cancel)
}

// NumNodes implements server.Backend.
func (f *Follower) NumNodes() int { return f.local().NumNodes() }

// Reachable implements server.Backend on one pinned local snapshot.
func (f *Follower) Reachable(u, v graph.Node, onG bool) (bool, uint64) {
	return f.backend().Reachable(u, v, onG)
}

// BatchReachable implements server.Backend on one pinned local snapshot.
func (f *Follower) BatchReachable(us, vs []graph.Node) ([]bool, uint64) {
	return f.backend().BatchReachable(us, vs)
}

// Match implements server.Backend on one pinned local snapshot.
func (f *Follower) Match(p *pattern.Pattern) (*pattern.Result, uint64) {
	return f.backend().Match(p)
}

// Effects implements server.Backend: what a follower chained off this one
// is shipped beside the raw frames — the effects the local store applied or
// published itself, or an image of its views (store.Store.Effects).
func (f *Follower) Effects(lineage, epoch uint64) []store.Effect {
	return f.local().Effects(lineage, epoch)
}

// Promote turns this follower into the leader, implementing
// server.Promoter. When wait > 0 it first blocks until the tail has
// drained (surfacing a *LagError naming the remaining lag on timeout),
// then stops tailing, bumps and fsyncs the leader term past the highest
// term any source ever reported, builds the maintainers a follower fed
// effects goes without (from its G, once: promotion pays for maintenance,
// not the first write), and starts accepting Apply. The returned
// epoch is the follower's durable frontier: every batch the old leader
// acked at or below it survived the failover, and the new term fences the
// old leader on first contact. Idempotent — promoting a promoted follower
// reports its current frontier. On a term-bump failure (the one durable
// write promotion needs) the follower resumes tailing and stays a
// follower.
func (f *Follower) Promote(wait time.Duration) (epoch, term uint64, err error) {
	f.promoteMu.Lock()
	defer f.promoteMu.Unlock()
	if f.closed.Load() {
		return 0, 0, errors.New("replica: follower is closed")
	}
	if f.promoted.Load() {
		return f.local().Epoch(), f.local().Term(), nil
	}
	if wait > 0 {
		if err := f.WaitCaughtUp(wait); err != nil {
			return 0, 0, err
		}
	}
	// Stop shipping before bumping: once the term is durable this node may
	// accept writes, and a tail frame applied after that would collide with
	// the new timeline.
	f.stopTail()
	term, err = f.local().BumpTerm(f.leaderTerm.Load())
	if err != nil {
		f.startTail() // remain a follower; serving writes under an old term could diverge
		return 0, 0, fmt.Errorf("replica: promote term bump: %w", err)
	}
	f.promoted.Store(true)
	f.caughtUp.Store(true)
	f.wake.Broadcast()
	f.lastErr.Store("")
	return f.local().Epoch(), term, nil
}

// Apply implements server.Backend: it refuses writes until Promote, then
// delegates to the local store, whose write side Promote has built.
func (f *Follower) Apply(batch []graph.Update) (uint64, error) {
	if !f.promoted.Load() {
		return 0, server.ErrReadOnly
	}
	epoch, err := f.local().Apply(batch)
	f.wake.Broadcast()
	return epoch, err
}

// Term implements server.Backend: the local store's durable leader term.
func (f *Follower) Term() uint64 { return f.local().Term() }

// ObserveTerm implements server.Backend. An unpromoted follower ADOPTS a
// newer term (its leader's claim — fencing itself would make it unable to
// apply the very frames that term ships); a promoted follower acts as a
// leader and fences itself when superseded.
func (f *Follower) ObserveTerm(t uint64) error {
	if f.promoted.Load() {
		err := f.local().ObserveTerm(t)
		f.wake.Broadcast() // a fence releases whatever waits on epochs that will not come
		return err
	}
	return f.local().AdoptTerm(t)
}

// Fenced implements server.Backend: whether the local store has been fenced
// by a newer term; the tail handler ships it so chained followers rotate
// away.
func (f *Follower) Fenced() bool { return f.local().Fenced() }

// Writable implements server.Backend: only a promoted, unfenced follower
// accepts writes.
func (f *Follower) Writable() bool { return f.promoted.Load() && !f.local().Fenced() }

// Info implements server.Backend, reporting the local store's summary
// with the follower's own writability (the local store believes it is
// writable; an unpromoted follower is not).
func (f *Follower) Info() server.Info {
	in := f.backend().Info()
	in.Term = f.local().Term()
	in.Writable = f.Writable()
	return in
}
