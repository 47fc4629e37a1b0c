// Package replica turns a durable store directory into a read replica: it
// tails a source's effect ring — one long-polled round after another, each
// answered when the source publishes an epoch. Each group arrives as one
// diff: the group's raw batches and what they did to the source's views
// (store/effect.go). The follower appends the batches to its own WAL,
// patches its G from them and its views from the rest, and publishes — it
// runs no maintainer and holds none until Promote builds them. A round that
// cannot chain the follower's views brings one image of the source's
// snapshot instead, G included, installed in place (store/install.go). So a
// follower keeps one store for its whole life and has two transitions, a
// diff and an image, both through store.Store.ApplyEffect; one in an empty
// directory starts from an image through the same install.
//
// The design leans entirely on one invariant the storage layer already
// guarantees: a WAL record's sequence number IS the batch's epoch. A
// follower's catch-up position is therefore just its own store epoch; its
// staleness is the leader epoch minus that; and the read-your-writes token
// a leader hands out on Apply is directly comparable to any follower's
// published snapshot. Applying a diff through the follower's own durable
// store logs its batches in the follower's WAL before the group publishes,
// so a SIGKILLed follower recovers to an epoch it already served — RYW
// tokens never move backward across a crash.
//
// Shipped bytes are untrusted. An effect must pass its CRC and decode, a
// diff must chain from the follower's own views — its base the follower's
// epoch, one batch per epoch after it — and agree with its patched G
// (store.Store.ApplyEffect checks); a round must bring nothing but
// effects. Any violation is a quarantine event: the connection is dropped
// and catch-up restarts from the follower's own epoch — wrong answers are
// never served. A follower that cannot make progress resyncs: its next
// round asks for an image, and the old snapshot serves reads until the
// image's is published. A source of an older version, which ships raw WAL
// frames beside its diffs, is such a case: its follower gets images only.
package replica

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// Options configures a Follower.
type Options struct {
	// Dir is the follower's own durable directory. Required.
	Dir string
	// Leader is the leader's replication address, or a comma-separated
	// retry list of sources. Required. A follower rotates through the list
	// on connection failure or when a source turns out to be stale (its
	// term is below the follower's), which is how a survivor re-points to a
	// promoted sibling after failover — any follower is a valid source, as
	// it keeps the effects it applies in a ring of its own.
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
	// Quarantines counts rejected shipments (a CRC, decode or apply
	// violation, or a frame a round does not carry); Reconnects counts
	// dropped leader connections;
	// Resyncs counts the follower's requests for an image (an image a
	// source sends unasked is not one).
	Quarantines, Reconnects, Resyncs uint64
	// Err is the most recent replication error, "" when none.
	Err string
}

// LagError is the structured failure WaitCaughtUp returns on timeout: how
// far behind the follower is, in epochs and (estimated from the diff bytes
// shipped per epoch) bytes.
type LagError struct {
	// Wait is the timeout that expired.
	Wait time.Duration
	// Epoch and LeaderEpoch are the follower's and leader's positions;
	// LagEpochs their difference.
	Epoch, LeaderEpoch, LagEpochs uint64
	// LagBytes estimates the outstanding diff bytes from the mean diff
	// bytes per epoch applied so far (0 when no diff has been applied yet).
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

	s *store.Store // the local store, for the follower's whole life
	// backend is s as the server reads it: the follower serves its reads,
	// epoch waits, terms, fence and effects (to followers chained off it)
	// as they are. Apply, ObserveTerm and Info are the follower's own.
	backend
	// wake is broadcast when caughtUp turns true; WaitCaughtUp parks on it.
	// Epoch waits park on the store itself.
	wake store.Wake
	// wantImage makes the next tail round ask for an image (resync).
	wantImage atomic.Bool

	leaderEpoch atomic.Uint64
	leaderTerm  atomic.Uint64 // highest term any source reported
	caughtUp    atomic.Bool
	promoted    atomic.Bool
	quarantines atomic.Uint64
	reconnects  atomic.Uint64
	resyncs     atomic.Uint64
	lastErr     atomic.Value  // string
	tailRounds  atomic.Uint64 // MsgTail rounds completed
	// diffs and images count the shipped effects applied, by kind; ob times
	// every apply by path (nil without Obs: then no clock is read).
	diffs, images atomic.Uint64
	ob            *followerObs

	// shippedBytes/shippedEpochs count the bytes and epochs of the diffs
	// applied: qpgc_replica_shipped_bytes_total, and the diff bytes per
	// epoch LagError.LagBytes estimates from.
	shippedBytes  atomic.Uint64
	shippedEpochs atomic.Uint64

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
	// resyncAfter is how many consecutive quarantine events without epoch
	// progress make the follower ask for an image.
	resyncAfter = 5
)

// backend is server.Backend under the unexported name Follower embeds it by.
type backend = server.Backend

// errQuarantine tags shipment validation failures: the shipment is
// rejected, the connection dropped, and catch-up restarts — as opposed to
// plain IO errors, which only reconnect.
var errQuarantine = errors.New("replica: shipment rejected")

// Start opens the local store, then begins tailing the leader in the
// background. A dir that already holds state — a restarted follower —
// catches up from its own recovered epoch; one that holds none starts from
// an image (openLocal).
func Start(opts Options) (*Follower, error) {
	leaders := leaderList(opts)
	if opts.Dir == "" || len(leaders) == 0 {
		return nil, errors.New("replica: Dir and Leader are required")
	}
	if opts.ReconnectBackoff == 0 {
		opts.ReconnectBackoff = 100 * time.Millisecond
	}
	f := &Follower{opts: opts, leaders: leaders, stop: make(chan struct{})}
	s, err := f.openLocal()
	if err != nil {
		return nil, err
	}
	f.s, f.backend = s, server.NewStoreBackend(s)
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
// callbacks over the atomics Status already reads, and the apply histograms
// a round feeds. The local store registered its own
// families when openLocal passed Obs through. No-op on a nil registry.
func (f *Follower) bindObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("qpgc_replica_shipped_bytes_total", f.shippedBytes.Load)
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

// noteLeaderTerm folds a source-reported term into the tracked maximum.
func (f *Follower) noteLeaderTerm(t uint64) {
	for {
		cur := f.leaderTerm.Load()
		if t <= cur || f.leaderTerm.CompareAndSwap(cur, t) {
			return
		}
	}
}

// openLocal opens the follower's store: the directory's own state, or — in
// a directory that holds none — the image one tail round from 1 with
// lineage 0 brings, asked of each source in turn (store.OpenImage). The
// store then adopts the highest term any source reported, so a follower
// whose directory holds no TERM file joins the cluster at its current term,
// not 0.
func (f *Follower) openLocal() (*store.Store, error) {
	o := store.DefaultOptions()
	o.Dir, o.FS, o.Sync, o.Obs = f.opts.Dir, f.opts.FS, store.SyncNone, f.opts.Obs
	var s *store.Store
	var err error
	if store.HasState(f.opts.FS, f.opts.Dir) {
		s, err = store.Open(nil, &o)
	} else {
		for _, addr := range f.leaders {
			var img []byte
			if img, err = f.image(addr); err == nil {
				if s, err = store.OpenImage(img, &o); err == nil {
					f.images.Add(1)
					break
				}
			}
		}
	}
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

// image asks addr for an image in one tail round and folds the term the
// source reported into the tracked maximum.
func (f *Follower) image(addr string) ([]byte, error) {
	cli, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	cli.SetTimeout(tailMargin)
	var img []byte
	_, err = cli.TailRound(1, 0, 0, func(_ uint64, b []byte) error {
		img = bytes.Clone(b) // b aliases the connection's read buffer
		return nil
	})
	f.noteLeaderTerm(cli.LastTerm())
	if err == nil && img == nil {
		err = errors.New("the round brought no image")
	}
	if err != nil {
		return nil, fmt.Errorf("replica: image from %s: %w", addr, err)
	}
	return img, nil
}

// local returns the local store.
func (f *Follower) local() *store.Store { return f.s }

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
	if epochs := f.shippedEpochs.Load(); epochs > 0 {
		lag.LagBytes = st.Lag * (f.shippedBytes.Load() / epochs)
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
// failure without progress makes the next round ask for an image (resync),
// and connection or staleness failures rotate to the next source of the
// retry list.
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
			// reconnecting, and an image for it would turn a network blip
			// into a full-state transfer.
			counts := errors.Is(err, errQuarantine)
			if counts {
				f.quarantines.Add(1)
			} else {
				f.reconnects.Add(1)
				f.nextLeader++ // rotate: dead or stale source
			}
			if e := f.local().Epoch(); e > lastEpoch {
				lastEpoch, stuck = e, 0
			} else if counts {
				stuck++
			}
			if stuck >= resyncAfter {
				f.resync()
				stuck, lastEpoch = 0, f.local().Epoch()
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
// not have and shipped nothing toward it. The source reads its epoch before
// its effect ring, which ships a diff or an image toward any epoch it
// reports, so this is no race but a faulty source; the follower reconnects.
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
		sn := f.local().Snapshot()
		before, from, lineage := sn.Epoch, sn.Epoch+1, sn.Lineage
		if f.wantImage.Load() {
			// Lineage 0 chains nothing: the source answers with an image at
			// once, however far ahead of it this follower is.
			from, lineage, hold = 1, 0, 0
		}
		cli.SetTimeout(hold + tailMargin)
		rd := round{f: f}
		leaderEpoch, err := cli.TailRound(from, lineage, hold, rd.effect)
		if f.stopped(tailStop) {
			return nil // also when the stop is what failed the round
		}
		if errors.Is(err, server.ErrUnexpectedFrame) {
			return fmt.Errorf("%w: %v", errQuarantine, err)
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
		if srcTerm > prevTerm && after > leaderEpoch && !rd.image {
			// First contact with a new-term leader whose frontier is behind
			// ours: our WAL suffix was never acked on the new timeline and
			// would silently diverge if kept. The next round asks for an
			// image, and the term is adopted once it is in.
			f.lastErr.Store(fmt.Sprintf("replica: local epoch %d extends past term-%d leader frontier %d", after, srcTerm, leaderEpoch))
			f.resync()
			continue
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

// round is the follower's side of one tail round.
type round struct {
	f     *Follower
	image bool // an image was installed: the local state is the source's
}

// effect applies one shipped effect — a diff, patching rather than
// maintaining, or an image — and publishes its last epoch. A rejected
// effect is a quarantine; a local write failure only reconnects.
func (r *round) effect(_ uint64, b []byte) error {
	var start time.Time
	if r.f.ob != nil {
		start = time.Now()
	}
	before := r.f.local().Epoch()
	epoch, image, err := r.f.local().ApplyEffect(b)
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
		r.f.wantImage.Store(false)
		r.image = true
	} else {
		r.f.diffs.Add(1)
		r.f.shippedBytes.Add(uint64(len(b)))
		r.f.shippedEpochs.Add(epoch - before)
	}
	if r.f.ob != nil {
		r.f.ob.apply[path].Observe(time.Since(start))
	}
	return nil
}

// resync makes the next tail round ask for an image, which replaces the
// local state in place (store/install.go): the last resort of a follower
// that cannot make progress, or that is ahead of a new leader.
func (f *Follower) resync() {
	f.resyncs.Add(1)
	f.wantImage.Store(true)
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
	return f.local().Apply(batch)
}

// ObserveTerm implements server.Backend. An unpromoted follower ADOPTS a
// newer term (its leader's claim — fencing itself would make it unable to
// apply the very frames that term ships); a promoted follower acts as a
// leader and fences itself when superseded.
func (f *Follower) ObserveTerm(t uint64) error {
	if f.promoted.Load() {
		return f.local().ObserveTerm(t)
	}
	return f.local().AdoptTerm(t)
}

// Writable implements server.Backend: only a promoted, unfenced follower
// accepts writes.
func (f *Follower) Writable() bool { return f.promoted.Load() && !f.local().Fenced() }

// Info implements server.Backend, reporting the local store's summary
// with the follower's own writability (the local store believes it is
// writable; an unpromoted follower is not).
func (f *Follower) Info() server.Info {
	in := f.backend.Info()
	in.Term = f.local().Term()
	in.Writable = f.Writable()
	return in
}
