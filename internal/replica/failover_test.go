package replica

// Failover tests: term-fenced promotion, follower chaining to a promoted
// sibling, stale-leader rejection, and the resync races the failover
// machinery leans on. The multi-process SIGKILL variants live in
// proc_test.go; these are the in-process matrix, where faultfs schedules
// can reach inside the follower's own durability.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/store"

	"math/rand"
)

// followerHarness is a follower fronted by its own serving endpoint with
// replication enabled, so siblings can chain off it and tests can promote
// it over the wire.
type followerHarness struct {
	f   *Follower
	srv *server.Server
	dir string
}

// startServedFollower boots a follower on sources and serves it (its own
// WAL is a valid shipping source for chaining).
func startServedFollower(t *testing.T, sources string, opts Options) *followerHarness {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	f := startFollower(t, sources, opts)
	srv, err := server.Start("127.0.0.1:0", server.Options{Backend: f, ReplDir: opts.Dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &followerHarness{f: f, srv: srv, dir: opts.Dir}
}

// awaitTerm waits for the follower to adopt a term (adoption lands at the
// end of the tail round that shipped the frames, so it can trail the epoch
// by one round).
func awaitTerm(t *testing.T, f *Follower, term uint64, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for f.Status().Term != term {
		if time.Now().After(deadline) {
			t.Fatalf("follower at term %d, want %d (%+v)", f.Status().Term, term, f.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPromoteFailoverMatrix is the in-process failover differential, on
// every matrix topology: a leader and two followers take a write stream;
// the leader's endpoint dies mid-stream; f1 is promoted over the wire; f2
// re-points to f1 through its retry list; writes continue against f1. The
// promoted cluster must answer exactly like an uninterrupted store on
// every acked epoch, and the old leader must be fenced on first contact —
// its post-fence writes rejected, never silently diverging.
func TestPromoteFailoverMatrix(t *testing.T) {
	for name, g := range matrixTopologies(51) {
		t.Run(name, func(t *testing.T) {
			lh := startLeader(t, g, nil)
			f1 := startServedFollower(t, lh.srv.Addr(), Options{})
			// f2's retry list names the sibling: that is the whole re-point
			// mechanism.
			f2 := startFollower(t, lh.srv.Addr()+","+f1.srv.Addr(), Options{})

			mirror := g.Clone()
			rng := rand.New(rand.NewSource(19))
			var token uint64
			for i := 0; i < 8; i++ {
				batch := gen.RandomBatch(rng, mirror, 12, 0.6)
				mirror.Apply(batch)
				epoch, err := lh.cli.Apply(batch)
				if err != nil {
					t.Fatalf("apply %d: %v", i, err)
				}
				token = epoch
			}
			awaitEpoch(t, f1.f, token, 10*time.Second)
			awaitEpoch(t, f2, token, 10*time.Second)

			// The leader's endpoint dies mid-deployment (its store survives —
			// the classic partitioned, not crashed, leader).
			lh.srv.Close()

			// Promote f1 over the wire, draining its (already drained) tail.
			pcli, err := server.Dial(f1.srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer pcli.Close()
			promoteStart := time.Now()
			frontier, term, err := pcli.Promote(5 * time.Second)
			if err != nil {
				t.Fatalf("promote: %v", err)
			}
			promoted := time.Since(promoteStart)
			if frontier < token {
				t.Fatalf("promotion frontier %d below acked token %d: acked batches lost", frontier, token)
			}
			if term == 0 {
				t.Fatal("promotion did not move the term")
			}
			if !f1.f.Writable() || f1.f.Term() != term {
				t.Fatalf("promoted follower: writable=%v term=%d, want writable at term %d", f1.f.Writable(), f1.f.Term(), term)
			}

			// Writes continue against the new leader; f2 must re-point and
			// follow them.
			var firstWrite time.Duration
			for i := 0; i < 6; i++ {
				batch := gen.RandomBatch(rng, mirror, 12, 0.6)
				mirror.Apply(batch)
				writeStart := time.Now()
				epoch, err := pcli.Apply(batch)
				if err != nil {
					t.Fatalf("post-promotion apply %d: %v", i, err)
				}
				if i == 0 {
					firstWrite = time.Since(writeStart)
				}
				token = epoch
			}
			// Promotion builds the maintainers the follower ran without; the
			// first write after it pays only its own batch.
			t.Logf("promote %v (maintainers and the first full view build), first write after it %v", promoted, firstWrite)
			awaitEpoch(t, f2, token, 15*time.Second)
			awaitTerm(t, f2, term, 10*time.Second)
			diffAgainstReference(t, name, mirror, map[string]server.Backend{
				"promoted": f1.f, "survivor": f2,
			})

			// The old leader resurfaces. First contact carrying the new term
			// fences it; every write after that is rejected.
			osrv, err := server.Start("127.0.0.1:0", server.Options{
				Backend: server.NewStoreBackend(lh.store), ReplDir: lh.dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer osrv.Close()
			ocli, err := server.Dial(osrv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer ocli.Close()
			ocli.SetTerm(term)
			if _, err := ocli.Apply([]graph.Update{graph.Insertion(0, 1)}); !errors.Is(err, server.ErrFenced) {
				t.Fatalf("stale leader accepted a term-%d write: %v", term, err)
			}
			if !lh.store.Fenced() {
				t.Fatal("old leader not fenced after contact with the new term")
			}
			if _, err := lh.store.ApplyBatch([]graph.Update{graph.Insertion(0, 1)}); !errors.Is(err, store.ErrFenced) {
				t.Fatalf("fenced old leader accepted a local write: %v", err)
			}
		})
	}
}

// TestSurvivorRotatesOffFencedSource pins the chaining rule the term
// compare alone cannot express: once a deposed leader is fenced, its term
// matches (or exceeds) the survivor's, so by the time the survivor could
// compare terms they look current — the fenced flag in MsgCaughtUp is what
// tells a frozen source from a live chained sibling. The old leader stays
// reachable throughout; only the flag can trigger the rotation.
func TestSurvivorRotatesOffFencedSource(t *testing.T) {
	g := matrixTopologies(52)["social"]
	lh := startLeader(t, g, nil)
	f1 := startServedFollower(t, lh.srv.Addr(), Options{})
	f2 := startFollower(t, lh.srv.Addr()+","+f1.srv.Addr(), Options{})

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(20))
	var token uint64
	for i := 0; i < 5; i++ {
		batch := gen.RandomBatch(rng, mirror, 12, 0.6)
		mirror.Apply(batch)
		epoch, err := lh.cli.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		token = epoch
	}
	awaitEpoch(t, f1.f, token, 10*time.Second)
	awaitEpoch(t, f2, token, 10*time.Second)

	// Promote f1 while the old leader keeps serving.
	frontier, term, err := f1.f.Promote(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if frontier != token {
		t.Fatalf("frontier %d, want %d", frontier, token)
	}
	// A term-carrying writer contacts the old leader — the moment the
	// cluster's new term reaches it, it fences. Its polls now answer
	// caught-up-with-fenced at a current-looking term.
	ocli, err := server.Dial(lh.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ocli.Close()
	ocli.SetTerm(term)
	if _, err := ocli.Apply([]graph.Update{graph.Insertion(0, 1)}); err == nil {
		t.Fatal("deposed leader accepted a new-term write")
	}
	if !lh.store.Fenced() {
		t.Fatal("old leader not fenced after contact with the new term")
	}
	// New writes land only on the promoted sibling.
	for i := 0; i < 5; i++ {
		batch := gen.RandomBatch(rng, mirror, 12, 0.6)
		mirror.Apply(batch)
		epoch, err := f1.f.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		token = epoch
	}
	// f2 must see the fenced flag on its next poll of the (still reachable,
	// still answering) old leader, rotate off it, adopt the new term from
	// the sibling, and converge on the sibling's writes.
	awaitEpoch(t, f2, token, 15*time.Second)
	awaitTerm(t, f2, term, 10*time.Second)
	if st := f2.Status(); st.Reconnects == 0 {
		t.Fatalf("survivor converged without rotating (%+v)", st)
	}
	diffAgainstReference(t, "rotate", mirror, map[string]server.Backend{"survivor": f2})
}

// TestPromoteUnderFaultSchedule drives promotion into a faultfs schedule
// that fails the TERM fsync: the one durable write promotion depends on.
// The failed promotion must leave the node a follower (still shipping,
// never writable under a term a crash would forget); once the schedule
// drains, promotion succeeds and the differential holds.
func TestPromoteUnderFaultSchedule(t *testing.T) {
	g := matrixTopologies(53)["citation"]
	lh := startLeader(t, g, nil)
	inject := faultfs.NewInject(nil,
		faultfs.Rule{Op: faultfs.OpSync, Path: "TERM", Count: 1},
	)
	f := startFollower(t, lh.srv.Addr(), Options{FS: inject})

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(21))
	var token uint64
	for i := 0; i < 5; i++ {
		batch := gen.RandomBatch(rng, mirror, 12, 0.6)
		mirror.Apply(batch)
		epoch, err := lh.cli.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		token = epoch
	}
	awaitEpoch(t, f, token, 10*time.Second)

	if _, _, err := f.Promote(time.Second); err == nil {
		t.Fatal("promotion succeeded through a failed TERM fsync")
	}
	if inject.Fired() == 0 {
		t.Fatal("fault schedule never fired; the test tested nothing")
	}
	if f.Writable() || f.promoted.Load() {
		t.Fatal("failed promotion left the node writable")
	}
	// Still a follower: new leader writes keep shipping.
	batch := gen.RandomBatch(rng, mirror, 12, 0.6)
	mirror.Apply(batch)
	epoch, err := lh.cli.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	awaitEpoch(t, f, epoch, 10*time.Second)

	// The schedule has drained; promotion now lands.
	frontier, term, err := f.Promote(5 * time.Second)
	if err != nil {
		t.Fatalf("second promotion: %v", err)
	}
	if frontier < epoch || term == 0 {
		t.Fatalf("promotion = (%d, %d), want frontier >= %d and a real term", frontier, term, epoch)
	}
	if _, err := f.Apply(gen.RandomBatch(rng, mirror.Clone(), 5, 0.6)); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	// Idempotent re-promotion reports the same leadership.
	fr2, t2, err := f.Promote(0)
	if err != nil || t2 != term || fr2 < frontier {
		t.Fatalf("re-promotion = (%d, %d, %v), want current leadership back", fr2, t2, err)
	}
}

// TestPromoteWaitReportsLag is satellite coverage for the structured lag
// error: a promotion that cannot drain its tail must name the current lag
// (epoch delta and byte estimate) instead of failing opaquely — locally as
// a *LagError, and over the promote RPC as text.
func TestPromoteWaitReportsLag(t *testing.T) {
	g := matrixTopologies(54)["er"]
	lh := startLeader(t, g, nil)
	fh := startServedFollower(t, lh.srv.Addr(), Options{})
	f := fh.f

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(22))
	var token uint64
	for i := 0; i < 4; i++ {
		batch := gen.RandomBatch(rng, mirror, 12, 0.6)
		mirror.Apply(batch)
		epoch, err := lh.cli.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		token = epoch
	}
	awaitEpoch(t, f, token, 10*time.Second)

	// Freeze replication where it stands and manufacture a known lag: the
	// leader is gone, the follower believes 7 epochs are outstanding.
	lh.srv.Close()
	f.stopTail()
	f.caughtUp.Store(false)
	f.leaderEpoch.Store(f.Epoch() + 7)

	err := f.WaitCaughtUp(10 * time.Millisecond)
	var lag *LagError
	if !errors.As(err, &lag) {
		t.Fatalf("WaitCaughtUp = %v, want *LagError", err)
	}
	if lag.LagEpochs != 7 || lag.Epoch != f.Epoch() || lag.LeaderEpoch != f.Epoch()+7 {
		t.Fatalf("lag = %+v, want 7 epochs behind", lag)
	}
	if lag.LagBytes == 0 {
		t.Fatalf("lag = %+v: shipped-frame mean lost, byte estimate is 0", lag)
	}
	if msg := lag.Error(); !strings.Contains(msg, "7 epochs behind") || !strings.Contains(msg, "bytes") {
		t.Fatalf("lag error %q does not name the lag", msg)
	}

	// The same failure over the wire: qpgc promote -wait surfaces the lag
	// text to the operator.
	pcli, err := server.Dial(fh.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pcli.Close()
	if _, _, err := pcli.Promote(10 * time.Millisecond); err == nil || !strings.Contains(err.Error(), "epochs behind") {
		t.Fatalf("promote on a lagging follower: %v, want the lag report", err)
	}
	if f.promoted.Load() {
		t.Fatal("failed drain still promoted")
	}
}

// TestResyncRacesCheckpoint is satellite (c): the leader truncates its WAL
// history between a follower's snapshot bootstrap and its first tail round
// — the shipped-from position is gone, and the follower must notice and
// re-bootstrap, not serve a gap.
func TestResyncRacesCheckpoint(t *testing.T) {
	g := matrixTopologies(55)["p2p"]
	lh := startLeader(t, g, nil)

	// Bootstrap the follower directory at the current checkpoint...
	dir := t.TempDir()
	epoch, data, err := lh.cli.FetchSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InstallSnapshot(nil, dir, epoch, data); err != nil {
		t.Fatal(err)
	}

	// ...then, before its first MsgTail, the leader advances and checkpoints
	// the history away.
	mirror := g.Clone()
	rng := rand.New(rand.NewSource(23))
	var token uint64
	for i := 0; i < 10; i++ {
		batch := gen.RandomBatch(rng, mirror, 15, 0.6)
		mirror.Apply(batch)
		e, err := lh.cli.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		token = e
	}
	if err := lh.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	f := startFollower(t, lh.srv.Addr(), Options{Dir: dir})
	awaitEpoch(t, f, token, 15*time.Second)
	if st := f.Status(); st.Resyncs == 0 {
		t.Fatalf("truncation between snapshot and first tail did not force a resync (%+v)", st)
	}
	diffAgainstReference(t, "race", mirror, map[string]server.Backend{"follower": f})
}

// TestCloseDuringResync is the other half of satellite (c): Close racing
// an in-flight wipe-and-re-bootstrap must neither hang nor corrupt the
// directory — whatever state the race leaves behind, a restart converges.
func TestCloseDuringResync(t *testing.T) {
	g := matrixTopologies(56)["social"]
	lh := startLeader(t, g, nil)

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(24))
	var token uint64
	apply := func(k int) {
		for i := 0; i < k; i++ {
			batch := gen.RandomBatch(rng, mirror, 15, 0.6)
			mirror.Apply(batch)
			e, err := lh.cli.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			token = e
		}
	}

	for round, nap := range []time.Duration{0, 500 * time.Microsecond, 2 * time.Millisecond, 8 * time.Millisecond} {
		// A follower bootstrapped at the current state, parked while the
		// leader truncates its runway: its first tail round needs a resync.
		dir := t.TempDir()
		epoch, data, err := lh.cli.FetchSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := store.InstallSnapshot(nil, dir, epoch, data); err != nil {
			t.Fatal(err)
		}
		apply(6)
		if err := lh.store.Checkpoint(); err != nil {
			t.Fatal(err)
		}

		f, err := Start(Options{
			Dir: dir, Leader: lh.srv.Addr(),
			ReconnectBackoff: time.Millisecond,
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(nap) // land Close at a different resync phase each round
			f.Close()
		}()
		wg.Wait()

		// Whatever the race left on disk, a fresh follower on the same
		// directory (re-bootstrapping if the wipe won) must converge exactly.
		f2 := startFollower(t, lh.srv.Addr(), Options{Dir: dir})
		awaitEpoch(t, f2, token, 15*time.Second)
		diffAgainstReference(t, "close-race", mirror, map[string]server.Backend{"follower": f2})
		f2.Close()
	}
}
