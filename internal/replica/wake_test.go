package replica

import (
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
)

// parkedLeader starts a leader whose registry says how many tail rounds are
// parked on it, and awaitParked blocks until n are.
func parkedLeader(t *testing.T, g *graph.Graph) (*leaderHarness, *obs.Registry) {
	reg := obs.NewRegistry()
	return startLeaderWith(t, g, nil, server.Options{Obs: reg}), reg
}

func awaitParked(t *testing.T, reg *obs.Registry, n string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(reg.PrometheusText(), "qpgc_server_tail_held "+n+"\n"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no %s tail rounds parked on the leader:\n%s", n, reg.PrometheusText())
		}
	}
}

// TestTailIsEventDriven counts requests, not milliseconds. A caught-up
// follower parks one round on an idle leader and asks nothing more (a poll
// timer would ask a dozen times in 300 ms); then each of twenty writes costs
// the leader one round, and a read on the follower's server pinned at the
// acked epoch sees the write — held until the shipped batch is published
// there, released by that publication.
func TestTailIsEventDriven(t *testing.T) {
	t.Parallel()
	g := matrixTopologies(41)["social"]
	lh, leaderReg := parkedLeader(t, g)
	reg := obs.NewRegistry()
	f := startFollower(t, lh.srv.Addr(), Options{Obs: reg})
	fcli := serveFollower(t, f)
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	awaitParked(t, leaderReg, "1")

	idle := lh.srv.Requests()
	time.Sleep(300 * time.Millisecond)
	if asked := lh.srv.Requests() - idle; asked > 2 {
		t.Fatalf("an idle, caught-up follower sent its leader %d requests in 300ms", asked)
	}

	rounds := f.tailRounds.Load()
	n := g.NumNodes()
	for i := 0; i < 20; i++ {
		u, v := graph.Node(i), graph.Node(n-1-i)
		epoch, err := lh.store.Apply([]graph.Update{graph.Insertion(u, v)})
		if err != nil {
			t.Fatal(err)
		}
		reach, at, err := fcli.Reachable(u, v, epoch, false)
		if err != nil || !reach || at < epoch {
			t.Fatalf("write %d: the follower's read pinned at epoch %d came back reach=%v at epoch %d, %v", i, epoch, reach, at, err)
		}
	}
	if asked := f.tailRounds.Load() - rounds; asked > 20+3 {
		t.Fatalf("20 writes took %d tail rounds", asked)
	}
	if st := f.Status(); st.Quarantines != 0 || st.Reconnects != 0 {
		t.Fatalf("a clean run saw %d quarantines, %d reconnects (%s)", st.Quarantines, st.Reconnects, st.Err)
	}
	if text := reg.PrometheusText(); !strings.Contains(text, "qpgc_replica_tail_rounds_total") {
		t.Fatalf("the follower's scrape lacks its round count:\n%s", text)
	}
}

// TestHeldReadFollowsResync parks a read on a follower's server for an epoch
// the follower has not published, and resyncs the follower to an image that
// has it: the read must come back, released by the install's publication.
func TestHeldReadFollowsResync(t *testing.T) {
	g := matrixTopologies(42)["er"]
	lh := startLeader(t, g, nil)
	f := startFollower(t, lh.srv.Addr(), Options{})
	fcli := serveFollower(t, f)
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	f.stopTail() // from here on the follower moves only when the test resyncs it

	u, v := graph.Node(0), graph.Node(g.NumNodes()-1)
	epoch, err := lh.store.Apply([]graph.Update{graph.Insertion(u, v)})
	if err != nil {
		t.Fatal(err)
	}
	if err := lh.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		reach bool
		epoch uint64
		err   error
	}
	got := make(chan answer, 1)
	go func() {
		reach, at, err := fcli.Reachable(u, v, epoch, false)
		got <- answer{reach, at, err}
	}()
	select {
	case a := <-got:
		t.Fatalf("a read pinned past the follower's epoch answered %+v", a)
	case <-time.After(30 * time.Millisecond):
	}
	f.resync()
	f.startTail()
	select {
	case a := <-got:
		if a.err != nil || !a.reach || a.epoch != epoch {
			t.Fatalf("the read held across the resync came back %+v, want the edge seen at epoch %d", a, epoch)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the read held across the resync is still waiting")
	}
}

// TestStopInterruptsParkedRound: a parked round returns through nothing but
// its connection, so Close and Promote must close that — not wait the hold
// out.
func TestStopInterruptsParkedRound(t *testing.T) {
	g := matrixTopologies(43)["er"]
	lh, reg := parkedLeader(t, g)
	closing := startFollower(t, lh.srv.Addr(), Options{})
	promoting := startFollower(t, lh.srv.Addr(), Options{})
	for _, f := range []*Follower{closing, promoting} {
		if err := f.WaitCaughtUp(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	awaitParked(t, reg, "2")
	start := time.Now()
	if err := closing.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Close waited %v on a parked round", d)
	}
	start = time.Now()
	if _, _, err := promoting.Promote(0); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Promote waited %v on a parked round", d)
	}
	if st := promoting.Status(); st.Err != "" || st.Reconnects != 0 {
		t.Fatalf("stopping the tail was counted as a failure: %+v", st)
	}
}

// TestSilentSourceRotates puts a source that accepts, reads and never
// answers — blackholed, or stopped with its kernel still answering
// keepalives — first in the retry list: the round's deadline must fail it
// and the follower rotate to the live leader behind it.
func TestSilentSourceRotates(t *testing.T) {
	t.Parallel()
	g := matrixTopologies(44)["er"]
	lh := startLeader(t, g, nil)
	mute, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	go func() {
		for {
			conn, err := mute.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	// The bootstrap round, too, gives the silent source tailMargin and then
	// asks the leader.
	f, err := Start(Options{Dir: t.TempDir(), Leader: mute.Addr().String() + "," + lh.srv.Addr(), ReconnectBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// A write the follower's tail must fetch. The first round of a
	// connection asks for no hold, so the silent source is given tailMargin
	// and no more.
	epoch, err := lh.store.Apply([]graph.Update{graph.Insertion(0, graph.Node(g.NumNodes()-1))})
	if err != nil {
		t.Fatal(err)
	}
	awaitEpoch(t, f, epoch, tailMargin+2*time.Second)
	if st := f.Status(); st.Reconnects < 1 {
		t.Fatalf("the follower reached the leader without leaving the silent source: %+v", st)
	}
}
