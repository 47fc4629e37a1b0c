package replica

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/server"
	"repro/internal/store"
)

// matrixTopologies mirrors the PR 6 differential matrix: one graph per
// generator family, sized for seconds-long runs.
func matrixTopologies(seed int64) map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return map[string]*graph.Graph{
		"social":   gen.Social(rng, 220, 900, 5),
		"web":      gen.Web(rng, 220, 800, 5),
		"citation": gen.Citation(rng, 200, 700, 5),
		"p2p":      gen.P2P(rng, 200, 600, 5),
		"er":       gen.ErdosRenyi(rng, 150, 500, 5),
	}
}

// testPattern builds a 2-node pattern over the generated label alphabet.
func testPattern() *pattern.Pattern {
	pt := pattern.New()
	a := pt.AddNode("L0")
	b := pt.AddNode("L1")
	pt.AddEdge(a, b, 2)
	return pt
}

// leaderHarness is one leader: a durable store, its serving endpoint, and
// the client the test writes through.
type leaderHarness struct {
	store *store.Store
	srv   *server.Server
	cli   *server.Client
	dir   string
}

// startLeader opens a durable leader on g and serves it (replication on).
// fsys is the filesystem the leader's store runs on (nil = disk).
func startLeader(t *testing.T, g *graph.Graph, fsys faultfs.FS) *leaderHarness {
	t.Helper()
	return startLeaderWith(t, g, fsys, server.Options{})
}

// startLeaderWith is startLeader with the server's options given (Backend
// and ReplDir are filled in).
func startLeaderWith(t *testing.T, g *graph.Graph, fsys faultfs.FS, opts server.Options) *leaderHarness {
	t.Helper()
	dir := t.TempDir()
	// Tiny segments rotate the leader's WAL often while it ships effects,
	// which come from its ring, not its WAL; SyncNone keeps the test fast
	// (process-kill durability is all these tests rely on).
	s, err := store.Open(g.Clone(), &store.Options{Dir: dir, FS: fsys, Sync: store.SyncNone, WALSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	opts.Backend, opts.ReplDir = server.NewStoreBackend(s), dir
	srv, err := server.Start("127.0.0.1:0", opts)
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	cli, err := server.Dial(srv.Addr())
	if err != nil {
		srv.Close()
		s.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		s.Close()
	})
	return &leaderHarness{store: s, srv: srv, cli: cli, dir: dir}
}

// startFollower boots a follower off the leader with fast test cadences.
func startFollower(t *testing.T, leaderAddr string, opts Options) *Follower {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	opts.Leader = leaderAddr
	if opts.ReconnectBackoff == 0 {
		opts.ReconnectBackoff = 5 * time.Millisecond
	}
	f, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// serveFollower fronts f with its own Server and returns a client to it.
func serveFollower(t *testing.T, f *Follower) *server.Client {
	t.Helper()
	srv, err := server.Start("127.0.0.1:0", server.Options{Backend: f})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// awaitEpoch polls until the follower publishes at least epoch e.
func awaitEpoch(t *testing.T, f *Follower, e uint64, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for f.Epoch() < e {
		if time.Now().After(deadline) {
			st := f.Status()
			t.Fatalf("follower stuck at epoch %d waiting for %d (leader %d, q=%d r=%d rs=%d, err %q)",
				st.Epoch, e, st.LeaderEpoch, st.Quarantines, st.Reconnects, st.Resyncs, st.Err)
		}
		time.Sleep(time.Millisecond)
	}
}

// diffAgainstReference pins every endpoint's answers to a fresh
// uninterrupted store built on the mirror graph.
func diffAgainstReference(t *testing.T, name string, mirror *graph.Graph, endpoints map[string]server.Backend) {
	t.Helper()
	ref, err := store.Open(mirror.Clone(), &store.Options{Indexes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	n := mirror.NumNodes()
	rng := rand.New(rand.NewSource(99))
	refMatch := ref.Match(testPattern())
	for label, ep := range endpoints {
		for i := 0; i < 300; i++ {
			u := graph.Node(rng.Intn(n))
			v := graph.Node(rng.Intn(n))
			got, _ := ep.Reachable(u, v, false)
			if want := ref.Reachable(u, v); got != want {
				t.Fatalf("%s/%s: QR(%d,%d) = %v, reference %v", name, label, u, v, got, want)
			}
		}
		got, _ := ep.Match(testPattern())
		if got.OK != refMatch.OK || len(got.Sets) != len(refMatch.Sets) {
			t.Fatalf("%s/%s: match shape diverged", name, label)
		}
		for i := range got.Sets {
			if len(got.Sets[i]) != len(refMatch.Sets[i]) {
				t.Fatalf("%s/%s: match set %d sized %d, reference %d", name, label, i, len(got.Sets[i]), len(refMatch.Sets[i]))
			}
			for j := range got.Sets[i] {
				if got.Sets[i][j] != refMatch.Sets[i][j] {
					t.Fatalf("%s/%s: match set %d diverges", name, label, i)
				}
			}
		}
	}
}

// TestFollowerCatchUpMatrix is the in-process differential: on every
// matrix topology, a leader plus two followers driven by a mixed write
// stream must answer exactly like a single uninterrupted store, with
// read-your-writes epochs intact at every step.
func TestFollowerCatchUpMatrix(t *testing.T) {
	for name, g := range matrixTopologies(31) {
		t.Run(name, func(t *testing.T) {
			lh := startLeader(t, g, nil)
			f1 := startFollower(t, lh.srv.Addr(), Options{})
			f2 := startFollower(t, lh.srv.Addr(), Options{})

			mirror := g.Clone()
			rng := rand.New(rand.NewSource(7))
			var token uint64
			for i := 0; i < 12; i++ {
				batch := gen.RandomBatch(rng, mirror, 12, 0.6)
				mirror.Apply(batch)
				epoch, err := lh.cli.Apply(batch)
				if err != nil {
					t.Fatalf("apply %d: %v", i, err)
				}
				token = epoch
				if i%4 == 3 {
					// Mid-stream: both followers reach this epoch and agree
					// with an uninterrupted reference of the same prefix.
					awaitEpoch(t, f1, token, 10*time.Second)
					awaitEpoch(t, f2, token, 10*time.Second)
					diffAgainstReference(t, name, mirror, map[string]server.Backend{
						"leader": server.NewStoreBackend(lh.store), "f1": f1, "f2": f2,
					})
				}
			}
			awaitEpoch(t, f1, token, 10*time.Second)
			awaitEpoch(t, f2, token, 10*time.Second)
			for _, f := range []*Follower{f1, f2} {
				st := f.Status()
				if st.Quarantines != 0 || st.Resyncs != 0 {
					t.Fatalf("%s: clean run saw %d quarantines, %d resyncs", name, st.Quarantines, st.Resyncs)
				}
			}
		})
	}
}

// TestFollowerServesOverWire fronts a follower with its own Server and
// checks reads work, writes are refused, and the leader's RYW token holds
// on the follower once it has caught up.
func TestFollowerServesOverWire(t *testing.T) {
	g := matrixTopologies(32)["social"]
	lh := startLeader(t, g, nil)
	f := startFollower(t, lh.srv.Addr(), Options{})

	fcli := serveFollower(t, f)

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(8))
	batch := gen.RandomBatch(rng, mirror, 20, 0.5)
	mirror.Apply(batch)
	token, err := lh.cli.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	// Read-your-writes across endpoints: the follower holds the read until
	// it has replicated up to the token, then answers exactly.
	got, epoch, err := fcli.Reachable(1, 2, token, false)
	if err != nil {
		t.Fatalf("follower read at leader token: %v", err)
	}
	if epoch < token {
		t.Fatalf("follower served epoch %d below token %d", epoch, token)
	}
	if want := lh.store.Reachable(1, 2); got != want {
		t.Fatalf("follower answered %v, leader %v", got, want)
	}
	if _, err := fcli.Apply(batch); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("write on follower: %v, want read-only refusal", err)
	}
	in, err := fcli.Stats()
	if err != nil || in.Writable || in.Nodes != g.NumNodes() {
		t.Fatalf("follower stats: %+v, %v", in, err)
	}
}

// TestWirePointReadsRunOnTheCaller pins the read-side contract of the wire:
// a point read served by a leader's or a follower's endpoint is the store's
// own Reachable on the connection's goroutine — it makes no scheduler wave
// on either store and answers as the method call does — while a batch wider
// than one wave still goes through the scheduler.
func TestWirePointReadsRunOnTheCaller(t *testing.T) {
	g := matrixTopologies(35)["social"]
	lh := startLeader(t, g, nil)
	f := startFollower(t, lh.srv.Addr(), Options{})
	fcli := serveFollower(t, f)

	n := g.NumNodes()
	rng := rand.New(rand.NewSource(9))
	endpoints := map[string]*server.Client{"leader": lh.cli, "follower": fcli}
	for i := 0; i < 300; i++ {
		u, v := graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))
		want := lh.store.Reachable(u, v)
		for name, cli := range endpoints {
			got, _, err := cli.Reachable(u, v, 0, false)
			if err != nil {
				t.Fatalf("%s: QR(%d,%d): %v", name, u, v, err)
			}
			if got != want {
				t.Fatalf("%s: QR(%d,%d)=%v, Store.Reachable says %v", name, u, v, got, want)
			}
		}
	}
	if st := lh.store.SchedStats(); st.Waves != 0 {
		t.Fatalf("leader: 300 wire point reads made %d scheduler waves, want 0", st.Waves)
	}
	if st := f.local().SchedStats(); st.Waves != 0 {
		t.Fatalf("follower: 300 wire point reads made %d scheduler waves, want 0", st.Waves)
	}

	us := make([]graph.Node, 1024)
	vs := make([]graph.Node, 1024)
	for i := range us {
		us[i], vs[i] = graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))
	}
	lh.store.BatchReachable(us, vs)
	if st := lh.store.SchedStats(); st.Waves == 0 {
		t.Fatal("a 1024-pair BatchReachable made no scheduler wave")
	}
}

// TestChaosTruncatedShipment cuts the first shipped diffs mid-frame on the
// wire: each round it cuts fails, the follower reconnects, and once the
// cuts are spent it converges exactly.
func TestChaosTruncatedShipment(t *testing.T) {
	g := matrixTopologies(34)["p2p"]
	lh := startLeader(t, g, nil)
	proxy := startEffectProxy(t, lh.srv.Addr(), proxyPlan{cut: 4})
	f := startFollower(t, proxy.ln.Addr().String(), Options{})

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(10))
	var token uint64
	for i := 0; i < 8; i++ {
		batch := gen.RandomBatch(rng, mirror, 15, 0.6)
		mirror.Apply(batch)
		epoch, err := lh.cli.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		token = epoch
	}
	awaitEpoch(t, f, token, 15*time.Second)
	if proxy.cuts.Load() == 0 {
		t.Fatal("no diff was cut")
	}
	diffAgainstReference(t, "shorted", mirror, map[string]server.Backend{"follower": f})
}

// chaosProxy forwards TCP to target but kills each accepted connection
// after limit bytes of server->client traffic: dropped connections
// mid-segment, deterministically.
type chaosProxy struct {
	ln     net.Listener
	target string
	limit  int64
	drops  atomic.Int64
	wg     sync.WaitGroup
	closed atomic.Bool
}

func startChaosProxy(t *testing.T, target string, limit int64) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, target: target, limit: limit}
	p.wg.Add(1)
	go p.accept()
	t.Cleanup(p.Close)
	return p
}

func (p *chaosProxy) Addr() string { return p.ln.Addr().String() }

func (p *chaosProxy) Close() {
	if p.closed.CompareAndSwap(false, true) {
		p.ln.Close()
		p.wg.Wait()
	}
}

func (p *chaosProxy) accept() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer conn.Close()
			up, err := net.Dial("tcp", p.target)
			if err != nil {
				return
			}
			defer up.Close()
			done := make(chan struct{}, 2)
			go func() { io.Copy(up, conn); done <- struct{}{} }()
			go func() {
				// Server->client leg: cut after limit bytes.
				if _, err := io.CopyN(conn, up, p.limit); err == nil {
					p.drops.Add(1)
				}
				done <- struct{}{}
			}()
			<-done
		}()
	}
}

// TestChaosDroppedConnections tails the leader through a proxy that kills
// every connection after 16 KiB: the follower must reconnect its way to
// full catch-up with no resync needed and no wrong answers. The window holds
// one group and its effect, so a round cut short loses only frames no effect
// covered yet, which the next round ships again — and no maintainer runs.
// (A window that cannot carry one group and its effect never catches up;
// an image, which holds G, cannot cross this one either.)
func TestChaosDroppedConnections(t *testing.T) {
	g := matrixTopologies(35)["web"]
	lh := startLeader(t, g, nil)
	// The proxy is first in the retry list and the leader second. The
	// bootstrap image (≈ 2 KB) and the tail rounds go through the proxy,
	// and twenty writes carry a connection past its window.
	proxy := startChaosProxy(t, lh.srv.Addr(), 16<<10)
	reg := obs.NewRegistry()
	f := startFollower(t, proxy.Addr()+","+lh.srv.Addr(), Options{Obs: reg})

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(11))
	var token uint64
	for i := 0; i < 20; i++ {
		batch := gen.RandomBatch(rng, mirror, 15, 0.6)
		mirror.Apply(batch)
		epoch, err := lh.cli.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		token = epoch
	}
	awaitEpoch(t, f, token, 20*time.Second)
	if proxy.drops.Load() == 0 {
		t.Fatal("proxy never dropped a connection; the chaos test tested nothing")
	}
	st := f.Status()
	if st.Resyncs != 0 {
		t.Fatalf("connection drops alone forced %d full resyncs", st.Resyncs)
	}
	t.Logf("%d connections dropped, %d reconnects, %d images, %d diffs", proxy.drops.Load(), st.Reconnects, f.images.Load(), f.diffs.Load())
	for _, stage := range []string{"scc", "reach", "pattern"} {
		if n := reg.Histogram(obs.Label("qpgc_store_apply_seconds", "stage", stage)).Snapshot().Count; n != 0 {
			t.Fatalf("the follower's %s maintainer ran %d times", stage, n)
		}
	}
	diffAgainstReference(t, "drops", mirror, map[string]server.Backend{"follower": f})
}

// TestRestartPreservesRYW closes a follower mid-stream and reopens the
// same directory: the recovered epoch must not be below anything it
// served before — read-your-writes tokens never move backward.
func TestRestartPreservesRYW(t *testing.T) {
	g := matrixTopologies(36)["social"]
	lh := startLeader(t, g, nil)
	dir := t.TempDir()
	f := startFollower(t, lh.srv.Addr(), Options{Dir: dir})

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 6; i++ {
		batch := gen.RandomBatch(rng, mirror, 12, 0.6)
		mirror.Apply(batch)
		if _, err := lh.cli.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	awaitEpoch(t, f, 3, 10*time.Second)
	served := f.Epoch() // an epoch the follower has answered reads at
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2 := startFollower(t, lh.srv.Addr(), Options{Dir: dir})
	if got := f2.Epoch(); got < served {
		t.Fatalf("restarted follower at epoch %d, below previously served %d", got, served)
	}
	awaitEpoch(t, f2, 6, 10*time.Second)
	diffAgainstReference(t, "restart", mirror, map[string]server.Backend{"follower": f2})
	if st := f2.Status(); st.Resyncs != 0 {
		t.Fatalf("clean restart forced %d resyncs", st.Resyncs)
	}
}

// TestResyncAfterTruncation parks a follower, lets the leader checkpoint
// its WAL history away, and checks the follower takes one image in place —
// no request of its own, no wipe — instead of serving stale or wrong
// answers.
func TestResyncAfterTruncation(t *testing.T) {
	g := matrixTopologies(37)["er"]
	lh := startLeader(t, g, nil)
	dir := t.TempDir()
	f := startFollower(t, lh.srv.Addr(), Options{Dir: dir})
	awaitEpoch(t, f, 0, 5*time.Second)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// While the follower is down: many batches, then a checkpoint that
	// truncates the history the follower would need.
	mirror := g.Clone()
	rng := rand.New(rand.NewSource(13))
	var token uint64
	for i := 0; i < 10; i++ {
		batch := gen.RandomBatch(rng, mirror, 15, 0.6)
		mirror.Apply(batch)
		epoch, err := lh.cli.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		token = epoch
	}
	if err := lh.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	f2 := startFollower(t, lh.srv.Addr(), Options{Dir: dir})
	awaitEpoch(t, f2, token, 15*time.Second)
	// Caught up, and not only at the epoch: the image is published before
	// the round that shipped it counts it.
	if err := f2.WaitCaughtUp(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := f2.Status(); st.Resyncs != 0 || f2.images.Load() != 1 {
		t.Fatalf("truncated history took %d images and %d resyncs, want one image and none (status %+v)", f2.images.Load(), st.Resyncs, st)
	}
	diffAgainstReference(t, "resync", mirror, map[string]server.Backend{"follower": f2})
}

// TestBootstrapValidatesImage feeds a follower a corrupted image and
// checks the empty-directory install rejects it before any state lands on
// disk.
func TestBootstrapValidatesImage(t *testing.T) {
	g := matrixTopologies(38)["er"]
	lh := startLeader(t, g, nil)
	data := slices.Clone(lh.store.Effects(0, 0)[0].Bytes)
	data[len(data)/2] ^= 0x40
	dir := t.TempDir()
	if s, err := store.OpenImage(data, &store.Options{Dir: dir}); err == nil {
		s.Close()
		t.Fatal("corrupted snapshot image installed without error")
	}
	if store.HasState(nil, dir) {
		t.Fatal("rejected install left durable state behind")
	}
}

// TestBootstrapInstallsThroughFS: the bootstrap install writes through the
// follower's Options.FS like the rest of its durable state, so a fault there
// fails Start and leaves nothing that looks recoverable.
func TestBootstrapInstallsThroughFS(t *testing.T) {
	g := matrixTopologies(39)["er"]
	lh := startLeader(t, g, nil)
	in := faultfs.NewInject(nil, faultfs.Rule{Op: faultfs.OpSync, Path: "snap-", Count: 1})
	dir := t.TempDir()
	f, err := Start(Options{Dir: dir, Leader: lh.srv.Addr(), FS: in})
	if err == nil {
		f.Close()
		t.Fatal("a follower whose snapshot fsync failed started")
	}
	if !errors.Is(err, faultfs.ErrInjected) || in.Fired() != 1 {
		t.Fatalf("Start = %v after %d injected fault(s), want the injected fsync failure", err, in.Fired())
	}
	if store.HasState(nil, dir) {
		t.Fatal("a failed install left the directory looking recoverable")
	}
}
