package replica

import (
	"bufio"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/server"
	"repro/internal/store"
)

// TestFollowerRunsNoMaintainer counts what a follower does to keep up over
// fifty writes on a graph large enough that the leader's pattern view never
// falls back to a full build: its maintainers record no observation — the
// condensation, incRCM and incPCM never run — its one tail connection is
// sent one image, and everything after that comes as diffs.
func TestFollowerRunsNoMaintainer(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(61)), 2000, 8000, 5)
	lh := startLeader(t, g, nil)
	reg := obs.NewRegistry()
	f := startFollower(t, lh.srv.Addr(), Options{Obs: reg})
	fcli := serveFollower(t, f)

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(62))
	const writes = 50
	for i := 0; i < writes; i++ {
		batch := gen.RandomBatch(rng, mirror, 10, 0.6)
		mirror.Apply(batch)
		epoch, err := lh.cli.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		// A read at the leader's token on the follower's server: held until
		// the follower publishes the write, answered at the epoch it stamps.
		if _, at, err := fcli.Reachable(0, 1, epoch, false); err != nil || at < epoch {
			t.Fatalf("write %d: read at token %d answered at %d, %v", i, epoch, at, err)
		}
	}
	diffAgainstReference(t, "effects", mirror, map[string]server.Backend{"follower": f})

	count := func(name string) uint64 { return reg.Histogram(name).Snapshot().Count }
	for _, stage := range []string{"scc", "reach", "pattern"} {
		if n := count(obs.Label("qpgc_store_apply_seconds", "stage", stage)); n != 0 {
			t.Fatalf("the follower's %s maintainer ran %d times", stage, n)
		}
	}
	st := f.Status()
	if st.Reconnects != 0 || st.Quarantines != 0 || st.Resyncs != 0 {
		t.Fatalf("a clean run saw %+v", st)
	}
	if images, diffs := f.images.Load(), f.diffs.Load(); images != 1 || diffs < writes/2 {
		t.Fatalf("one connection took %d images and %d diffs; want 1 image", images, diffs)
	}
	text := reg.PrometheusText()
	for _, series := range []string{`qpgc_replica_effects_total{kind="diff"}`, `qpgc_replica_apply_seconds_count{path="effect"}`} {
		if !strings.Contains(text, series) {
			t.Fatalf("the follower's scrape lacks %s:\n%s", series, text)
		}
	}
	apply := reg.Histogram(obs.Label("qpgc_replica_apply_seconds", "path", "effect")).Snapshot()
	t.Logf("%d writes: %d diffs, 1 image, effect apply p50 %v", writes, f.diffs.Load(), apply.Quantile(0.5))
}

// TestFarBehindFollowerCatchesUpByImage restarts a follower more WAL
// behind than one tail round's byte budget: its views' lineage is new, so
// nothing chains, and it must catch up with exactly one image and no frame
// — the image holds G — with no maintainer observation and exact answers.
func TestFarBehindFollowerCatchesUpByImage(t *testing.T) {
	g := matrixTopologies(41)["social"]
	lh := startLeader(t, g, nil)
	dir := t.TempDir()
	f := startFollower(t, lh.srv.Addr(), Options{Dir: dir})

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(42))
	write := func(updates int) uint64 {
		t.Helper()
		batch := gen.RandomBatch(rng, mirror, updates, 0.5)
		mirror.Apply(batch)
		epoch, err := lh.cli.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		return epoch
	}
	awaitEpoch(t, f, write(10), 10*time.Second)
	f.Close()
	var token uint64
	for i := 0; i < 48; i++ {
		token = write(3000) // ≈ 27 KB of WAL each
	}

	reg := obs.NewRegistry()
	f = startFollower(t, lh.srv.Addr(), Options{Dir: dir, Obs: reg})
	// Caught up, and not only at the epoch: the round that shipped it has
	// returned, its bytes counted.
	if err := f.WaitCaughtUp(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if e := f.Epoch(); e != token {
		t.Fatalf("caught up at epoch %d, leader at %d", e, token)
	}
	if shipped := f.shippedBytes.Load(); shipped != 0 {
		t.Fatalf("the restarted follower was shipped %d bytes of frames; an image holds G and needs none", shipped)
	}
	diffAgainstReference(t, "far-behind", mirror, map[string]server.Backend{"follower": f})
	for _, stage := range []string{"scc", "reach", "pattern"} {
		if n := reg.Histogram(obs.Label("qpgc_store_apply_seconds", "stage", stage)).Snapshot().Count; n != 0 {
			t.Fatalf("the follower's %s maintainer ran %d times", stage, n)
		}
	}
	if st := f.Status(); st.Quarantines != 0 || st.Resyncs != 0 {
		t.Fatalf("the catch-up saw %+v", st)
	}
	if images := f.images.Load(); images != 1 {
		t.Fatalf("the catch-up took %d images and %d diffs, want 1 image", images, f.diffs.Load())
	}

}

// TestFollowerReadsAtStampedEpoch reads from a follower's server while the
// leader's writes land on it as effects, and holds every answer to the
// oracle at the epoch stamped on it: the follower swaps whole views per
// group, and a stamp that is not the epoch of the views that answered
// would show here.
func TestFollowerReadsAtStampedEpoch(t *testing.T) {
	g := matrixTopologies(63)["web"]
	lh := startLeader(t, g, nil)
	f := startFollower(t, lh.srv.Addr(), Options{})
	fcli := serveFollower(t, f)
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	const writes = 30
	graphs := []*graph.Graph{g.Clone()} // graphs[e] is G at epoch e
	batches := make([][]graph.Update, writes)
	rng := rand.New(rand.NewSource(64))
	for i := range batches {
		batches[i] = gen.RandomBatch(rng, graphs[i], 8, 0.7)
		next := graphs[i].Clone()
		next.Apply(batches[i])
		graphs = append(graphs, next)
	}
	done := make(chan error, 1)
	go func() {
		for _, b := range batches {
			if _, err := lh.cli.Apply(b); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	type read struct {
		u, v   graph.Node
		got    bool
		epoch  uint64
		lanes  []bool
		us, vs []graph.Node
	}
	var reads []read
	n := g.NumNodes()
	for f.Epoch() < writes {
		r := read{u: graph.Node(rng.Intn(n)), v: graph.Node(rng.Intn(n))}
		var err error
		if len(reads)%4 == 3 {
			r.us, r.vs = make([]graph.Node, 40), make([]graph.Node, 40)
			for k := range r.us {
				r.us[k], r.vs[k] = graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))
			}
			r.lanes, r.epoch, err = fcli.BatchReachable(r.us, r.vs, 0)
		} else {
			r.got, r.epoch, err = fcli.Reachable(r.u, r.v, 0, false)
		}
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, r)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i, r := range reads {
		at := graphs[r.epoch]
		if r.lanes == nil {
			if want := queries.Reachable(at, r.u, r.v); r.got != want {
				t.Fatalf("read %d: QR(%d,%d) = %v stamped epoch %d, oracle %v", i, r.u, r.v, r.got, r.epoch, want)
			}
			continue
		}
		for k := range r.us {
			if want := queries.Reachable(at, r.us[k], r.vs[k]); r.lanes[k] != want {
				t.Fatalf("read %d lane %d: QR(%d,%d) = %v stamped epoch %d, oracle %v", i, k, r.us[k], r.vs[k], r.lanes[k], r.epoch, want)
			}
		}
	}
	t.Logf("%d reads across %d epochs landed as effects (%d diffs)", len(reads), writes, f.diffs.Load())
}

// proxyPlan is what an effectProxy does to the effects it forwards.
type proxyPlan struct {
	// flip flips one bit inside the effect bytes of the first flip
	// MsgEffect frames: corruption on the wire, past everything the source
	// checks.
	flip int64
	// cut forwards the first half of each of the first cut diffs, then
	// drops the connection: a shipment cut mid-frame.
	cut int64
	// stray sends a frame of type 0x4a — the raw WAL frame older sources
	// shipped beside each diff — ahead of each of the first stray diffs.
	stray int64
}

// effectProxy forwards a follower's tail connection to its source and does
// to the effects coming back what its plan says. It counts the frames it
// forwards by type.
type effectProxy struct {
	ln                    net.Listener
	target                string
	plan                  proxyPlan
	flipped, cuts, strays atomic.Int64
	frames                [256]atomic.Int64
	wg                    sync.WaitGroup
}

func startEffectProxy(t *testing.T, target string, plan proxyPlan) *effectProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &effectProxy{ln: ln, target: target, plan: plan}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.serve(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.wg.Wait()
	})
	return p
}

func (p *effectProxy) serve(conn net.Conn) {
	defer conn.Close()
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer up.Close()
	go func() {
		io.Copy(up, conn)
		up.Close()
	}()
	br := bufio.NewReader(up)
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		frame := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		p.frames[frame[0]].Add(1)
		// Past the type byte and the epoch, the effect itself: its second
		// byte is its kind, 2 for a diff.
		effect := server.MsgType(frame[0]) == server.MsgEffect && len(frame) > 20
		diff := effect && frame[10] == 2
		if effect && p.flipped.Add(1) <= p.plan.flip {
			frame[9+(len(frame)-9)/2] ^= 0x08
		}
		if diff && p.cuts.Add(1) <= p.plan.cut {
			conn.Write(append(hdr[:], frame[:len(frame)/2]...))
			return
		}
		if diff && p.strays.Add(1) <= p.plan.stray {
			if _, err := conn.Write([]byte{9, 0, 0, 0, 0x4a, 1, 0, 0, 0, 0, 0, 0, 0}); err != nil {
				return
			}
		}
		if _, err := conn.Write(append(hdr[:], frame...)); err != nil {
			return
		}
	}
}

// TestChaosBitFlippedEffect flips bits in the first shipped effects on the
// wire. The follower must quarantine each corrupted effect — never apply
// it — and still converge to exact answers.
func TestChaosBitFlippedEffect(t *testing.T) {
	g := matrixTopologies(39)["social"]
	lh := startLeader(t, g, nil)
	proxy := startEffectProxy(t, lh.srv.Addr(), proxyPlan{flip: 3})
	// The proxy first: the bootstrap image it flips is refused, and the
	// leader behind it supplies one; the tail rounds start at the proxy.
	f := startFollower(t, proxy.ln.Addr().String()+","+lh.srv.Addr(), Options{})

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(40))
	var token uint64
	for i := 0; i < 10; i++ {
		batch := gen.RandomBatch(rng, mirror, 15, 0.6)
		mirror.Apply(batch)
		epoch, err := lh.cli.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		token = epoch
		awaitEpoch(t, f, token, 15*time.Second)
	}
	if proxy.flipped.Load() == 0 {
		t.Fatal("no effect crossed the proxy; the chaos test tested nothing")
	}
	if st := f.Status(); st.Quarantines == 0 {
		t.Fatalf("corrupted effects were not quarantined (%+v)", st)
	}
	diffAgainstReference(t, "effect-bitflip", mirror, map[string]server.Backend{"follower": f})
}

// TestWrappedBackendShipsEffects: a server fronting a wrapper that embeds a
// store's Backend still ships effects — Effects is a method of Backend, not
// an optional surface the wrapper would hide — so its follower takes an
// image, then diffs.
func TestWrappedBackendShipsEffects(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(63)), 2000, 8000, 5)
	dir := t.TempDir()
	s, err := store.Open(g.Clone(), &store.Options{Dir: dir, Sync: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wrapped := struct{ server.Backend }{server.NewStoreBackend(s)}
	srv, err := server.Start("127.0.0.1:0", server.Options{Backend: wrapped, ReplDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := obs.NewRegistry()
	f := startFollower(t, srv.Addr(), Options{Obs: reg})

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 20; i++ {
		batch := gen.RandomBatch(rng, mirror, 10, 0.6)
		mirror.Apply(batch)
		epoch, err := s.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		awaitEpoch(t, f, epoch, 10*time.Second)
	}
	diffAgainstReference(t, "wrapped", mirror, map[string]server.Backend{"follower": f})
	if images, diffs := f.images.Load(), f.diffs.Load(); images < 1 || diffs < 1 {
		t.Fatalf("the follower took %d images and %d diffs; want an image and diffs", images, diffs)
	}
}

// TestTailReadsNoWAL runs a leader whose store fails every read of a WAL
// segment after open, in a directory the real disk does not have: its
// follower catches up through twenty writes by diffs alone, so no tail
// round reads a WAL file — through the store's FS or past it.
func TestTailReadsNoWAL(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(65)), 2000, 8000, 5)
	noWAL := faultfs.NewInject(rootedFS{root: t.TempDir()}, faultfs.Rule{Op: faultfs.OpRead, Path: "wal-"})
	dir := virtualDir(t, "leader")
	s, err := store.Open(g.Clone(), &store.Options{Dir: dir, FS: noWAL, Sync: store.SyncNone, WALSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv, err := server.Start("127.0.0.1:0", server.Options{Backend: server.NewStoreBackend(s), ReplDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	f := startFollower(t, srv.Addr(), Options{})

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(66))
	const writes = 20
	for i := 0; i < writes; i++ {
		batch := gen.RandomBatch(rng, mirror, 10, 0.6)
		mirror.Apply(batch)
		epoch, err := s.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		awaitEpoch(t, f, epoch, 10*time.Second)
	}
	diffAgainstReference(t, "no-wal-reads", mirror, map[string]server.Backend{"follower": f})
	if images, diffs := f.images.Load(), f.diffs.Load(); images != 1 || diffs != writes {
		t.Fatalf("the follower took %d images and %d diffs, want its bootstrap image and %d diffs", images, diffs, writes)
	}
	if n := noWAL.Fired(); n != 0 {
		t.Fatalf("the leader read its WAL %d times", n)
	}
}

// TestStrayFrameIsQuarantined tails a source that sends, ahead of each
// diff, the raw WAL frame (type 0x4a) an older source shipped: each such
// round is a quarantine, not a reconnect, so the follower resyncs and
// converges on images instead of reconnecting forever.
func TestStrayFrameIsQuarantined(t *testing.T) {
	g := matrixTopologies(67)["social"]
	lh := startLeader(t, g, nil)
	proxy := startEffectProxy(t, lh.srv.Addr(), proxyPlan{stray: 1 << 40})
	f := startFollower(t, proxy.ln.Addr().String(), Options{})

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(68))
	var token uint64
	for i := 0; i < 6; i++ {
		batch := gen.RandomBatch(rng, mirror, 15, 0.6)
		mirror.Apply(batch)
		epoch, err := lh.cli.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		token = epoch
	}
	awaitEpoch(t, f, token, 15*time.Second)
	st := f.Status()
	if proxy.strays.Load() == 0 || st.Quarantines < resyncAfter || st.Resyncs == 0 || f.diffs.Load() != 0 {
		t.Fatalf("after %d stray frames: %+v, %d diffs; want quarantines, a resync and no diff", proxy.strays.Load(), st, f.diffs.Load())
	}
	diffAgainstReference(t, "stray", mirror, map[string]server.Backend{"follower": f})
}
