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
// sent one image, everything after that comes as diffs, and no batch is
// re-derived.
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
	raw := count(obs.Label("qpgc_replica_apply_seconds", "path", "raw"))
	if images, diffs := f.images.Load(), f.diffs.Load(); images != 1 || raw != 0 || diffs < writes/2 {
		t.Fatalf("one connection took %d images, %d diffs and %d raw applies; want 1 image, 0 raw", images, diffs, raw)
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

// effectFlipProxy forwards a follower's tail connection to its source and
// flips one bit inside the effect bytes of the first limit MsgEffect frames
// coming back: corruption on the wire, past everything the source checks.
type effectFlipProxy struct {
	ln      net.Listener
	target  string
	limit   int64
	flipped atomic.Int64
	wg      sync.WaitGroup
}

func startEffectFlipProxy(t *testing.T, target string, limit int64) *effectFlipProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &effectFlipProxy{ln: ln, target: target, limit: limit}
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

func (p *effectFlipProxy) serve(conn net.Conn) {
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
		// Past the type byte and the epoch: a bit of the effect itself.
		if server.MsgType(frame[0]) == server.MsgEffect && len(frame) > 20 && p.flipped.Add(1) <= p.limit {
			frame[9+(len(frame)-9)/2] ^= 0x08
		}
		if _, err := conn.Write(append(hdr[:], frame...)); err != nil {
			return
		}
	}
}

// TestChaosBitFlippedEffect is TestChaosBitFlippedShipment for the effect
// frames: bits flipped in the first shipped effects on the wire. The
// follower must quarantine each corrupted effect — never apply it — and
// still converge to exact answers.
func TestChaosBitFlippedEffect(t *testing.T) {
	g := matrixTopologies(39)["social"]
	lh := startLeader(t, g, nil)
	proxy := startEffectFlipProxy(t, lh.srv.Addr(), 3)
	f := startFollower(t, proxy.ln.Addr().String(), Options{})

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
// image, then diffs, and re-derives no batch.
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
	raw := reg.Histogram(obs.Label("qpgc_replica_apply_seconds", "path", "raw")).Snapshot().Count
	if images, diffs := f.images.Load(), f.diffs.Load(); images < 1 || diffs < 1 || raw != 0 {
		t.Fatalf("the follower took %d images, %d diffs and %d raw applies; want an image, diffs and no raw", images, diffs, raw)
	}
}
