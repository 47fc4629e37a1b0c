package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/store"
	"repro/internal/wal"
)

// testGraph builds the standard small social topology.
func testGraph(seed int64) *graph.Graph {
	return gen.Social(rand.New(rand.NewSource(seed)), 200, 800, 5)
}

// testPattern builds a 2-node pattern over the generated label alphabet.
func testPattern() *pattern.Pattern {
	pt := pattern.New()
	a := pt.AddNode("L0")
	b := pt.AddNode("L1")
	pt.AddEdge(a, b, 2)
	return pt
}

// startStoreServer opens an in-memory store on g and serves it on a free
// port, tearing both down with the test.
func startStoreServer(t *testing.T, g *graph.Graph, opts Options) (*store.Store, *Server) {
	t.Helper()
	s, err := store.Open(g, &store.Options{Indexes: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	opts.Backend = NewStoreBackend(s)
	srv, err := Start("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return s, srv
}

// TestQueryRoundTrips drives every query type through the wire and pins
// the answers to the store's own.
func TestQueryRoundTrips(t *testing.T) {
	g := testGraph(1)
	s, srv := startStoreServer(t, g, Options{})
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, err := cli.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	n := g.NumNodes()
	for i := 0; i < 200; i++ {
		u := graph.Node(rng.Intn(n))
		v := graph.Node(rng.Intn(n))
		got, _, err := cli.Reachable(u, v, 0, false)
		if err != nil {
			t.Fatalf("reach(%d,%d): %v", u, v, err)
		}
		if want := s.Reachable(u, v); got != want {
			t.Fatalf("reach(%d,%d) = %v over the wire, %v locally", u, v, got, want)
		}
		gotG, _, err := cli.Reachable(u, v, 0, true)
		if err != nil {
			t.Fatalf("reachOnG(%d,%d): %v", u, v, err)
		}
		if want := s.ReachableOnG(u, v); gotG != want {
			t.Fatalf("reachOnG(%d,%d) = %v over the wire, %v locally", u, v, gotG, want)
		}
	}

	us := make([]graph.Node, 64)
	vs := make([]graph.Node, 64)
	for i := range us {
		us[i] = graph.Node(rng.Intn(n))
		vs[i] = graph.Node(rng.Intn(n))
	}
	got, _, err := cli.BatchReachable(us, vs, 0)
	if err != nil {
		t.Fatalf("batch reach: %v", err)
	}
	want := s.BatchReachable(us, vs)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("batch lane %d = %v over the wire, %v locally", i, got[i], want[i])
		}
	}

	res, _, err := cli.Match(testPattern(), 0)
	if err != nil {
		t.Fatalf("match: %v", err)
	}
	wantRes := s.Match(testPattern())
	if res.OK != wantRes.OK || len(res.Sets) != len(wantRes.Sets) {
		t.Fatalf("match shape diverged: ok %v/%v, %d/%d sets", res.OK, wantRes.OK, len(res.Sets), len(wantRes.Sets))
	}
	for i := range res.Sets {
		if len(res.Sets[i]) != len(wantRes.Sets[i]) {
			t.Fatalf("match set %d: %d vs %d nodes", i, len(res.Sets[i]), len(wantRes.Sets[i]))
		}
		for j := range res.Sets[i] {
			if res.Sets[i][j] != wantRes.Sets[i][j] {
				t.Fatalf("match set %d diverges at %d", i, j)
			}
		}
	}

	in, err := cli.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !in.Writable || in.Nodes != n {
		t.Fatalf("stats = %+v, want a writable store with %d nodes", in, n)
	}
}

// TestApplyAndRYW applies batches over the wire and verifies the returned
// epoch is a working read-your-writes token.
func TestApplyAndRYW(t *testing.T) {
	g := testGraph(3)
	s, srv := startStoreServer(t, g, Options{})
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(4))
	var token uint64
	for i := 0; i < 10; i++ {
		batch := gen.RandomBatch(rng, mirror, 16, 0.6)
		mirror.Apply(batch)
		epoch, err := cli.Apply(batch)
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		if epoch != uint64(i+1) {
			t.Fatalf("apply %d returned epoch %d", i, epoch)
		}
		token = epoch
	}
	if cli.LastEpoch() != token {
		t.Fatalf("session token %d, want %d", cli.LastEpoch(), token)
	}
	// A read pinned at the token must see all ten batches.
	_, epoch, err := cli.Reachable(0, 1, token, false)
	if err != nil {
		t.Fatal(err)
	}
	if epoch < token {
		t.Fatalf("read served at epoch %d, below RYW token %d", epoch, token)
	}
	if got := s.Snapshot().Epoch; got != token {
		t.Fatalf("store at epoch %d after %d applies", got, token)
	}
	// An unreachable epoch times out with an error rather than serving a
	// stale answer.
	fast := New(Options{Backend: NewStoreBackend(s), EpochWaitTimeout: 20 * time.Millisecond})
	gotErr := false
	fast.handleRequest(MsgReach, reachBody(999999, 0, 1), func(mt MsgType, body []byte) error {
		gotErr = mt == MsgErr
		return nil
	}, &connState{})
	if !gotErr {
		t.Fatal("read far beyond the write frontier did not error")
	}
}

// reachBody encodes a MsgReach body.
func reachBody(minEpoch uint64, u, v graph.Node) []byte {
	b := binary.LittleEndian.AppendUint64(nil, minEpoch)
	b = binary.LittleEndian.AppendUint32(b, uint32(u))
	b = binary.LittleEndian.AppendUint32(b, uint32(v))
	return append(b, 0)
}

// tailBody encodes a MsgTail body.
func tailBody(from, term uint64, holdMs uint32, lineage uint64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, from)
	b = binary.LittleEndian.AppendUint64(b, term)
	b = binary.LittleEndian.AppendUint32(b, holdMs)
	return binary.LittleEndian.AppendUint64(b, lineage)
}

// TestWireRejectsGarbage sends malformed frames and checks the server
// answers MsgErr and keeps the connection serviceable.
func TestWireRejectsGarbage(t *testing.T) {
	_, srv := startStoreServer(t, testGraph(5), Options{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	bad := [][2]interface{}{
		{MsgReach, []byte{1, 2, 3}},                                 // truncated body
		{MsgReach, reachBody(0, 100000, 0)},                         // node out of range
		{MsgReach, append(reachBody(0, 1, 2)[:16], 2)},              // onG flag neither 0 nor 1
		{MsgApply, []byte{0xff, 0xff, 0xff, 0xff}},                  // absurd batch count
		{MsgMatch, append(make([]byte, 8), 0xff, 0xff, 0xff, 0xff)}, // absurd pattern
		{MsgType(0x3f), nil},                                        // unknown type
		{MsgBool, []byte{0, 0, 0, 0, 0, 0, 0, 0, 1}},                // response-typed request
		{MsgTail, tailBody(1, 0, 0, 0)[:16]},                        // no hold field
		{MsgTail, tailBody(1, 0, 0, 0)[:20]},                        // no lineage field
		{MsgTail, tailBody(1, 0, 0, 7)[:27]},                        // a lineage cut short
		{MsgTail, append(tailBody(1, 0, 0, 0), 0)},                  // a byte past the lineage field
	}
	for i, tc := range bad {
		var body []byte
		if tc[1] != nil {
			body = tc[1].([]byte)
		}
		if err := WriteFrame(bw, tc[0].(MsgType), body); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		mt, _, err := ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("case %d: connection died: %v", i, err)
		}
		if mt != MsgErr {
			t.Fatalf("case %d: got response 0x%02x, want MsgErr", i, byte(mt))
		}
	}
	// The connection still answers a well-formed request afterwards.
	if err := WriteFrame(bw, MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	mt, _, err := ReadFrame(br, nil)
	if err != nil || mt != MsgEpoch {
		t.Fatalf("ping after garbage: type 0x%02x, err %v", byte(mt), err)
	}
}

// TestApplyAcceptsOlderBatchForm: a MsgApply whose batch is in the form
// older clients send — a 32-bit count, then nine bytes an update — is
// applied as the current form is: the same edges land, and the answer is
// the next epoch.
func TestApplyAcceptsOlderBatchForm(t *testing.T) {
	g := testGraph(6)
	var ins []graph.Node
	for v := graph.Node(1); len(ins) < 3; v++ {
		if !g.HasEdge(0, v) {
			ins = append(ins, v)
		}
	}
	s, srv := startStoreServer(t, g, Options{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	body := binary.LittleEndian.AppendUint64(nil, 0) // no term claim
	body = binary.LittleEndian.AppendUint32(body, uint32(len(ins)))
	for _, v := range ins {
		body = binary.LittleEndian.AppendUint32(body, 0)
		body = binary.LittleEndian.AppendUint32(body, uint32(v))
		body = append(body, 1)
	}
	if err := WriteFrame(bw, MsgApply, body); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	mt, resp, err := ReadFrame(br, nil)
	if err != nil || mt != MsgApplied {
		t.Fatalf("an older-form batch: response 0x%02x %q, %v", byte(mt), resp, err)
	}
	if epoch := binary.LittleEndian.Uint64(resp); epoch != 1 {
		t.Fatalf("applied at epoch %d, want 1", epoch)
	}
	for _, v := range ins {
		if !s.Snapshot().G.HasEdge(0, v) {
			t.Fatalf("edge (0,%d) of the older-form batch is not in G", v)
		}
	}
}

// TestApplyRefusesOversizedBatch: a MsgApply whose batch declares more
// updates than maxApplyUpdates is refused before they are allocated. The
// forged batch has ids of width 0, one bit an update, so it fits in under
// a megabyte of frame and would decode into about 90 MB.
func TestApplyRefusesOversizedBatch(t *testing.T) {
	s, srv := startStoreServer(t, testGraph(6), Options{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	const count = maxApplyUpdates + 1
	body := binary.LittleEndian.AppendUint64(nil, 0) // no term claim
	body = binary.LittleEndian.AppendUint32(body, 1<<31|count)
	body = append(body, 1<<6) // the current form, ids of width 0
	body = append(body, make([]byte, (count+7)/8)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := WriteFrame(bw, MsgApply, body); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	mt, resp, err := ReadFrame(br, nil)
	runtime.ReadMemStats(&after)
	if err != nil || mt != MsgErr || !strings.Contains(string(resp), "more than") {
		t.Fatalf("a batch of %d updates: response 0x%02x %q, %v", count, byte(mt), resp, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
		t.Fatalf("refusing the batch allocated %d MB", grew>>20)
	}
	if epoch := s.Snapshot().Epoch; epoch != 0 {
		t.Fatalf("the store is at epoch %d after a refused batch", epoch)
	}
}

// wideLabelPattern returns a pattern of n nodes labeled L0 and no edges: on
// a graph with L0 nodes it matches, and its answer holds n sets.
func wideLabelPattern(n int) *pattern.Pattern {
	p := pattern.New()
	for range n {
		p.AddNode("L0")
	}
	return p
}

// TestWirePatternSizeCapped pins the cost bound on a wire match: a pattern
// of 64 nodes is answered, one of 65 nodes or of 1 025 edges gets MsgErr,
// and the connection answers a ping afterwards.
func TestWirePatternSizeCapped(t *testing.T) {
	_, srv := startStoreServer(t, testGraph(5), Options{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	roundTrip := func(mt MsgType, body []byte) MsgType {
		t.Helper()
		if err := WriteFrame(bw, mt, body); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		got, _, err := ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("connection died: %v", err)
		}
		return got
	}
	manyEdges := testPattern()
	for range 1024 {
		manyEdges.AddEdge(0, 1, 1)
	}
	for _, tc := range []struct {
		name string
		p    *pattern.Pattern
		want MsgType
	}{
		{"64 nodes", wideLabelPattern(64), MsgMatched},
		{"65 nodes", wideLabelPattern(65), MsgErr},
		{"1025 edges", manyEdges, MsgErr},
	} {
		if got := roundTrip(MsgMatch, EncodePattern(make([]byte, 8), tc.p)); got != tc.want {
			t.Fatalf("%s: got response 0x%02x, want 0x%02x", tc.name, byte(got), byte(tc.want))
		}
	}
	if got := roundTrip(MsgPing, nil); got != MsgEpoch {
		t.Fatalf("ping after a refused pattern: got response 0x%02x", byte(got))
	}
}

// TestNodeIDValidation pins the bounds check on wire input: a server
// accepts every id below |V| and rejects the rest — on point reads, batch
// reads and writes — and reports |V|.
func TestNodeIDValidation(t *testing.T) {
	g := testGraph(6)
	n := graph.Node(g.NumNodes())
	_, srv := startStoreServer(t, g.Clone(), Options{})

	// probe runs every request shape with one endpoint at id and returns
	// the errors' text ("" for an accepted request).
	probe := func(addr string, id graph.Node) (errs [3]string) {
		cli, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		text := func(err error) string {
			if err != nil {
				return err.Error()
			}
			return ""
		}
		_, _, err = cli.Reachable(id, 0, 0, false)
		errs[0] = text(err)
		_, _, err = cli.BatchReachable([]graph.Node{0, id}, []graph.Node{id, 0}, 0)
		errs[1] = text(err)
		_, err = cli.Apply([]graph.Update{graph.Insertion(0, id)})
		errs[2] = text(err)
		if info, err := cli.Stats(); err != nil || info.Nodes != int(n) {
			t.Fatalf("Stats = (%+v, %v), want |V| = %d", info, err, n)
		}
		return errs
	}
	for _, id := range []graph.Node{n - 1, n, n + 1000} {
		for i, msg := range probe(srv.Addr(), id) {
			if (msg != "") != (id >= n) {
				t.Fatalf("id %d of %d nodes, request %d: error %q", id, n, i, msg)
			}
		}
	}
}

// TestSnapshotAndTailShipping exercises the replication source directly:
// an image round starts a copy elsewhere, and tail rounds catch it up with
// diffs, each carrying its group's batches, from the effect ring alone — a
// position the WAL no longer holds still chains by diffs.
func TestSnapshotAndTailShipping(t *testing.T) {
	g := testGraph(6)
	dir := t.TempDir()
	// Tiny segments force rotation per batch, so checkpoints actually
	// drop sealed segments and a truncated position is reachable.
	s, err := store.Open(g.Clone(), &store.Options{Dir: dir, Sync: store.SyncNone, WALSegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	mirror := g.Clone()
	apply := func(k int) {
		for i := 0; i < k; i++ {
			batch := gen.RandomBatch(rng, mirror, 10, 0.5)
			mirror.Apply(batch)
			if _, err := s.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(4)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	apply(3)

	srv, err := Start("127.0.0.1:0", Options{Backend: NewStoreBackend(s), ReplDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// An image round, from 1 with lineage 0: one image of the current
	// snapshot at 7 — not of the checkpoint at 4.
	var img []byte
	leaderEpoch, err := cli.TailRound(1, 0, 0, func(epoch uint64, b []byte) error {
		if img != nil || epoch != 7 {
			return fmt.Errorf("a second image, or one at %d", epoch)
		}
		img = slices.Clone(b)
		return nil
	})
	if err != nil || img == nil || leaderEpoch != 7 {
		t.Fatalf("image round: leader at %d, %d image bytes, %v", leaderEpoch, len(img), err)
	}
	s2, err := store.OpenImage(img, &store.Options{Dir: t.TempDir(), Sync: store.SyncNone})
	if err != nil {
		t.Fatalf("open the image: %v", err)
	}
	defer s2.Close()
	if got := s2.Snapshot().Epoch; got != 7 {
		t.Fatalf("the image's store at epoch %d, want 7", got)
	}

	// Three writes, then a checkpoint that drops the WAL segments holding
	// them: the image carried the leader's lineage, so a tail from 8 still
	// comes as three diffs, and no image.
	apply(3)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if segs, err := wal.ListDir(nil, dir); err != nil || len(segs) == 0 || segs[0].First <= 8 {
		t.Fatalf("after the checkpoint the WAL holds %v (%v), want nothing at or below epoch 8", segs, err)
	}
	diffs, images := 0, 0
	leaderEpoch, err = cli.TailRound(8, s2.Snapshot().Lineage, 0, func(epoch uint64, b []byte) error {
		applied, image, err := s2.ApplyEffect(b)
		if err != nil {
			return err
		}
		if image {
			images++
		} else {
			diffs++
		}
		if applied != epoch {
			return fmt.Errorf("effect through %d applied at %d", epoch, applied)
		}
		return nil
	})
	if err != nil || diffs != 3 || images != 0 {
		t.Fatalf("tail(8) below the oldest segment: %d diffs, %d images, %v; want 3 diffs", diffs, images, err)
	}
	if leaderEpoch != 10 || s2.Snapshot().Epoch != 10 {
		t.Fatalf("after tail: leader %d, local %d, want 10/10", leaderEpoch, s2.Snapshot().Epoch)
	}
	// Both stores now answer identically.
	n := g.NumNodes()
	for i := 0; i < 200; i++ {
		u := graph.Node(rng.Intn(n))
		v := graph.Node(rng.Intn(n))
		if a, b := s.Reachable(u, v), s2.Reachable(u, v); a != b {
			t.Fatalf("QR(%d,%d) = %v on leader, %v on caught-up copy", u, v, a, b)
		}
	}
}

// TestReadOnlyBackendError checks ErrReadOnly surfaces as a client error.
func TestReadOnlyBackendError(t *testing.T) {
	s, err := store.Open(testGraph(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv, err := Start("127.0.0.1:0", Options{Backend: readOnly{NewStoreBackend(s)}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Apply([]graph.Update{graph.Insertion(0, 1)})
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("apply on read-only backend: %v", err)
	}
}

// TestDegradedApplyOverWire: a fault schedule that degrades a durable
// store's write path reaches the client as ErrDegraded — not fenced, not
// generic — both for the batch that hit the fault and for the fail-fast
// ones after it, and the same batch lands once the disk heals and the
// store re-arms itself.
func TestDegradedApplyOverWire(t *testing.T) {
	in := faultfs.NewInject(faultfs.Disk)
	o := store.DefaultOptions()
	o.Dir, o.FS = t.TempDir(), in
	o.WriteRetries, o.RetryBackoff, o.RecoveryInterval = 1, time.Millisecond, 3*time.Millisecond
	s, err := store.Open(testGraph(9), &o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv, err := Start("127.0.0.1:0", Options{Backend: NewStoreBackend(s)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Apply([]graph.Update{graph.Insertion(0, 1)}); err != nil {
		t.Fatal(err)
	}
	in.AddRule(faultfs.Rule{Op: faultfs.OpWrite | faultfs.OpSync, Err: faultfs.ErrNoSpace})
	batch := []graph.Update{graph.Insertion(1, 2)}
	for i := 0; i < 2; i++ {
		_, err := cli.Apply(batch)
		if !errors.Is(err, ErrDegraded) || errors.Is(err, ErrFenced) || errors.Is(err, ErrReadOnly) {
			t.Fatalf("apply %d on a full disk: %v, want ErrDegraded", i, err)
		}
		if retryable(err) {
			t.Fatalf("a degraded leader is still the leader; %v must not send a failover client elsewhere", err)
		}
	}
	in.Disarm()
	waitFor(t, "the store to re-arm", func() bool { return s.Health().State == store.Healthy })
	if epoch, err := cli.Apply(batch); err != nil || epoch != 2 {
		t.Fatalf("retried batch after recovery: epoch %d, %v; want epoch 2", epoch, err)
	}
}

// readOnly wraps a backend, refusing writes like a follower does.
type readOnly struct{ Backend }

func (readOnly) Apply([]graph.Update) (uint64, error) { return 0, ErrReadOnly }

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestCloseReleasesHeldRequests pins Close against a request held for an
// epoch that never comes: the handler is not looking at its connection, so
// dropping the connection does not end it — Close's own cancel must. The
// read is pinned one epoch ahead on a store nobody writes to, with the
// default five-second hold.
func TestCloseReleasesHeldRequests(t *testing.T) {
	s, srv := startStoreServer(t, testGraph(21), Options{EpochWaitTimeout: 5 * time.Second})
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	held := make(chan error, 1)
	go func() {
		_, _, err := cli.Reachable(0, 1, s.Epoch()+1, false)
		held <- err
	}()
	waitFor(t, "the read to be held", func() bool { return srv.waits.Load() == 1 })
	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close sat out a held read for %v", d)
	}
	select {
	case err := <-held:
		if err == nil {
			t.Fatal("a read pinned past the frontier answered as the server closed")
		}
	case <-time.After(time.Second):
		t.Fatal("the held read's client heard nothing after Close")
	}
}

// TestHeldReadWakesOnSwap pins what releases a hold, by counts and not by
// timings. A read pinned one epoch ahead is parked (the epoch-wait counter
// moves, no answer comes) until a write publishes that epoch, and is then
// answered at it. A tail round parked on a source that gets fenced mid-hold
// comes back at once — long before its hold is up — carrying the fenced
// flag; and a fenced source parks nothing.
func TestHeldReadWakesOnSwap(t *testing.T) {
	g := testGraph(22)
	dir := t.TempDir()
	s, err := store.Open(g.Clone(), &store.Options{Dir: dir, Sync: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := obs.NewRegistry()
	srv, err := Start("127.0.0.1:0", Options{Backend: NewStoreBackend(s), ReplDir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reader, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	n := graph.Node(g.NumNodes() - 1)
	type answer struct {
		reach bool
		epoch uint64
		err   error
	}
	got := make(chan answer, 1)
	go func() {
		reach, epoch, err := reader.Reachable(0, n, 1, false)
		got <- answer{reach, epoch, err}
	}()
	waitFor(t, "the pinned read to be held", func() bool { return srv.waits.Load() == 1 })
	select {
	case a := <-got:
		t.Fatalf("a read pinned at epoch 1 answered %+v before anything was written", a)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := s.Apply([]graph.Update{graph.Insertion(0, n)}); err != nil {
		t.Fatal(err)
	}
	if a := <-got; a.err != nil || a.epoch != 1 || !a.reach {
		t.Fatalf("the held read came back %+v, want the inserted edge seen at epoch 1", a)
	}
	if text := reg.PrometheusText(); !strings.Contains(text, "qpgc_server_epoch_waits_total 1\n") {
		t.Fatalf("the hold is not in the scrape:\n%s", text)
	}

	// A parked tail round, then a fence.
	tail, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	type round struct {
		epoch uint64
		err   error
	}
	done := make(chan round, 1)
	lineage := s.Snapshot().Lineage // the tail holds the views at epoch 1
	start := time.Now()
	go func() {
		epoch, err := tail.TailRound(2, lineage, maxTailHold, func(uint64, []byte) error { return nil })
		done <- round{epoch, err}
	}()
	waitFor(t, "the tail round to be parked", func() bool { return srv.ob.tailHeld.Load() == 1 })
	if in := srv.ob.inflight.Load(); in != 0 {
		t.Fatalf("a parked tail round counts as %d requests in flight", in)
	}
	if err := s.ObserveTerm(s.Term() + 1); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil || r.epoch != 1 || !tail.SourceFenced() {
		t.Fatalf("the round released by the fence came back epoch %d, fenced %v, %v", r.epoch, tail.SourceFenced(), r.err)
	}
	if d := time.Since(start); d > maxTailHold/2 {
		t.Fatalf("the fence released the round after %v of a %v hold", d, maxTailHold)
	}
	if _, err := tail.TailRound(2, lineage, maxTailHold, func(uint64, []byte) error { return nil }); err != nil || !tail.SourceFenced() {
		t.Fatalf("round on a fenced source: fenced %v, %v", tail.SourceFenced(), err)
	}
	if d := time.Since(start); d > maxTailHold/2 {
		t.Fatalf("a fenced source parked a round: %v", d)
	}
	if held := srv.ob.tailHeld.Load(); held != 0 {
		t.Fatalf("%d tail rounds still count as parked", held)
	}
}

// TestIdleConnectionKeepsSmallBuffers sends one 1 048 576-pair
// BatchReachable and then a Ping over one connection, and holds what the
// idle connection pair keeps: the client's read and request buffers at
// most maxKeptBuffer each, and the live heap of both sides at most four
// such buffers above what it was after a first Ping. A connection that
// kept its largest frame held the 8 MiB request on the server and the
// 1 MiB answer in the client until it closed.
func TestIdleConnectionKeepsSmallBuffers(t *testing.T) {
	g := testGraph(1)
	_, srv := startStoreServer(t, g, Options{})
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	if _, err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	before := live()
	const pairs = 1 << 20
	us, vs := make([]graph.Node, pairs), make([]graph.Node, pairs)
	rng := rand.New(rand.NewSource(3))
	for i := range us {
		us[i], vs[i] = graph.Node(rng.Intn(g.NumNodes())), graph.Node(rng.Intn(g.NumNodes()))
	}
	got, _, err := cli.BatchReachable(us, vs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != pairs {
		t.Fatalf("%d answers to %d pairs", len(got), pairs)
	}
	us, vs, got = nil, nil, nil
	if _, err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	grown := live() - before
	t.Logf("the idle connection pair holds %d B more than before the batch", grown)
	if cap(cli.buf) > maxKeptBuffer || cap(cli.out) > maxKeptBuffer {
		t.Errorf("the client keeps a %d B read buffer and a %d B request buffer, want at most %d each", cap(cli.buf), cap(cli.out), maxKeptBuffer)
	}
	if grown > 4*maxKeptBuffer {
		t.Errorf("the idle connection pair holds %d B more than before the batch, want at most %d", grown, 4*maxKeptBuffer)
	}
}
