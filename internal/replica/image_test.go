package replica

// Image tests: the one full-state transfer a follower takes. A bootstrap is
// one image and no frame; an install failed at any filesystem operation
// leaves a directory a follower starts from again; and a survivor that got
// ahead of a promoted sibling is repaired by the image, G included.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/store"
)

// sameState holds a follower's snapshot to its source's, array for array:
// the epoch, G, and both views with their node maps, members and cyclic
// flags.
func sameState(t *testing.T, at string, got, want *store.Snapshot) {
	t.Helper()
	switch {
	case got.Epoch != want.Epoch:
		t.Fatalf("%s: follower at epoch %d, source at %d", at, got.Epoch, want.Epoch)
	case !got.G.Equal(want.G):
		t.Fatalf("%s: G differs", at)
	case !got.Reach.Gr.Equal(want.Reach.Gr):
		t.Fatalf("%s: reach quotient differs", at)
	case !slices.Equal(got.Reach.Compressed.ClassMap(), want.Reach.Compressed.ClassMap()):
		t.Fatalf("%s: reach class map differs", at)
	case !slices.Equal(got.Reach.Compressed.CyclicClass, want.Reach.Compressed.CyclicClass):
		t.Fatalf("%s: reach cyclic flags differ", at)
	case !got.Pattern.Gr.Equal(want.Pattern.Gr):
		t.Fatalf("%s: pattern quotient differs", at)
	case !slices.Equal(got.Pattern.Compressed.ClassMap(), want.Pattern.Compressed.ClassMap()):
		t.Fatalf("%s: pattern block map differs", at)
	case !slices.EqualFunc(got.Pattern.Compressed.Members, want.Pattern.Compressed.Members, slices.Equal[[]graph.Node]):
		t.Fatalf("%s: pattern members differ", at)
	}
}

// TestBootstrapIsOneImage counts a fresh follower's bootstrap on the wire:
// exactly one image, though the source has a checkpoint and a WAL tail to
// offer, and the source reads no snapshot file — any read there fails.
func TestBootstrapIsOneImage(t *testing.T) {
	g := matrixTopologies(58)["web"]
	ship := faultfs.NewInject(nil, faultfs.Rule{Op: faultfs.OpRead, Path: "snap-"})
	lh := startLeader(t, g, ship)
	mirror := g.Clone()
	rng := rand.New(rand.NewSource(59))
	var token uint64
	for i := 0; i < 8; i++ {
		if i == 5 {
			if err := lh.store.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		batch := gen.RandomBatch(rng, mirror, 12, 0.6)
		mirror.Apply(batch)
		epoch, err := lh.cli.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		token = epoch
	}
	proxy := startEffectProxy(t, lh.srv.Addr(), proxyPlan{})
	f := startFollower(t, proxy.ln.Addr().String(), Options{})
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if e := f.Epoch(); e != token {
		t.Fatalf("bootstrapped at epoch %d, source at %d", e, token)
	}
	if images, effects := f.images.Load(), proxy.frames[server.MsgEffect].Load(); images != 1 || effects != 1 {
		t.Fatalf("the bootstrap took %d images: %d effects on the wire, want 1", images, effects)
	}
	if n := ship.Fired(); n != 0 {
		t.Fatalf("the source read a snapshot file %d times", n)
	}
	diffAgainstReference(t, "bootstrap", mirror, map[string]server.Backend{"follower": f})
}

// allOps arms a fault rule on every kind of filesystem operation.
const allOps = faultfs.OpOpen | faultfs.OpRead | faultfs.OpWrite | faultfs.OpSync | faultfs.OpRename | faultfs.OpRemove | faultfs.OpTruncate

// copyDir copies the flat directory src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// TestImageInstallAtEveryCrashPoint fails each filesystem operation of an
// image install in turn, k = 0, 1, … until an install runs out of
// operations before the fault: the install over a store that holds another
// history, ahead of the image and at an older term, and the install into an
// empty directory. After each failure the directory holds nothing, the
// replaced history whole, or the image — never the image with a WAL record
// of the replaced history above it — and a follower started over it against
// the same source ends equal to the source, array for array.
func TestImageInstallAtEveryCrashPoint(t *testing.T) {
	g := matrixTopologies(57)["social"]
	lh := startLeader(t, g, nil)
	mirror := g.Clone()
	rng := rand.New(rand.NewSource(58))
	for i := 0; i < 10; i++ {
		batch := gen.RandomBatch(rng, mirror, 12, 0.6)
		mirror.Apply(batch)
		if _, err := lh.cli.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	// A term above the replaced history's: a survivor ahead of a new leader.
	if _, err := lh.store.BumpTerm(0); err != nil {
		t.Fatal(err)
	}
	want := lh.store.Snapshot()
	img := lh.store.Effects(0, 0)[0].Bytes

	// The replaced history: 15 writes of another stream, at term 0.
	template := t.TempDir()
	s, err := store.Open(g.Clone(), &store.Options{Dir: template, Sync: store.SyncNone, CheckpointBatches: 6})
	if err != nil {
		t.Fatal(err)
	}
	other := g.Clone()
	orng := rand.New(rand.NewSource(59))
	for i := 0; i < 15; i++ {
		batch := gen.RandomBatch(orng, other, 12, 0.6)
		other.Apply(batch)
		if _, err := s.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	replaced := s.Snapshot()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for _, inPlace := range []bool{true, false} {
		name := map[bool]string{true: "in-place", false: "empty"}[inPlace]
		for k := 0; ; k++ {
			at := fmt.Sprintf("%s install failed at operation %d", name, k)
			dir := t.TempDir()
			in := faultfs.NewInject(nil)
			o := &store.Options{Dir: dir, FS: in, Sync: store.SyncNone, RecoveryInterval: -1}
			var err error
			if inPlace {
				copyDir(t, template, dir)
				s, oerr := store.Open(nil, o)
				if oerr != nil {
					t.Fatal(oerr)
				}
				in.AddRule(faultfs.Rule{Op: allOps, After: k, Count: 1})
				_, _, err = s.ApplyEffect(img)
				in.Disarm() // the install is over; Close is not under test
				s.Close()
			} else {
				in.AddRule(faultfs.Rule{Op: allOps, After: k, Count: 1})
				var s *store.Store
				s, err = store.OpenImage(img, o)
				in.Disarm()
				if err == nil {
					s.Close()
				}
			}
			fired := in.Fired() > 0
			if fired == (err == nil) {
				t.Fatalf("%s: the install returned %v after %d faults", at, err, in.Fired())
			}

			// What the failure left recovers to one whole state.
			if store.HasState(nil, dir) {
				r, err := store.Open(nil, &store.Options{Dir: dir, Sync: store.SyncNone})
				if err != nil {
					t.Fatalf("%s: recover what the failure left: %v", at, err)
				}
				sn := r.Snapshot()
				okReplaced := sn.Epoch == replaced.Epoch && sn.G.Equal(replaced.G)
				okImage := sn.Epoch == want.Epoch && sn.G.Equal(want.G)
				r.Close()
				if !okReplaced && !okImage {
					t.Fatalf("%s: the directory recovers to epoch %d, neither the replaced history's %d nor the image's %d", at, sn.Epoch, replaced.Epoch, want.Epoch)
				}
			}

			f, err := Start(Options{Dir: dir, Leader: lh.srv.Addr(), ReconnectBackoff: time.Millisecond})
			if err != nil {
				t.Fatalf("%s: start over what the failure left: %v", at, err)
			}
			if err := f.WaitCaughtUp(10 * time.Second); err != nil {
				f.Close()
				t.Fatalf("%s: %v", at, err)
			}
			sameState(t, at, f.local().Snapshot(), want)
			if err := f.Close(); err != nil {
				t.Fatalf("%s: close: %v", at, err)
			}
			if !fired {
				t.Logf("%s install: %d operations, each failed in turn", name, k)
				break
			}
		}
	}
}

// TestSurvivorAheadOfPromotionTakesImage is DESIGN.md's failover
// reproducer ("A gap, stated, not closed"), in five steps:
//  1. f1 and f2 follow the leader through 5 writes;
//  2. f1 stops tailing, and the next 10 writes reach only f2 (epoch 15);
//  3. the leader dies, and f1 is promoted at frontier 5;
//  4. f1 takes 20 writes (epoch 25);
//  5. f2 re-points to f1 and tails epochs 16–25.
//
// Promotion draws a new lineage, so f2's first round to f1 cannot chain:
// f1 sends an image, which holds G. f2's G must equal f1's at epoch 25, and
// its reach answers on Gr must equal those on its own G on every sampled
// pair.
func TestSurvivorAheadOfPromotionTakesImage(t *testing.T) {
	g := matrixTopologies(60)["social"]
	lh := startLeader(t, g, nil)
	f1 := startServedFollower(t, lh.srv.Addr(), Options{})
	f2 := startFollower(t, lh.srv.Addr()+","+f1.srv.Addr(), Options{})

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(61))
	write := func(cli *server.Client, g *graph.Graph, k int) uint64 {
		t.Helper()
		var token uint64
		for i := 0; i < k; i++ {
			batch := gen.RandomBatch(rng, g, 12, 0.6)
			g.Apply(batch)
			epoch, err := cli.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			token = epoch
		}
		return token
	}
	// 1.
	token := write(lh.cli, mirror, 5)
	awaitEpoch(t, f1.f, token, 10*time.Second)
	awaitEpoch(t, f2, token, 10*time.Second)
	// 2.
	f1.f.stopTail()
	old := mirror.Clone()
	token = write(lh.cli, old, 10)
	awaitEpoch(t, f2, token, 10*time.Second)
	if token != 15 {
		t.Fatalf("the old timeline ends at %d, want 15", token)
	}
	// 3. f2 is held off its sources until f1 has taken its writes.
	f2.stopTail()
	lh.srv.Close()
	frontier, _, err := f1.f.Promote(0)
	if err != nil || frontier != 5 {
		t.Fatalf("promoted at frontier %d, %v; want 5", frontier, err)
	}
	// 4.
	pcli, err := server.Dial(f1.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pcli.Close()
	if token = write(pcli, mirror, 20); token != 25 {
		t.Fatalf("the new timeline ends at %d, want 25", token)
	}
	// 5.
	f2.startTail()
	awaitEpoch(t, f2, 25, 10*time.Second)
	if err := f2.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, want := f2.local().Snapshot(), f1.f.local().Snapshot()
	if got.Epoch != 25 || want.Epoch != 25 {
		t.Fatalf("f2 at epoch %d, f1 at %d, want 25", got.Epoch, want.Epoch)
	}
	if !got.G.Equal(want.G) {
		t.Fatalf("f2's G differs from f1's at epoch 25 (status %+v)", f2.Status())
	}
	n := g.NumNodes()
	srng := rand.New(rand.NewSource(62))
	for i := 0; i < 4000; i++ {
		u, v := graph.Node(srng.Intn(n)), graph.Node(srng.Intn(n))
		if a, b := f2.local().Reachable(u, v), f2.local().ReachableOnG(u, v); a != b {
			t.Fatalf("pair %d: f2 answers QR(%d,%d) = %v on Gr, %v on G", i, u, v, a, b)
		}
	}
	diffAgainstReference(t, "survivor", mirror, map[string]server.Backend{"promoted": f1.f, "survivor": f2})
}
