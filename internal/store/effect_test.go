package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incbisim"
	"repro/internal/queries"
	"repro/internal/reach"
	"repro/internal/snapfile"
)

// sameViews holds a follower's snapshot to the leader's: the same epoch and
// lineage, and sameArrays.
func sameViews(t *testing.T, at string, got, want *Snapshot) {
	t.Helper()
	if got.Epoch != want.Epoch || got.Lineage != want.Lineage {
		t.Fatalf("%s: follower at %x@%d, leader at %x@%d", at, got.Lineage, got.Epoch, want.Lineage, want.Epoch)
	}
	sameArrays(t, at, got, want)
}

// sameArrays holds a snapshot to another array for array: G, both
// quotients, both node maps, both member indexes, the cyclic flags.
func sameArrays(t *testing.T, at string, got, want *Snapshot) {
	t.Helper()
	switch {
	case !got.G.Equal(want.G):
		t.Fatalf("%s: G differs", at)
	case !got.Reach.Gr.Equal(want.Reach.Gr):
		t.Fatalf("%s: reach quotient differs", at)
	case !slices.Equal(got.Reach.Compressed.ClassMap(), want.Reach.Compressed.ClassMap()):
		t.Fatalf("%s: reach class map differs", at)
	case !equalRows(reachMembers(got.Reach.Compressed), reachMembers(want.Reach.Compressed)):
		t.Fatalf("%s: reach members differ", at)
	case !slices.Equal(got.Reach.Compressed.CyclicClass, want.Reach.Compressed.CyclicClass):
		t.Fatalf("%s: reach cyclic flags differ", at)
	case !got.Pattern.Gr.Equal(want.Pattern.Gr):
		t.Fatalf("%s: pattern quotient differs", at)
	case !slices.Equal(got.Pattern.Compressed.ClassMap(), want.Pattern.Compressed.ClassMap()):
		t.Fatalf("%s: pattern block map differs", at)
	case !equalRows(got.Pattern.Compressed.Members, want.Pattern.Compressed.Members):
		t.Fatalf("%s: pattern members differ", at)
	}
}

// reachMembers lists each class's members of a reach compression.
func reachMembers(c *reach.Compressed) [][]graph.Node {
	return graph.GroupNodes(c.ClassMap(), c.NumClasses())
}

// membersReachMap derives a diff's reach map from the old compression's
// member lists: each old class maps to the new class of its smallest
// member, and the nodes that do not follow their class are the exceptions.
// It is the reference for incRCM's own diff (increach.Maintainer.View),
// which needs no member lists.
func membersReachMap(old, cur *reach.Compressed) (classMap, exNode, exClass []graph.Node) {
	newOf := cur.ClassMap()
	classMap = make([]graph.Node, old.NumClasses())
	for c, mem := range reachMembers(old) {
		classMap[c] = newOf[mem[0]]
	}
	for v, c := range old.ClassMap() {
		if newOf[v] != classMap[c] {
			exNode = append(exNode, graph.Node(v))
			exClass = append(exClass, newOf[v])
		}
	}
	return classMap, exNode, exClass
}

// TestEffectAppliedEqualsRebuilt is the effect differential. Over seeded
// histories — coalesced groups, groups that change nothing, hub rows,
// undone groups, groups of large batches — a durable follower store is fed
// only what a tail round ships: the effects the leader's ring chains from
// the follower's views, each diff carrying its group's raw batches, or an
// image. The
// leader keeps one lineage, so an image is sent only where the follower's
// own layout breaks the chain. After every group its G and both
// views equal the leader's array for array (the leader's are those
// TestPatchedEqualsRebuilt holds to a rebuild), and it holds no maintainer.
// Two more paths are forced: the follower restarts (a lineage break: the
// next round is an image), and one group goes through the raw path, as
// when a tail round's byte cut ends a round before any effect boundary — the
// follower re-derives, so its views are its own, equal to the leader's in
// meaning, and the next round brings an image.
func TestEffectAppliedEqualsRebuilt(t *testing.T) {
	histories := []struct {
		name   string
		insert float64
	}{{"mixed", 0.5}, {"insert-only", 1}, {"delete-heavy", 0.4}}
	const groups = 120
	for hi, hist := range histories {
		t.Run(hist.name, func(t *testing.T) {
			g := gen.Social(rand.New(rand.NewSource(int64(10+hi))), 1200, 1600, 3)
			mirror := g.Clone()
			leader := mustOpen(t, g.Clone(), &Options{Indexes: true})
			defer leader.Close()
			dir := t.TempDir()
			follower := mustOpen(t, g, &Options{Indexes: true, Dir: dir, Sync: SyncNone})
			defer func() { follower.Close() }()
			hs := newHistory(int64(100+hi), mirror, hist.insert)

			var log [][]graph.Update // every batch, log[e-1] is epoch e's
			images, diffs, reachDiffs := 0, 0, 0
			// catchUp ships the follower what tail rounds would: a round ends
			// where the ring's chain does, at a lineage break, and the next
			// one brings the image.
			catchUp := func(at string) {
				for round := 0; round == 0 || follower.Snapshot().Epoch < leader.Snapshot().Epoch; round++ {
					fsn := follower.Snapshot()
					effs := leader.Effects(fsn.Lineage, fsn.Epoch)
					if len(effs) == 0 || round == 2 {
						t.Fatalf("%s: round %d ships %d effects from %x@%d, leader at %x@%d", at, round, len(effs), fsn.Lineage, fsn.Epoch, leader.Snapshot().Lineage, leader.Snapshot().Epoch)
					}
					for _, e := range effs {
						before := follower.Snapshot()
						epoch, image, err := follower.ApplyEffect(e.Bytes)
						if err != nil {
							t.Fatalf("%s: apply effect through %d: %v", at, e.Epoch, err)
						}
						shipped, err := decodeEffect(e.Bytes)
						if err != nil {
							t.Fatal(err)
						}
						if epoch != e.Epoch || image != e.Image {
							t.Fatalf("%s: applied at %d (image %v), shipped %d (image %v)", at, epoch, image, e.Epoch, e.Image)
						}
						if !image && !slices.EqualFunc(shipped.diff.Batches, log[before.Epoch:e.Epoch], slices.Equal) {
							t.Fatalf("%s: the diff through %d carries other batches than its group's", at, e.Epoch)
						}
						if !image && shipped.diff.Reach != nil {
							// The leader derives the reach map in one pass;
							// read off the member lists, the bytes are the same.
							ref, rd := *shipped.diff, *shipped.diff.Reach
							rd.ClassMap, rd.ExNode, rd.ExClass = membersReachMap(before.Reach.Compressed, follower.Snapshot().Reach.Compressed)
							ref.Reach = &rd
							if !bytes.Equal(encodeDiff(shipped.lineage, &ref), e.Bytes) {
								t.Fatalf("%s: the effect through %d differs from the member-based derivation", at, e.Epoch)
							}
						}
						switch {
						case image:
							images++
						case shipped.diff.Reach != nil:
							reachDiffs++
							fallthrough
						default:
							diffs++
						}
					}
				}
				sameViews(t, at, follower.Snapshot(), leader.Snapshot())
				if follower.m != nil {
					t.Fatalf("%s: the follower holds a maintainer", at)
				}
			}
			catchUp("start")

			for i := 0; i < groups; i++ {
				group, _ := hs.group(i)
				at := fmt.Sprintf("group %d (%d batches)", i, len(group))
				applyGroup(&leader.engine, group)
				log = append(log, group...)
				switch {
				case i == 40:
					// The raw path: a round cut before any effect boundary.
					for _, b := range group {
						if _, err := follower.ApplyBatch(b); err != nil {
							t.Fatal(err)
						}
					}
					fsn, lsn := follower.Snapshot(), leader.Snapshot()
					if fsn.Lineage == lsn.Lineage || !fsn.G.Equal(lsn.G) {
						t.Fatalf("%s: the raw path must re-derive its own views over the same G", at)
					}
					checkPatternView(t, at, fsn.Pattern, mirror)
					continue
				case i == 80:
					// A restart: the recovered store is a layout of its own.
					if err := follower.Close(); err != nil {
						t.Fatal(err)
					}
					follower = mustOpen(t, nil, &Options{Dir: dir, Sync: SyncNone})
				case i%9 == 4:
					continue // the follower falls two groups behind: a chain of two
				}
				catchUp(at)
				rng := rand.New(rand.NewSource(int64(i)))
				for k := 0; k < 30; k++ {
					u, v := graph.Node(rng.Intn(mirror.NumNodes())), graph.Node(rng.Intn(mirror.NumNodes()))
					if got, want := follower.Reachable(u, v), queries.Reachable(mirror, u, v); got != want {
						t.Fatalf("%s: QR(%d,%d) = %v on the follower, want %v", at, u, v, got, want)
					}
				}
			}
			// The start, the raw round and the restart each cost an image;
			// everything else is a diff.
			if images != 3 || diffs < groups/2 || reachDiffs == 0 {
				t.Fatalf("%d images (want 3: start, raw round, restart), %d diffs (%d moved the reach view)", images, diffs, reachDiffs)
			}
			t.Logf("%d groups: %d diffs (%d moved the reach view), %d images", groups, diffs, reachDiffs, images)
		})
	}
}

// TestEffectRejected corrupts effects the way a wire or a confused source
// could and checks each is refused whole: ErrEffect, and the follower's
// epoch, views and WAL unmoved.
func TestEffectRejected(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(3)), 400, 900, 3)
	mirror := g.Clone()
	leader := mustOpen(t, g.Clone(), nil)
	defer leader.Close()
	follower := mustOpen(t, g, &Options{Dir: t.TempDir(), Sync: SyncNone})
	defer follower.Close()
	img := leader.Effects(follower.Snapshot().Lineage, 0)
	if _, _, err := follower.ApplyEffect(img[0].Bytes); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b := gen.RandomBatch(rng, mirror, 40, 0.5)
	applyGroup(&leader.engine, [][]graph.Update{b})
	eff := leader.Effects(follower.Snapshot().Lineage, 0)
	if len(eff) != 1 {
		t.Fatalf("want one diff, got %d effects", len(eff))
	}
	ef, err := decodeEffect(eff[0].Bytes)
	if err != nil || ef.diff == nil || eff[0].Image {
		t.Fatalf("want a diff, got an image or %v", err)
	}
	body := eff[0].Bytes
	flipped := slices.Clone(body)
	flipped[len(flipped)/2] ^= 0x10
	// withBatches is the diff re-encoded, CRC and all, carrying batches.
	withBatches := func(batches ...[]graph.Update) []byte {
		d := *ef.diff
		d.Batches = batches
		return encodeDiff(ef.lineage, &d)
	}
	cases := map[string][]byte{
		"bit flip":        flipped,
		"truncated":       body[:len(body)-7],
		"no batches":      withBatches(),
		"batches past it": withBatches(b, b),
		"other raw batch": withBatches(gen.RandomBatch(rng, mirror, 40, 0.5)),
	}
	before := follower.Snapshot()
	for name, c := range cases {
		_, _, err := follower.ApplyEffect(c)
		if !errors.Is(err, ErrEffect) {
			t.Fatalf("%s: ApplyEffect = %v, want ErrEffect", name, err)
		}
		if follower.Snapshot() != before || follower.batches.Load() != before.Epoch {
			t.Fatalf("%s: a rejected effect moved the follower", name)
		}
	}
	if _, _, err := follower.ApplyEffect(body); err != nil {
		t.Fatalf("the intact effect after the rejections: %v", err)
	}
	sameViews(t, "after", follower.Snapshot(), leader.Snapshot())
}

// TestEffectLiesRejected feeds a follower effects that decode — the CRC
// fits — but lie about the views: each is a real diff decoded, edited and
// re-encoded. Each lie is one that only its own check catches; it must be
// refused whole, ErrEffect and the follower unmoved, and the intact effect
// must apply after it. A lie about the rows is a digest of rows other than
// the ones the follower rebuilds; a lie about a move that leaves every
// rebuilt row as it was carries the digest of those rows.
func TestEffectLiesRejected(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(3)), 400, 900, 3)
	mirror, base := g.Clone(), g.Clone()
	leader := mustOpen(t, g.Clone(), nil)
	defer leader.Close()
	follower := mustOpen(t, g, &Options{Dir: t.TempDir(), Sync: SyncNone})
	defer follower.Close()
	img := leader.Effects(follower.Snapshot().Lineage, 0)
	if _, _, err := follower.ApplyEffect(img[0].Bytes); err != nil {
		t.Fatal(err)
	}
	// accepted is what the follower took so far, in order; twin opens a
	// second follower and feeds it the same.
	accepted := [][]byte{img[0].Bytes}
	twin := func(t *testing.T) *Store {
		f := mustOpen(t, base.Clone(), &Options{Dir: t.TempDir(), Sync: SyncNone})
		for _, b := range accepted {
			if _, _, err := f.ApplyEffect(b); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	// next applies group on the leader and returns the one effect it ships.
	next := func(group []graph.Update) []byte {
		fsn := follower.Snapshot()
		applyGroup(&leader.engine, [][]graph.Update{group})
		effs := leader.Effects(fsn.Lineage, fsn.Epoch)
		if len(effs) != 1 {
			t.Fatalf("want one effect, got %d", len(effs))
		}
		return effs[0].Bytes
	}
	lie := func(body []byte, edit func(d *snapfile.DiffParts)) []byte {
		ef, err := decodeEffect(body)
		if err != nil || ef.diff == nil {
			t.Fatalf("want a diff, got an image or %v", err)
		}
		edit(ef.diff)
		return encodeDiff(ef.lineage, ef.diff)
	}
	var body []byte // the honest effect of the group the lies are about
	refused := func(name string, b []byte) {
		t.Run(name, func(t *testing.T) {
			before := follower.Snapshot()
			_, _, err := follower.ApplyEffect(b)
			if !errors.Is(err, ErrEffect) {
				t.Fatalf("ApplyEffect = %v, want ErrEffect", err)
			}
			t.Log(err)
			if follower.Snapshot() != before || follower.batches.Load() != before.Epoch {
				t.Fatal("a rejected effect moved the follower")
			}
			// A twin told the same lie then takes the group honestly, though
			// the lie's thawed G may have written past its G's end.
			tw := twin(t)
			defer tw.Close()
			if _, _, err := tw.ApplyEffect(b); !errors.Is(err, ErrEffect) {
				t.Fatalf("the twin: ApplyEffect = %v, want ErrEffect", err)
			}
			if _, _, err := tw.ApplyEffect(body); err != nil {
				t.Fatalf("the honest group after the lie: %v", err)
			}
			sameViews(t, "honest after "+name, tw.Snapshot(), leader.Snapshot())
		})
	}
	apply := func(b []byte) {
		if _, _, err := follower.ApplyEffect(b); err != nil {
			t.Fatalf("the intact effect after the lies: %v", err)
		}
		sameViews(t, "intact", follower.Snapshot(), leader.Snapshot())
		accepted = append(accepted, b)
	}

	// Lies about the moves, on the diff of a group that changes nothing: the
	// views stay, so every lie is the whole of what the diff says.
	e := mirror.EdgeList()[0]
	noop := []graph.Update{graph.Insertion(e[0], e[1])}
	body = next(noop)
	pv, fg := follower.Snapshot().Pattern, follower.Snapshot().G
	blocks := pv.Gr.NumNodes()
	// Two blocks with one label: emptying the first into the second breaks
	// no label.
	var from, into graph.Node = -1, -1
	for p := 0; p < blocks && into < 0; p++ {
		for q := p + 1; q < blocks; q++ {
			if pv.Gr.Label(graph.Node(p)) == pv.Gr.Label(graph.Node(q)) {
				from, into = graph.Node(p), graph.Node(q)
				break
			}
		}
	}
	// A node nothing points at, not first in its block, moved into a block
	// whose first member precedes it: no row changes. other is such a block
	// of another label, same one of the node's own label; the maximum
	// bisimulation puts the node in no other block of its label, so same's
	// row is not the blocks its successors reach.
	var stray, other, same graph.Node = -1, -1, -1
	for v := graph.Node(0); int(v) < fg.NumNodes() && (other < 0 || same < 0); v++ {
		b := pv.Compressed.ClassOf(v)
		if fg.InDegree(v) > 0 || pv.Compressed.Members[b][0] == v {
			continue
		}
		other, same = -1, -1
		for q := range pv.Compressed.Members {
			switch {
			case graph.Node(q) == b || pv.Compressed.Members[q][0] > v:
			case pv.Gr.Label(graph.Node(q)) != fg.Label(v):
				other = graph.Node(q)
			default:
				same = graph.Node(q)
			}
		}
		stray = v
	}
	if into < 0 || other < 0 || same < 0 {
		t.Fatal("the graph offers no two blocks of one label or no stray node")
	}
	// unmoved are the rows of stray's block and q as they stand, which a
	// move of stray into q leaves as they are.
	unmoved := func(q graph.Node) incbisim.Rows {
		ids := []graph.Node{pv.Compressed.ClassOf(stray), q}
		slices.Sort(ids)
		return packRows(ids, []graph.Label{pv.Gr.Label(ids[0]), pv.Gr.Label(ids[1])},
			[][]graph.Node{pv.Gr.Successors(ids[0]), pv.Gr.Successors(ids[1])})
	}
	refused("block left empty", lie(body, func(d *snapfile.DiffParts) {
		d.Moved = slices.Clone(pv.Compressed.Members[from])
		d.To = slices.Repeat([]graph.Node{into}, len(d.Moved))
	}))
	refused("dropped block still holds a node", lie(body, func(d *snapfile.DiffParts) { d.Blocks-- }))
	refused("new block with no member", lie(body, func(d *snapfile.DiffParts) { d.Blocks++ }))
	refused("moved node with the wrong label", lie(body, func(d *snapfile.DiffParts) {
		d.Moved, d.To = []graph.Node{stray}, []graph.Node{other}
		r := unmoved(other)
		d.Digest = r.Digest()
	}))
	refused("moved node outside its new block's row", lie(body, func(d *snapfile.DiffParts) {
		d.Moved, d.To = []graph.Node{stray}, []graph.Node{same}
		r := unmoved(same)
		d.Digest = r.Digest()
	}))
	apply(body)

	// Lies about the rows, on a diff that moves nodes and rebuilds rows: the
	// digest of the rows the follower rebuilds, one of them edited.
	b := gen.RandomBatch(rand.New(rand.NewSource(4)), mirror, 40, 0.5)
	eff := mirror.Reduce(b)
	mirror.Apply(eff)
	body = next(b)
	ef, _ := decodeEffect(body)
	shipped := ef.diff
	srcs := make([]graph.Node, len(eff))
	for i, up := range eff {
		srcs[i] = up.From
	}
	var p incbisim.Patcher
	_, honest, err := incbisim.Patch(&p, mirror, pv, shipped.Moved, shipped.To, shipped.Blocks, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if honest.Digest() != shipped.Digest {
		t.Fatal("the rows a patch of the mirror rebuilds are not the ones the leader digested")
	}
	k := -1
	for i := range honest.IDs {
		if len(honest.Row(i)) > 0 {
			k = i
			break
		}
	}
	if len(shipped.Moved) == 0 || k < 0 {
		t.Fatalf("the diff moves %d nodes and rebuilds %d rows, none of them non-empty", len(shipped.Moved), len(honest.IDs))
	}
	// edited digests the rows with row k as edit leaves it, or without it.
	edited := func(edit func(label graph.Label, row []graph.Node) (graph.Label, []graph.Node, bool)) func(d *snapfile.DiffParts) {
		return func(d *snapfile.DiffParts) {
			var ids []graph.Node
			var labels []graph.Label
			var rows [][]graph.Node
			for i, id := range honest.IDs {
				label, row, keep := honest.Label[i], honest.Row(i), true
				if i == k {
					label, row, keep = edit(label, row)
				}
				if keep {
					ids, labels, rows = append(ids, id), append(labels, label), append(rows, row)
				}
			}
			r := packRows(ids, labels, rows)
			d.Digest = r.Digest()
		}
	}
	refused("wrong row", lie(body, edited(func(l graph.Label, row []graph.Node) (graph.Label, []graph.Node, bool) {
		return l, row[:len(row)-1], true
	})))
	refused("missing reachable row", lie(body, edited(func(graph.Label, []graph.Node) (graph.Label, []graph.Node, bool) {
		return 0, nil, false
	})))
	refused("wrong row label", lie(body, edited(func(l graph.Label, row []graph.Node) (graph.Label, []graph.Node, bool) {
		return (l + 1) % graph.Label(fg.Labels().Count()), row, true
	})))
	apply(body)
}

// packRows packs rows ids, ascending, with their labels and successor
// blocks as incbisim.Patch returns them.
func packRows(ids []graph.Node, labels []graph.Label, rows [][]graph.Node) incbisim.Rows {
	r := incbisim.Rows{IDs: ids, Label: labels, Off: []int32{0}}
	for _, row := range rows {
		r.Adj = append(r.Adj, row...)
		r.Off = append(r.Off, int32(len(r.Adj)))
	}
	return r
}

// TestEffectRingHoldsNoSpare: the ring counts its entries by length, so each
// must hold no capacity beyond it — not the leader's, whose encoder grows
// its buffer as it writes, nor a follower's, whose shipped bytes may sit in
// a larger read buffer.
func TestEffectRingHoldsNoSpare(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(7)), 400, 900, 3)
	mirror := g.Clone()
	leader := mustOpen(t, g.Clone(), nil)
	defer leader.Close()
	follower := mustOpen(t, g, nil)
	defer follower.Close()
	img := leader.Effects(0, 0)
	if _, _, err := follower.ApplyEffect(img[0].Bytes); err != nil {
		t.Fatal(err)
	}
	follower.Effects(0, 0) // records what it applies from here on
	rng := rand.New(rand.NewSource(8))
	for range 8 {
		b := gen.RandomBatch(rng, mirror, 40, 0.5)
		mirror.Apply(b)
		fsn := follower.Snapshot()
		if _, err := leader.Apply(b); err != nil {
			t.Fatal(err)
		}
		effs := leader.Effects(fsn.Lineage, fsn.Epoch)
		if len(effs) != 1 || effs[0].Image {
			t.Fatalf("want one diff, got %d effects", len(effs))
		}
		shipped := append(make([]byte, 0, 4*len(effs[0].Bytes)), effs[0].Bytes...)
		if _, _, err := follower.ApplyEffect(shipped); err != nil {
			t.Fatal(err)
		}
	}
	for name, s := range map[string]*Store{"leader": leader, "follower": follower} {
		if len(s.ring.ents) != 8 {
			t.Fatalf("%s: the ring holds %d effects, want 8", name, len(s.ring.ents))
		}
		for _, e := range s.ring.ents {
			if cap(e.b) != len(e.b) {
				t.Fatalf("%s: the effect through %d holds %d bytes in %d", name, e.epoch, len(e.b), cap(e.b))
			}
		}
	}
}

// FuzzDecodeEffect holds the effect frame parser to the wire contract:
// whatever arrives errors or decodes, never panics, and a diff that decodes
// re-encodes to a frame of the same lineage that decodes and re-encodes to
// itself. Its bases are five diffs a store recorded;
// an input picks one and a script of edits to it — every three bytes a
// little-endian 16-bit position, taken modulo the frame's length, and a
// value xored in there — after which the frame's checksum is made to fit,
// so an edit reaches the version, kind and lineage behind it. The script is
// decoded as a frame too, as arbitrary bytes. The fuzzer mutates the small
// script, not the frame, so it stays cheap. Besides a seed per base, the
// seeds edit the kind, the version and a bit of the row digest. What lies
// inside a frame is snapfile's encoding, which snapfile's FuzzDecode edits
// and reseals.
func FuzzDecodeEffect(f *testing.F) {
	g := gen.Social(rand.New(rand.NewSource(5)), 120, 300, 3)
	mirror := g.Clone()
	s, err := Open(g, nil)
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	s.Effects(0, 0) // the first call turns recording on
	rng := rand.New(rand.NewSource(6))
	var bases [][]byte
	for len(bases) < 5 {
		b := gen.RandomBatch(rng, mirror, 6, 0.6)
		mirror.Apply(b)
		sn := s.Snapshot()
		applyGroup(&s.engine, [][]graph.Update{b})
		for _, e := range s.Effects(sn.Lineage, sn.Epoch) {
			bases = append(bases, e.Bytes)
		}
	}
	for b := range bases {
		f.Add(uint8(b), []byte(nil))
	}
	f.Add(uint8(0), []byte{1, 0, kindDiff}) // kind 0, the older diff encoding
	f.Add(uint8(1), []byte{0, 0, 0x40})     // a version byte the parser does not know
	ef, err := decodeEffect(bases[0])
	if err != nil {
		f.Fatal(err)
	}
	at := bytes.Index(bases[0], binary.LittleEndian.AppendUint64(nil, ef.diff.Digest))
	f.Add(uint8(0), []byte{byte(at), byte(at >> 8), 1}) // a bit of the row digest
	f.Fuzz(func(t *testing.T, base uint8, script []byte) {
		frame := slices.Clone(bases[int(base)%len(bases)])
		for e := script; len(e) >= 3; e = e[3:] {
			frame[int(binary.LittleEndian.Uint16(e))%len(frame)] ^= e[2]
		}
		n := len(frame)
		binary.LittleEndian.PutUint32(frame[n-4:], crc32.Checksum(frame[:n-4], castagnoli))
		for _, in := range [][]byte{script, frame} {
			ef, err := decodeEffect(in)
			if err != nil || ef.diff == nil {
				continue
			}
			again := encodeDiff(ef.lineage, ef.diff)
			back, err := decodeEffect(again)
			if err != nil || back.diff == nil || back.lineage != ef.lineage {
				t.Fatalf("decoded diff of lineage %d re-encodes to a frame that does not decode to a diff of it: %v", ef.lineage, err)
			}
			if !slices.Equal(encodeDiff(back.lineage, back.diff), again) {
				t.Fatal("a diff's frame decoded and re-encoded changes")
			}
		}
	})
}
