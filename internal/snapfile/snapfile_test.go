package snapfile

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"weak"

	"repro/internal/bisim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/queries"
	"repro/internal/reach"
)

// buildStoreParts runs the batch compression pipeline on g and packages
// the result exactly as the durable store's checkpoint does.
func buildStoreParts(g *graph.Graph, epoch uint64) *StoreParts {
	rc := reach.Compress(g)
	pc := bisim.Compress(g)
	return &StoreParts{
		Epoch:          epoch,
		G:              g.Freeze(),
		ReachGr:        rc.Gr.Freeze(),
		ReachClassOf:   rc.ClassMap(),
		ReachCyclic:    rc.CyclicClass,
		PatternGr:      pc.Gr.Freeze(),
		PatternBlockOf: pc.ClassMap(),
		PatternMembers: pc.Members,
	}
}

func sameCSR(t *testing.T, what string, a, b *graph.CSR) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: size %d/%d vs %d/%d", what, a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	for v := 0; v < a.NumNodes(); v++ {
		la, lb := a.Labels().Name(a.Label(graph.Node(v))), b.Labels().Name(b.Label(graph.Node(v)))
		if la != lb {
			t.Fatalf("%s: node %d label %q vs %q", what, v, la, lb)
		}
		sa, sb := a.Successors(graph.Node(v)), b.Successors(graph.Node(v))
		if len(sa) != len(sb) {
			t.Fatalf("%s: node %d degree %d vs %d", what, v, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%s: node %d successor %d differs", what, v, i)
			}
		}
		pa, pb := a.Predecessors(graph.Node(v)), b.Predecessors(graph.Node(v))
		if len(pa) != len(pb) {
			t.Fatalf("%s: node %d in-degree %d vs %d", what, v, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s: node %d predecessor %d differs", what, v, i)
			}
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(7)), 300, 1200, 4)
	want := buildStoreParts(g.Clone(), 17)
	got, err := DecodeStore(EncodeStore(want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Epoch != 17 {
		t.Fatalf("epoch = %d", got.Epoch)
	}
	sameCSR(t, "G", want.G, got.G)
	sameCSR(t, "ReachGr", want.ReachGr, got.ReachGr)
	sameCSR(t, "PatternGr", want.PatternGr, got.PatternGr)
	if !slices.Equal(got.ReachCyclic, want.ReachCyclic) || !slices.Equal(got.PatternBlockOf, want.PatternBlockOf) {
		t.Fatal("cyclic flags or block map differ after the round trip")
	}
	sameReach(t, want.G, got.ReachGr, got.ReachClassOf)
}

// TestDecodedPartsPinNoBuffer decodes a store and a sharded snapshot and
// drops the buffers they were decoded from: nothing decoded may reach them.
func TestDecodedPartsPinNoBuffer(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(7)), 300, 1200, 4)
	store, sharded := EncodeStore(buildStoreParts(g.Clone(), 17)), EncodeSharded(buildShardedParts(g, 3, 17))
	sp, err := DecodeStore(store)
	if err != nil {
		t.Fatal(err)
	}
	shp, err := DecodeSharded(sharded)
	if err != nil {
		t.Fatal(err)
	}
	ws, wsh := weak.Make(&store[0]), weak.Make(&sharded[0])
	store, sharded = nil, nil
	runtime.GC()
	runtime.GC()
	if ws.Value() != nil || wsh.Value() != nil {
		t.Fatal("the decoded parts still reach the buffer they were decoded from")
	}
	runtime.KeepAlive(sp)
	runtime.KeepAlive(shp)
}

// sameReach samples pairs of g and fails unless the quotient gr under
// classOf answers each as g does.
func sameReach(t *testing.T, g, gr *graph.CSR, classOf []graph.Node) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	sc, ref := queries.NewScratch(0), queries.NewScratch(0)
	for i := 0; i < 300; i++ {
		u, v := graph.Node(rng.Intn(g.NumNodes())), graph.Node(rng.Intn(g.NumNodes()))
		want := queries.ReachableBiCSR(g, ref, u, v)
		if got := queries.ReachableBiCSR(gr, sc, classOf[u], classOf[v]); got != want {
			t.Fatalf("pair (%d,%d): decoded Gr says %v, G says %v", u, v, got, want)
		}
	}
}

// buildShardedParts mirrors the sharded store's epoch-0 publication: split,
// per-shard compression, summary and stitched quotient.
func buildShardedParts(g *graph.Graph, k int, epoch uint64) *ShardedParts {
	c := g.Freeze()
	p := part.Split(c, k)
	sp := &ShardedParts{
		Epoch:     epoch,
		K:         k,
		Labels:    c.Labels(),
		ShardOf:   p.ShardOf,
		NodeLabel: p.Label,
		CrossOut:  p.CrossOut,
		Shards:    make([]ShardParts, k),
	}
	locals := make([]*graph.CSR, k)
	parts := make([]*bisim.Partition, k)
	rcs := make([]*reach.Compressed, k)
	grs := make([]*graph.CSR, k)
	for s := 0; s < k; s++ {
		lg := p.Subgraph(c, s)
		locals[s] = lg.Freeze()
		parts[s] = bisim.RefinePTCSR(locals[s])
		rcs[s] = reach.Compress(lg)
		grs[s] = rcs[s].Gr.Freeze()
		sp.Shards[s] = ShardParts{
			G:            locals[s],
			ReachGr:      grs[s],
			ReachClassOf: rcs[s].ClassMap(),
			ReachCyclic:  rcs[s].CyclicClass,
		}
	}
	boundary := part.BoundaryNodes(p.CrossOut, p.CrossInDeg)
	shardBoundary := make([][]graph.Node, k)
	for _, v := range boundary {
		shardBoundary[p.ShardOf[v]] = append(shardBoundary[p.ShardOf[v]], v)
	}
	sp.Summary = part.BuildSummary(boundary, p.CrossOut, shardBoundary, p.LocalID, rcs, grs)
	sp.Stitched = part.BuildStitched(p, locals, parts, p.CrossOut, c.Labels())
	return sp
}

func TestShardedRoundTrip(t *testing.T) {
	g := gen.Citation(rand.New(rand.NewSource(5)), 260, 900, 5)
	want := buildShardedParts(g, 3, 9)
	data := EncodeSharded(want)
	got, err := DecodeSharded(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Epoch != 9 || got.K != 3 {
		t.Fatalf("epoch/K = %d/%d", got.Epoch, got.K)
	}
	for s := 0; s < 3; s++ {
		sameCSR(t, "shard G", want.Shards[s].G, got.Shards[s].G)
		sameCSR(t, "shard ReachGr", want.Shards[s].ReachGr, got.Shards[s].ReachGr)
		if !slices.Equal(got.Shards[s].ReachClassOf, want.Shards[s].ReachClassOf) || !slices.Equal(got.Shards[s].ReachCyclic, want.Shards[s].ReachCyclic) {
			t.Fatalf("shard %d reach map or cyclic flags differ", s)
		}
	}
	sameCSR(t, "summary", want.Summary.S, got.Summary.S)
	sameCSR(t, "stitched", want.Stitched.Q, got.Stitched.Q)
	if len(got.Summary.Boundary) != len(want.Summary.Boundary) {
		t.Fatalf("boundary %d vs %d", len(got.Summary.Boundary), len(want.Summary.Boundary))
	}
	for i := range want.Summary.Boundary {
		if got.Summary.Boundary[i] != want.Summary.Boundary[i] {
			t.Fatalf("boundary[%d] differs", i)
		}
	}
	for v := range want.Stitched.BlockOf {
		if got.Stitched.BlockOf[v] != want.Stitched.BlockOf[v] {
			t.Fatalf("stitched BlockOf[%d] differs", v)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	g := gen.P2P(rand.New(rand.NewSource(2)), 150, 500, 3)
	want := buildStoreParts(g, 4)
	path := t.TempDir() + "/snap.qps"
	if err := WriteStore(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 4 {
		t.Fatalf("epoch %d after the round trip, want 4", got.Epoch)
	}
	sameCSR(t, "G", want.G, got.G)
}

// TestEveryBitFlipRejected flips one bit in every byte of a small valid
// image: decoding must either fail cleanly or — never — misdecode without
// noticing. (The payload CRC makes silent acceptance impossible; this
// guards the pre-CRC header paths too.)
func TestEveryBitFlipRejected(t *testing.T) {
	g := gen.ErdosRenyi(rand.New(rand.NewSource(1)), 40, 120, 3)
	data := EncodeStore(buildStoreParts(g, 1))
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 1 << uint(i%8)
		if bytes.Equal(mut, data) {
			continue
		}
		if _, err := DecodeStore(mut); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
}

func TestTruncationsRejected(t *testing.T) {
	g := gen.ErdosRenyi(rand.New(rand.NewSource(1)), 30, 90, 2)
	data := EncodeStore(buildStoreParts(g, 1))
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := DecodeStore(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestKindMismatchRejected(t *testing.T) {
	g := gen.ErdosRenyi(rand.New(rand.NewSource(1)), 30, 90, 2)
	data := EncodeStore(buildStoreParts(g, 1))
	if _, err := DecodeSharded(data); err == nil {
		t.Fatal("store snapshot accepted by sharded decoder")
	}
}

// TestStoreDecodesLegacyPatternIndex pins backward compatibility: images
// written when the store still persisted a 2-hop index over the pattern
// quotient end with that block group, and must keep decoding to the same
// parts. A retired block is skipped unread, so garbage bodies pass too;
// a trailing block with any other tag is still rejected.
func TestStoreDecodesLegacyPatternIndex(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(11)), 200, 800, 3)
	want := buildStoreParts(g.Clone(), 5)
	for _, present := range []bool{true, false} {
		w := encodeStore(want, nil)
		if present {
			w.u64(tagPatIdx, 1)
			w.int32s(tagPatIdx+1, []int32{-7, 1 << 30})
			w.bools(tagPatIdx+2, []bool{true})
			w.rows(tagPatIdx+3, [][]int32{{99}, {-1}})
			w.rows(tagPatIdx+4, nil)
		} else {
			w.u64(tagPatIdx, 0)
		}
		got, err := DecodeStore(w.encode())
		if err != nil {
			t.Fatalf("legacy image (index present=%v): %v", present, err)
		}
		sameCSR(t, "G", want.G, got.G)
		sameCSR(t, "PatternGr", want.PatternGr, got.PatternGr)
	}
	w := encodeStore(want, nil)
	w.u64(tagPatIdx+7, 0)
	if _, err := DecodeStore(w.encode()); err == nil {
		t.Fatal("trailing block with a foreign tag decoded")
	}
}

// TestPatchedEncodesAsFreeze: a CSR frozen epoch after epoch off a graph
// being written, its rows scattered over an arena shared with the epochs
// before it, encodes to the same bytes as a compact snapshot of the same
// graph — for G and for a pattern quotient whose rows and labels were
// patched.
func TestPatchedEncodesAsFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := gen.Social(rng, 400, 1600, 4)
	parts := buildStoreParts(g.Clone(), 9)
	var qp graph.Patcher
	for round := 0; round < 30; round++ {
		g.Apply(gen.RandomBatch(rng, g, 8, 0.5))
		g.Freeze()
	}
	patched := g.Freeze()
	// The quotient: a few rows redrawn, relabeled, over its own node set.
	q := parts.PatternGr.Thaw()
	nq := q.NumNodes()
	label := slices.Clone(parts.PatternGr.LabelIDs())
	var ids []graph.Node
	for v := 0; v < nq; v += 7 {
		for _, w := range slices.Clone(q.Successors(graph.Node(v))) {
			q.RemoveEdge(graph.Node(v), w)
		}
		q.AddEdge(graph.Node(v), graph.Node(rng.Intn(nq)))
		label[v] = label[(v+1)%nq]
		ids = append(ids, graph.Node(v))
	}
	pq := qp.Patch(parts.PatternGr, nq, ids,
		func(k int) []graph.Node { return q.Successors(ids[k]) },
		func(k int) graph.Label { return label[ids[k]] })
	rows := make([][]graph.Node, nq)
	for v := range rows {
		rows[v] = q.Successors(graph.Node(v))
	}

	twin := *parts
	twin.G, twin.PatternGr = g.Clone().Freeze(), graph.BuildFromSortedAdj(q.Labels(), label, rows).Freeze()
	parts.G, parts.PatternGr = patched, pq
	data := EncodeStore(parts)
	if !bytes.Equal(data, EncodeStore(&twin)) {
		t.Fatal("a patched CSR encodes to other bytes than its Freeze twin")
	}
	got, err := DecodeStore(data)
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, "G", twin.G, got.G)
	sameCSR(t, "PatternGr", twin.PatternGr, got.PatternGr)
}
