package snapfile

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bisim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hop2"
	"repro/internal/part"
	"repro/internal/queries"
	"repro/internal/reach"
)

// buildStoreParts runs the batch compression pipeline on g and packages
// the result exactly as the durable store's checkpoint does.
func buildStoreParts(g *graph.Graph, epoch uint64, indexes bool) *StoreParts {
	csr := g.Freeze()
	rc := reach.Compress(g)
	pc := bisim.Compress(g)
	p := &StoreParts{
		Epoch:          epoch,
		G:              csr,
		GPerm:          graph.ReorderPerm(csr),
		ReachGr:        rc.Gr.Freeze(),
		ReachClassOf:   rc.ClassMap(),
		ReachMembers:   rc.Members,
		ReachCyclic:    rc.CyclicClass,
		PatternGr:      pc.Gr.Freeze(),
		PatternBlockOf: pc.ClassMap(),
		PatternMembers: pc.Members,
	}
	if indexes {
		p.ReachIndex = hop2.BuildCSR(p.ReachGr)
	}
	return p
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
	for _, indexes := range []bool{true, false} {
		g := gen.Social(rand.New(rand.NewSource(7)), 300, 1200, 4)
		want := buildStoreParts(g.Clone(), 17, indexes)
		data := EncodeStore(want)
		got, err := DecodeStore(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Epoch != 17 {
			t.Fatalf("epoch = %d", got.Epoch)
		}
		sameCSR(t, "G", want.G, got.G)
		sameCSR(t, "ReachGr", want.ReachGr, got.ReachGr)
		sameCSR(t, "PatternGr", want.PatternGr, got.PatternGr)
		if (got.ReachIndex != nil) != indexes {
			t.Fatalf("index round trip mismatch (want present=%v)", indexes)
		}

		// Query equivalence: every sampled pair answers identically on the
		// decoded artifacts, through the compressed path and (when present)
		// the 2-hop index.
		rng := rand.New(rand.NewSource(3))
		sc := queries.NewScratch(0)
		ref := queries.NewScratch(0)
		for i := 0; i < 300; i++ {
			u := graph.Node(rng.Intn(g.NumNodes()))
			v := graph.Node(rng.Intn(g.NumNodes()))
			wantAns := queries.ReachableBiCSR(want.G, ref, u, v)
			cu, cv := got.ReachClassOf[u], got.ReachClassOf[v]
			if gotAns := queries.ReachableBiCSR(got.ReachGr, sc, cu, cv); gotAns != wantAns {
				t.Fatalf("pair (%d,%d): decoded Gr says %v, G says %v", u, v, gotAns, wantAns)
			}
			if indexes {
				if gotAns := got.ReachIndex.Reachable(cu, cv); gotAns != wantAns {
					t.Fatalf("pair (%d,%d): decoded 2-hop says %v, G says %v", u, v, gotAns, wantAns)
				}
			}
		}
	}
}

// buildShardedParts mirrors the sharded store's epoch-0 publication: split,
// per-shard compression, summary and stitched quotient.
func buildShardedParts(g *graph.Graph, k int, epoch uint64, indexes bool) *ShardedParts {
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
			ReachMembers: rcs[s].Members,
			ReachCyclic:  rcs[s].CyclicClass,
		}
		if indexes {
			sp.Shards[s].ReachIndex = hop2.BuildCSR(grs[s])
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
	want := buildShardedParts(g, 3, 9, true)
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
		if got.Shards[s].ReachIndex == nil {
			t.Fatalf("shard %d index missing", s)
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
	want := buildStoreParts(g, 4, true)
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
	data := EncodeStore(buildStoreParts(g, 1, false))
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
	data := EncodeStore(buildStoreParts(g, 1, true))
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := DecodeStore(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestKindMismatchRejected(t *testing.T) {
	g := gen.ErdosRenyi(rand.New(rand.NewSource(1)), 30, 90, 2)
	data := EncodeStore(buildStoreParts(g, 1, false))
	if _, err := DecodeSharded(data); err == nil {
		t.Fatal("store snapshot accepted by sharded decoder")
	}
}

// TestStoreDecodesLegacyPatternIndex pins backward compatibility: images
// written when the store still persisted a 2-hop index over the pattern
// quotient end with that block group, and must keep decoding — to the same
// parts, the index dropped — whether the index was present or absent.
func TestStoreDecodesLegacyPatternIndex(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(11)), 200, 800, 3)
	for _, indexes := range []bool{true, false} {
		want := buildStoreParts(g.Clone(), 5, indexes)
		w := encodeStore(want)
		var legacy *hop2.Index
		if indexes {
			legacy = hop2.BuildCSR(want.PatternGr)
		}
		putIndex(w, tagPatIdx, legacy)
		got, err := DecodeStore(w.encode())
		if err != nil {
			t.Fatalf("legacy image (indexes=%v): %v", indexes, err)
		}
		sameCSR(t, "G", want.G, got.G)
		sameCSR(t, "PatternGr", want.PatternGr, got.PatternGr)
		if (got.ReachIndex != nil) != indexes {
			t.Fatalf("reach index presence = %v, want %v", got.ReachIndex != nil, indexes)
		}
	}
	// A corrupt legacy trailer is still rejected, not skipped blindly.
	want := buildStoreParts(g.Clone(), 5, false)
	w := encodeStore(want)
	w.u64(tagPatIdx+7, 0)
	if _, err := DecodeStore(w.encode()); err == nil {
		t.Fatal("trailing block with a foreign tag decoded")
	}
}
