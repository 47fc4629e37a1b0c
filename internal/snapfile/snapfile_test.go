package snapfile

import (
	"bytes"
	"errors"
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

// checkTranspose fails unless c's predecessor side is the transpose of its
// successor side: the same edges, every row ascending.
func checkTranspose(t *testing.T, what string, c *graph.CSR) {
	t.Helper()
	n := c.NumNodes()
	want := make([][]graph.Node, n)
	for u := range n {
		for _, w := range c.Successors(graph.Node(u)) {
			want[w] = append(want[w], graph.Node(u))
		}
	}
	for v := range n {
		if got := c.Predecessors(graph.Node(v)); !slices.Equal(got, want[v]) {
			t.Fatalf("%s: node %d has predecessors %v, the successor rows give %v", what, v, got, want[v])
		}
	}
	if len(c.InAdj()) != c.NumEdges() {
		t.Fatalf("%s: %d predecessor entries for %d edges", what, len(c.InAdj()), c.NumEdges())
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
		w := encodeStore(want)
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
	w := encodeStore(want)
	w.u64(tagPatIdx+7, 0)
	if _, err := DecodeStore(w.encode()); err == nil {
		t.Fatal("trailing block with a foreign tag decoded")
	}
}

// TestPatchedEncodesAsFreeze: a CSR frozen epoch after epoch off a graph
// being written, its rows scattered over an arena shared with the epochs
// before it, encodes to the same bytes as a compact snapshot of the same
// graph — for G in a store file, and for a quotient whose rows and labels
// were patched as a CSR block group.
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
	twin.G = g.Clone().Freeze()
	parts.G = patched
	data := EncodeStore(parts)
	if !bytes.Equal(data, EncodeStore(&twin)) {
		t.Fatal("a patched G encodes to other bytes than its Freeze twin")
	}
	got, err := DecodeStore(data)
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, "G", twin.G, got.G)

	frozen := graph.BuildFromSortedAdj(q.Labels(), label, rows).Freeze()
	var images [2][]byte
	for i, c := range []*graph.CSR{pq, frozen} {
		w := newWriter(KindStore, 9, nil)
		putCSR(w, tagG, c, c.Labels())
		images[i] = w.encode()
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Fatal("a patched quotient encodes to other bytes than its Freeze twin")
	}
	r, err := open(images[0])
	if err != nil {
		t.Fatal(err)
	}
	gq, err := readCSR(r, tagG, frozen.Labels())
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, "quotient", frozen, gq)
}

// TestIntBlockWidths: an int32 block is stored at the exact bit width that
// holds every value unsigned, at least one bit, 32 for any negative value,
// and reads back as written, on the fast unpack path and off it. Only the
// int32 reader accepts the narrow kinds: the byte reader still demands its
// own, and the int32 reader refuses it.
func TestIntBlockWidths(t *testing.T) {
	for _, c := range []struct {
		v     int32
		n     int
		width uint
	}{{0, 7, 3}, {255, 7, 8}, {256, 7, 9}, {65535, 7, 16}, {65536, 7, 17}, {1 << 30, 7, 31}, {-1, 7, 32},
		{5000, 300, 13}, {1<<31 - 1, 300, 31}, {1, 0, 1}} {
		want := make([]int32, c.n)
		for i := range want {
			want[i] = []int32{3, c.v, 0, 1, 2, c.v, 7}[i%7]
		}
		w := newWriter(KindStore, 1, nil)
		w.int32s(0x7, want)
		data := w.encode()
		if blocks := walkBlocks(t, data); len(blocks) != 1 || elemBits(blocks[0].elem, uint8(blocks[0].width)) != c.width {
			t.Fatalf("value %d: blocks %+v, want one of width %d", c.v, blocks, c.width)
		}
		r, err := open(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.int32s(0x7)
		if err != nil || len(got) != len(want) || len(want) > 0 && !slices.Equal(got, want) {
			t.Fatalf("value %d: read %v, %v", c.v, got, err)
		}
		if err := r.end(); err != nil {
			t.Fatal(err)
		}
		if r, err = open(data); err != nil {
			t.Fatal(err)
		}
		if _, err := r.bytes(0x7); err == nil {
			t.Fatalf("value %d: the byte reader accepted an int32 block", c.v)
		}
	}
	// Older encoders wrote eight and sixteen bits as one and two bytes a
	// value; the int32 reader still widens both. The values are below 256,
	// so each one's low byte is all that is set.
	want := []int32{3, 200, 0, 1, 2, 255, 7, 9, 130}
	for _, elem := range []uint8{elemU8, elemU16} {
		w := newWriter(KindStore, 1, nil)
		w.block(0x7, elem, 0, len(want))
		size := int(elemBits(elem, 0) / 8)
		body := w.grow(size * len(want))
		for i, x := range want {
			body[size*i] = byte(x)
		}
		w.pad()
		r, err := open(w.encode())
		if err != nil {
			t.Fatal(err)
		}
		if got, err := r.int32s(0x7); err != nil || !slices.Equal(got, want) {
			t.Fatalf("element kind %d: read %v, %v", elem, got, err)
		}
	}
	w := newWriter(KindStore, 1, nil)
	w.bytes(0x7, []byte{1, 2})
	r, err := open(w.encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.int32s(0x7); err == nil {
		t.Fatal("the int32 reader accepted a byte block")
	}
}

// TestCSRFromDegrees builds one CSR, with a hub of out-degree 299, from
// its out-degrees: it must be the CSR the degrees came from, with the
// transpose for its predecessor side. Degrees that no longer cover the rows
// (the hub's cut to 255), overrun them or are negative must fail.
func TestCSRFromDegrees(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(4)), 300, 1500, 3)
	for v := 1; v < g.NumNodes(); v++ {
		g.AddEdge(0, graph.Node(v))
	}
	c := g.Freeze()
	deg := make([]int32, c.NumNodes())
	for v := range deg {
		deg[v] = int32(c.OutDegree(graph.Node(v)))
	}
	got, err := graph.CSRFromDegrees(c.Labels(), c.LabelIDs(), deg, outAdj(c))
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, "from degrees", c, got)
	checkTranspose(t, "from degrees", got)
	for _, bad := range []struct {
		what string
		deg  int32
	}{{"undershoot the rows", 255}, {"overrun the rows", 300}, {"are negative", -1}} {
		d := slices.Clone(deg)
		d[0] = bad.deg
		if _, err := graph.CSRFromDegrees(c.Labels(), c.LabelIDs(), d, outAdj(c)); err == nil {
			t.Fatalf("degrees that %s decoded", bad.what)
		}
	}
}

// TestDerivedPatternRefusesBadMaps: the decode derives the pattern
// quotient from G and the block map, so a block map that leaves a block id
// unused, puts two labels in one block or names an id out of range is
// refused with ErrFormat, never a panic; the map it was edited from decodes
// to the quotient bisim.Compress built.
func TestDerivedPatternRefusesBadMaps(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(11)), 200, 800, 3)
	want := buildStoreParts(g.Clone(), 5)
	got, err := DecodeStore(EncodeStore(want))
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, "PatternGr", want.PatternGr, got.PatternGr)
	if !slices.EqualFunc(got.PatternMembers, want.PatternMembers, slices.Equal) {
		t.Fatal("derived members differ from the compression's")
	}
	c, of := want.G, want.PatternBlockOf
	top := slices.Max(of)
	other := slices.IndexFunc(of, func(b int32) bool { return c.Label(want.PatternMembers[top][0]) != c.Label(want.PatternMembers[b][0]) })
	if other < 0 {
		t.Fatal("every block carries the last block's label")
	}
	for _, bad := range []struct {
		what string
		edit func(of []int32)
	}{
		{"a block id hole", func(of []int32) {
			for v := range of {
				if of[v] >= 3 {
					of[v]++
				}
			}
		}},
		{"a mixed-label block", func(of []int32) {
			for _, v := range want.PatternMembers[top] {
				of[v] = of[other]
			}
		}},
		{"an id past |V|", func(of []int32) { of[0] = int32(len(of)) }},
		{"a negative id", func(of []int32) { of[0] = -1 }},
	} {
		parts := *want
		parts.PatternBlockOf = slices.Clone(of)
		bad.edit(parts.PatternBlockOf)
		if _, err := DecodeStore(EncodeStore(&parts)); !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: DecodeStore = %v, want ErrFormat", bad.what, err)
		}
	}
}

// TestOneLabelCSR: a CSR whose private table holds one name is written
// without its label ids and reads back with every node under that name; a
// flag that claims so for a CSR without a one-name private table, or
// without degrees, is refused.
func TestOneLabelCSR(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(3)), 150, 600, 3)
	gr := reach.Compress(g).Gr.Freeze()
	if gr.Labels().Count() != 1 {
		t.Fatalf("the reach quotient's table holds %d names", gr.Labels().Count())
	}
	w := newWriter(KindStore, 1, nil)
	putCSR(w, tagG, gr, nil)
	data := w.encode()
	if got := storedInts(t, data, tagG+2); got != nil {
		t.Fatalf("a one-label CSR wrote %d label-id blocks", len(got))
	}
	r, err := open(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := readCSR(r, tagG, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, "one-label", gr, back)

	one, two := gr.Labels(), graph.NewLabels()
	two.Intern("a")
	two.Intern("b")
	deg := make([]int32, gr.NumNodes())
	for v := range deg {
		deg[v] = int32(gr.OutDegree(graph.Node(v)))
	}
	for _, bad := range []struct {
		what    string
		flags   uint64
		private *graph.Labels
	}{
		{"a two-name private table", csrOneLabel | csrDegrees | csrPrivateLabels, two},
		{"the shared table", csrOneLabel | csrDegrees, nil},
		{"an offset table", csrOneLabel | csrPrivateLabels, one},
	} {
		w := newWriter(KindStore, 1, nil)
		w.u64(tagG, bad.flags)
		if bad.private != nil {
			w.strings(tagG+1, bad.private.Names())
		}
		w.int32s(tagG+3, deg)
		w.int32s(tagG+4, outAdj(gr))
		r, err := open(w.encode())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := readCSR(r, tagG, one); !errors.Is(err, ErrFormat) {
			t.Fatalf("one label over %s: readCSR = %v, want ErrFormat", bad.what, err)
		}
	}
}

// TestRowsAsGaps: rows that sit next to their sources code their first
// entries as zigzag gaps, and rows spread over the ids code them as ids;
// a gap far above the rest, whose unary part runs past a 64-bit word,
// round-trips through the long-code paths of the writer and the reader.
func TestRowsAsGaps(t *testing.T) {
	const n = 5000
	labels := graph.NewLabels()
	labels.Intern("a")
	for _, c := range []struct {
		name   string
		row    func(v int) []graph.Node
		zigzag bool
	}{
		{"local", func(v int) []graph.Node { return []graph.Node{graph.Node((v + 1) % n)} }, true},
		{"spread", func(v int) []graph.Node { return []graph.Node{graph.Node(v * 7919 % n)} }, false},
		{"long run", func(v int) []graph.Node {
			if v == 0 {
				return []graph.Node{1, 2, n - 1}
			}
			return []graph.Node{graph.Node((v + 1) % n)}
		}, true},
	} {
		out := make([][]graph.Node, n)
		for v := range out {
			out[v] = c.row(v)
			slices.Sort(out[v])
		}
		g := graph.BuildFromSortedAdj(labels, make([]graph.Label, n), out).Freeze()
		if plan := planRows(g); plan.zigzag != c.zigzag {
			t.Fatalf("%s: first entries as zigzag gaps %v, want %v (k = %d)", c.name, plan.zigzag, c.zigzag, plan.k)
		}
		w := newWriter(KindStore, 1, nil)
		putCSR(w, tagG, g, labels)
		r, err := open(w.encode())
		if err != nil {
			t.Fatal(err)
		}
		got, err := readCSR(r, tagG, labels)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sameCSR(t, c.name, g, got)
	}
}
