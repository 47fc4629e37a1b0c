package snapfile

import (
	"bytes"
	"errors"
	"os"
	"slices"
	"testing"

	"repro/internal/graph"
)

// The golden files were written by the encoder that still persisted G's
// locality permutation, the member rows, the pattern quotient, the 2-hop
// indexes and both row directions of every CSR, every int32 block at four
// bytes: a monolithic checkpoint of a store at epoch 6, re-encoded with G's
// permutation and the pattern quotient's 2-hop trailer added, and a
// 3-shard checkpoint as that store wrote it. The legacy diffs are the one
// in diffReach as an encoder that shipped the rebuilt pattern rows and
// wrote the label ids of a one-name table recorded it, and as the encoder
// after it, which carried the batches as four blocks of ids and flags and
// every int32 block at one, two or four bytes, did.
const (
	legacyStore       = "testdata/legacy-store.qps"
	legacySharded     = "testdata/legacy-sharded.qps"
	legacyDiffReach   = "testdata/legacy-diff-reach.qpd"
	legacyDiffBatches = "testdata/legacy-diff-batches.qpd"
)

// currentStore is legacyStore as the current encoder writes it: every
// int32 block packed at its bit width, the rows as Rice-coded gaps.
const currentStore = "testdata/store.qps"

func readGolden(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// walkBlocks returns every block of a file image, retired ones included.
func walkBlocks(t *testing.T, data []byte) []blockView {
	t.Helper()
	r, err := open(data)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []blockView
	for {
		b, ok, err := r.step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return blocks
		}
		blocks = append(blocks, b)
	}
}

// storedInts returns the int32 blocks tagged tag, widened, in file order.
func storedInts(t *testing.T, data []byte, tag uint32) [][]int32 {
	t.Helper()
	var out [][]int32
	for _, b := range walkBlocks(t, data) {
		if b.tag == tag && intKind(b.elem) {
			out = append(out, b.int32s())
		}
	}
	return out
}

// sameStoredIn fails unless the predecessor side an older encoder stored
// for the CSR at base — offsets at base+5, rows at base+6 — is the one the
// decode derived.
func sameStoredIn(t *testing.T, data []byte, what string, base uint32, c *graph.CSR) {
	t.Helper()
	off, adj := storedInts(t, data, base+5), storedInts(t, data, base+6)
	if len(off) != 1 || len(adj) != 1 {
		t.Fatalf("%s: %d stored in-offset and %d in-row blocks, want 1 each", what, len(off), len(adj))
	}
	if !slices.Equal(off[0], c.InOffsets()) || !slices.Equal(adj[0], c.InAdj()) {
		t.Fatalf("%s: the derived predecessor side differs from the stored one", what)
	}
	checkTranspose(t, what, c)
}

// retiredTags returns the tags of the retired blocks a file image carries,
// a ragged array's two blocks under one tag listed once.
func retiredTags(t *testing.T, data []byte) []uint32 {
	t.Helper()
	tags, err := RetiredTags(data)
	if err != nil {
		t.Fatal(err)
	}
	return slices.Compact(tags)
}

// TestLegacyFilesDecode: files the older encoder wrote carry every retired
// block, decode to valid parts whose derived predecessor sides, pattern
// quotient and pattern members are the ones the file stored, and re-encode
// to a file that carries none and decodes to the same parts. A diff that
// ships its pattern rows, or carries its batches as blocks of ids, is
// refused with ErrFormat: the layouts that held them are gone, and a
// follower refused one takes an image.
func TestLegacyFilesDecode(t *testing.T) {
	data := readGolden(t, legacyStore)
	want := []uint32{tagG + 5, tagG + 6, tagGPerm, tagGPerm + 1, tagReachC + 1, tagReachGr + 5, tagReachGr + 6,
		tagReachIdx, tagReachIdx + 1, tagReachIdx + 2, tagReachIdx + 3, tagReachIdx + 4,
		tagPatC + 1, tagPatC + 2, tagPatGr, tagPatGr + 2, tagPatGr + 3, tagPatGr + 4, tagPatGr + 5, tagPatGr + 6, tagPatIdx, tagPatIdx + 1, tagPatIdx + 2, tagPatIdx + 3, tagPatIdx + 4}
	if got := retiredTags(t, data); !slices.Equal(got, want) {
		t.Fatalf("golden store file carries retired tags %#x, want %#x", got, want)
	}
	p, err := DecodeStore(data)
	if err != nil {
		t.Fatal(err)
	}
	sameReach(t, p.G, p.ReachGr, p.ReachClassOf)
	sameStoredIn(t, data, "G", tagG, p.G)
	sameStoredIn(t, data, "ReachGr", tagReachGr, p.ReachGr)
	sameStoredIn(t, data, "PatternGr", tagPatGr, p.PatternGr)
	for k, want := range [][]int32{p.PatternGr.LabelIDs(), offsets(p.PatternGr), outAdj(p.PatternGr)} {
		if got := storedInts(t, data, tagPatGr+2+uint32(k)); len(got) != 1 || !slices.Equal(got[0], want) {
			t.Fatalf("PatternGr: block %#x of the derived quotient differs from the stored one", tagPatGr+2+k)
		}
	}
	off := []int32{0}
	for _, m := range p.PatternMembers {
		off = append(off, off[len(off)-1]+int32(len(m)))
	}
	if members := storedInts(t, data, tagPatC+1); len(members) != 2 || !slices.Equal(off, members[0]) || !slices.Equal(slices.Concat(p.PatternMembers...), members[1]) {
		t.Fatal("the derived pattern members differ from the stored ones")
	}
	again := EncodeStore(p)
	if got := retiredTags(t, again); got != nil {
		t.Fatalf("re-encoded store file carries retired tags %#x", got)
	}
	q, err := DecodeStore(again)
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, "G", p.G, q.G)
	sameCSR(t, "ReachGr", p.ReachGr, q.ReachGr)
	sameCSR(t, "PatternGr", p.PatternGr, q.PatternGr)
	if !slices.Equal(p.ReachClassOf, q.ReachClassOf) || !slices.Equal(p.ReachCyclic, q.ReachCyclic) || !slices.Equal(p.PatternBlockOf, q.PatternBlockOf) ||
		!slices.EqualFunc(p.PatternMembers, q.PatternMembers, slices.Equal) {
		t.Fatal("maps differ after the re-encode")
	}
	t.Logf("store: %d bytes as written, %d re-encoded", len(data), len(again))

	data = readGolden(t, legacySharded)
	if got := retiredTags(t, data); len(got) == 0 {
		t.Fatal("golden sharded file carries no retired block")
	}
	sp, err := DecodeSharded(data)
	if err != nil {
		t.Fatal(err)
	}
	for s, shard := range sp.Shards {
		base := uint32(tagShard0 + s*tagShardStr)
		sameStoredIn(t, data, "shard G", base, shard.G)
		sameStoredIn(t, data, "shard ReachGr", base+0x40, shard.ReachGr)
	}
	sameStoredIn(t, data, "summary", tagSummary, sp.Summary.S)
	sameStoredIn(t, data, "stitched", tagStitched, sp.Stitched.Q)
	again = EncodeSharded(sp)
	if got := retiredTags(t, again); got != nil {
		t.Fatalf("re-encoded sharded file carries retired tags %#x", got)
	}
	sq, err := DecodeSharded(again)
	if err != nil {
		t.Fatal(err)
	}
	for s := range sp.Shards {
		a, b := sp.Shards[s], sq.Shards[s]
		sameCSR(t, "shard G", a.G, b.G)
		sameCSR(t, "shard ReachGr", a.ReachGr, b.ReachGr)
		sameReach(t, a.G, a.ReachGr, a.ReachClassOf)
		if !slices.Equal(a.ReachClassOf, b.ReachClassOf) || !slices.Equal(a.ReachCyclic, b.ReachCyclic) {
			t.Fatalf("shard %d maps differ after the re-encode", s)
		}
	}
	sameCSR(t, "summary", sp.Summary.S, sq.Summary.S)
	sameCSR(t, "stitched", sp.Stitched.Q, sq.Stitched.Q)
	if !slices.Equal(sp.Stitched.BlockOf, sq.Stitched.BlockOf) || !slices.EqualFunc(sp.Stitched.Members, sq.Stitched.Members, slices.Equal) {
		t.Fatal("stitched map or members differ after the re-encode")
	}
	t.Logf("sharded: %d bytes as written, %d re-encoded", len(data), len(again))

	data = readGolden(t, legacyDiffReach)
	if got := storedInts(t, data, tagDiff+5); len(got) != 1 || len(got[0]) == 0 {
		t.Fatalf("legacy diff carries %d blocks of pattern row ids, want 1 that lists some", len(got))
	}
	if _, err := DecodeDiff(data); !errors.Is(err, ErrFormat) {
		t.Fatalf("a diff that ships its rows: DecodeDiff = %v, want ErrFormat", err)
	}
	data = readGolden(t, legacyDiffBatches)
	if got := storedInts(t, data, tagDiff+11); len(got) != 1 || len(got[0]) == 0 {
		t.Fatalf("legacy diff carries %d blocks of update sources, want 1 that lists some", len(got))
	}
	if _, err := DecodeDiff(data); !errors.Is(err, ErrFormat) {
		t.Fatalf("a diff that carries its batches as id blocks: DecodeDiff = %v, want ErrFormat", err)
	}
}

// TestCurrentLayoutGolden pins the current layout: the golden checkpoint
// written in it decodes to the parts the legacy one does, and the encoder
// writes those parts to the golden's bytes — a change of layout shows
// here. Its G and reach quotient carry their rows as gaps, and no block
// of it takes four bytes a value.
func TestCurrentLayoutGolden(t *testing.T) {
	data := readGolden(t, currentStore)
	want, err := DecodeStore(readGolden(t, legacyStore))
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodeStore(data)
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, "G", want.G, p.G)
	sameCSR(t, "ReachGr", want.ReachGr, p.ReachGr)
	sameCSR(t, "PatternGr", want.PatternGr, p.PatternGr)
	if !slices.Equal(want.ReachClassOf, p.ReachClassOf) || !slices.Equal(want.ReachCyclic, p.ReachCyclic) || !slices.Equal(want.PatternBlockOf, p.PatternBlockOf) {
		t.Fatal("the golden checkpoint's maps differ from the legacy one's")
	}
	if again := EncodeStore(p); !bytes.Equal(again, data) {
		t.Fatalf("the golden checkpoint re-encodes to %d bytes, not its %d", len(again), len(data))
	}
	for _, b := range walkBlocks(t, data) {
		switch {
		case b.elem == elemInt32:
			t.Fatalf("block %#x takes four bytes a value", b.tag)
		case (b.tag == tagG+4 || b.tag == tagReachGr+4) && b.elem != elemByte:
			t.Fatalf("rows block %#x is of element kind %d, not gaps", b.tag, b.elem)
		}
	}
	t.Logf("%d bytes; the legacy file took %d", len(data), len(readGolden(t, legacyStore)))
}

// outAdj returns c's successor rows, flat, in node order.
func outAdj(c *graph.CSR) []graph.Node {
	var adj []graph.Node
	for v := range c.NumNodes() {
		adj = append(adj, c.Successors(graph.Node(v))...)
	}
	return adj
}

// offsets returns the offset table of c's successor side.
func offsets(c *graph.CSR) []int32 {
	off := make([]int32, c.NumNodes()+1)
	for v := range c.NumNodes() {
		off[v+1] = off[v] + int32(c.OutDegree(graph.Node(v)))
	}
	return off
}
