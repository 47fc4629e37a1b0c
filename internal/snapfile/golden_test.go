package snapfile

import (
	"encoding/binary"
	"os"
	"slices"
	"testing"
)

// The golden files were written by the encoder that still persisted G's
// locality permutation, the reach member rows and the 2-hop indexes: a
// monolithic checkpoint of a store at epoch 6, re-encoded with G's
// permutation and the pattern quotient's 2-hop trailer added, and a
// 3-shard checkpoint as that store wrote it.
const (
	legacyStore   = "testdata/legacy-store.qps"
	legacySharded = "testdata/legacy-sharded.qps"
)

func readGolden(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// blockTags lists the tag of every block of a file image, retired ones
// included, by walking the descriptors.
func blockTags(t *testing.T, data []byte) []uint32 {
	t.Helper()
	var tags []uint32
	size := map[uint8]uint64{elemInt32: 4, elemByte: 1, elemU64: 8}
	for pos := headerSize; pos < len(data)-4; {
		tag, elem := binary.LittleEndian.Uint32(data[pos:]), data[pos+4]
		n := binary.LittleEndian.Uint64(data[pos+8:])
		tags = append(tags, tag)
		pos += blockHeader + int((n*size[elem]+7)&^7)
	}
	return tags
}

func retiredTags(tags []uint32) []uint32 {
	var out []uint32
	for _, tag := range tags {
		if retired(tag) {
			out = append(out, tag)
		}
	}
	return slices.Compact(out)
}

// TestLegacyFilesDecode: files the older encoder wrote carry every retired
// block, decode to valid parts, and re-encode to a file that carries none
// and decodes to the same parts.
func TestLegacyFilesDecode(t *testing.T) {
	data := readGolden(t, legacyStore)
	want := []uint32{tagGPerm, tagGPerm + 1, tagReachC + 1, tagReachIdx, tagReachIdx + 1, tagReachIdx + 2, tagReachIdx + 3, tagReachIdx + 4,
		tagPatIdx, tagPatIdx + 1, tagPatIdx + 2, tagPatIdx + 3, tagPatIdx + 4}
	if got := retiredTags(blockTags(t, data)); !slices.Equal(got, want) {
		t.Fatalf("golden store file carries retired tags %#x, want %#x", got, want)
	}
	p, err := DecodeStore(data)
	if err != nil {
		t.Fatal(err)
	}
	sameReach(t, p.G, p.ReachGr, p.ReachClassOf)
	again := EncodeStore(p)
	if got := retiredTags(blockTags(t, again)); got != nil {
		t.Fatalf("re-encoded store file carries retired tags %#x", got)
	}
	q, err := DecodeStore(again)
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, "G", p.G, q.G)
	sameCSR(t, "ReachGr", p.ReachGr, q.ReachGr)
	sameCSR(t, "PatternGr", p.PatternGr, q.PatternGr)
	if !slices.Equal(p.ReachClassOf, q.ReachClassOf) || !slices.Equal(p.ReachCyclic, q.ReachCyclic) || !slices.Equal(p.PatternBlockOf, q.PatternBlockOf) {
		t.Fatal("maps differ after the re-encode")
	}
	t.Logf("store: %d bytes as written, %d re-encoded", len(data), len(again))

	data = readGolden(t, legacySharded)
	if got := retiredTags(blockTags(t, data)); len(got) == 0 {
		t.Fatal("golden sharded file carries no retired block")
	}
	sp, err := DecodeSharded(data)
	if err != nil {
		t.Fatal(err)
	}
	again = EncodeSharded(sp)
	if got := retiredTags(blockTags(t, again)); got != nil {
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
	sameCSR(t, "stitched", sp.Stitched.Q, sq.Stitched.Q)
	t.Logf("sharded: %d bytes as written, %d re-encoded", len(data), len(again))
}
