package snapfile

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// FuzzDecode drives the three decoders over edited files. Its bases are
// valid store and sharded images whose int32 blocks are packed at their bit
// widths and whose rows are Rice-coded gaps, the files older encoders
// wrote, with every int32 block at four bytes and retired blocks, and two
// diffs a store recorded, one with a reach part and one without; an input
// picks a base and a script of edits to it (see edit).
// After the edits the image is resealed — its payload length and both
// checksums recomputed — so that a mutation reaches the block walk and the
// validators behind the checksums instead of failing them; the script
// itself is decoded too, as arbitrary bytes. The script, not the image, is
// what the fuzzer mutates and minimizes, so both stay cheap on 40 KB bases.
// Any input must produce a clean error or a valid decode: never a panic,
// never an out-of-range structure, every CSR's predecessor side the
// transpose of its successor side, the pattern members the grouping of
// the block map, the pattern quotient's rows and labels the ones its
// blocks' first members give, and a diff that decodes re-encoded to bytes
// that decode to the same parts, its batches included. Besides a seed per
// base, the seeds edit the store file the current encoder writes where the
// new format's decoding derives: its block map (an id past |V|, a hole, two
// labels in a block) and its reach quotient's one-label flag, and its
// bit-level blocks (see below); three more set a byte of a recorded diff's
// row digest, a batch update's source past |V| and a batch's id width. The
// decoders' validation layer is exactly
// what keeps a forged file from crashing the query paths later. A kept
// input names its base by index modulo len(bases), so a base added to the
// list moves the kept inputs: re-record their base bytes to keep what each
// one edits.
func FuzzDecode(f *testing.F) {
	small := gen.Social(rand.New(rand.NewSource(1)), 60, 200, 3)
	wide := gen.Social(rand.New(rand.NewSource(2)), 300, 700, 3)
	bases := [][]byte{
		EncodeStore(buildStoreParts(small.Clone(), 3)), // node ids at six bits
		readGolden(f, legacyStore),                     // four bytes, offset tables, retired blocks
		EncodeSharded(buildShardedParts(small, 2, 5)),
		readGolden(f, legacySharded),
		EncodeStore(buildStoreParts(wide, 4)), // node ids at nine bits
		readGolden(f, diffReach),
		readGolden(f, diffPattern),
	}
	for b := range bases {
		f.Add(uint8(b), []byte(nil))
	}
	f.Add(uint8(0), []byte{0, 0x40, 0x00, 0x10})                // a bit of the first block's body flipped
	f.Add(uint8(4), []byte{2, 0x00, 0x01, 0, 1, 0x48, 0x00, 7}) // a cut at byte 256, then byte 72 set
	last := small.NumNodes() - 1
	for _, e := range [][3]int{{tagPatC, 0, 200}, {tagPatC, last, last}, {tagPatC, 0, 1}, {tagReachGr, 0, csrPrivateLabels | csrDegrees}} {
		f.Add(uint8(0), setByte(f, bases[0], uint32(e[0]), e[1], byte(e[2])))
	}
	f.Add(uint8(5), setByte(f, bases[5], tagDiff+9, 7, 0))
	f.Add(uint8(5), setByte(f, bases[5], tagDiff+14, batchHeader, 0xff)) // the first update's source past |V|
	f.Add(uint8(5), setByte(f, bases[5], tagDiff+14, 4, 0x7f))           // a batch id width of 63
	// The current encoding's bit-level blocks: a packed block's width byte
	// (G's label ids), G's Rice parameter and first-entry rule, G's rows
	// with their byte count cut or the file cut inside them, and a run of
	// zero bits in them that makes a gap past |V|.
	f.Add(uint8(0), setByte(f, bases[0], tagG+2, 5-blockHeader, 40))
	f.Add(uint8(0), setByte(f, bases[0], tagG, 1, 29))
	f.Add(uint8(0), xorByte(f, bases[0], tagG, 0, csrZigzagFirst))
	f.Add(uint8(4), setByte(f, bases[4], tagG+4, 8-blockHeader, 100))
	f.Add(uint8(4), editByte(f, 2, bases[4], tagG+4, 40, 0))
	f.Add(uint8(4), append(setByte(f, bases[4], tagG+4, 40, 0), setByte(f, bases[4], tagG+4, 41, 0)...))
	f.Fuzz(func(t *testing.T, base uint8, edits []byte) {
		checkDecodes(t, edits)
		checkDecodes(t, edit(bases[int(base)%len(bases)], edits))
	})
}

// setByte returns the edit that sets byte i of the body of the block tagged
// tag in image to val; a negative i counts back into its descriptor.
func setByte(f *testing.F, image []byte, tag uint32, i int, val byte) []byte {
	return editByte(f, 1, image, tag, i, val)
}

// xorByte is setByte with the byte xored with val.
func xorByte(f *testing.F, image []byte, tag uint32, i int, val byte) []byte {
	return editByte(f, 0, image, tag, i, val)
}

// editByte returns the edit op makes at byte i of the body of the block
// tagged tag in image.
func editByte(f *testing.F, op byte, image []byte, tag uint32, i int, val byte) []byte {
	r, err := open(image)
	if err != nil {
		f.Fatal(err)
	}
	for {
		start := headerSize + r.pos + blockHeader
		b, ok, err := r.step()
		if err != nil || !ok {
			f.Fatalf("no block %#x: %v", tag, err)
		}
		if b.tag == tag {
			return []byte{op, byte(start + i), byte((start + i) >> 8), val}
		}
	}
}

// edit applies a script of edits to a copy of image and reseals it. Every
// four bytes of the script are one edit: an op, a little-endian 16-bit
// position taken modulo the image's length, and a value. Op 0 (mod 4) xors
// the byte at the position with the value, 1 sets it, 2 cuts the image
// there, and 3 inserts the value before it.
func edit(image, script []byte) []byte {
	out := slices.Clone(image)
	for ; len(script) >= 4 && len(out) > 0; script = script[4:] {
		pos, val := int(binary.LittleEndian.Uint16(script[1:]))%len(out), script[3]
		switch script[0] % 4 {
		case 0:
			out[pos] ^= val
		case 1:
			out[pos] = val
		case 2:
			out = out[:pos]
		case 3:
			out = slices.Insert(out, pos, val)
		}
	}
	return reseal(out)
}

// reseal sets the header's payload length and both checksums of data to
// match its bytes, in place, unless it is too short to hold a header.
func reseal(data []byte) []byte {
	if len(data) < headerSize+4 {
		return data
	}
	end := len(data) - 4
	binary.LittleEndian.PutUint64(data[32:40], uint64(end-headerSize))
	binary.LittleEndian.PutUint32(data[44:48], crc32.Checksum(data[:44], castagnoli))
	binary.LittleEndian.PutUint32(data[end:], crc32.Checksum(data[headerSize:end], castagnoli))
	return data
}

// checkDecodes decodes data as every kind and holds a decode that
// succeeds to the invariants it claims to validate.
func checkDecodes(t *testing.T, data []byte) {
	t.Helper()
	if p, err := DecodeStore(data); err == nil {
		n := p.G.NumNodes()
		for _, c := range p.ReachClassOf {
			if int(c) < 0 || int(c) >= p.ReachGr.NumNodes() {
				t.Fatalf("accepted store snapshot with class %d of %d", c, p.ReachGr.NumNodes())
			}
		}
		if len(p.PatternBlockOf) != n {
			t.Fatalf("accepted store snapshot with %d block entries for %d nodes", len(p.PatternBlockOf), n)
		}
		if want := graph.GroupNodes(p.PatternBlockOf, p.PatternGr.NumNodes()); !slices.EqualFunc(p.PatternMembers, want, slices.Equal) {
			t.Fatal("accepted store snapshot whose pattern members are not the grouping of its block map")
		}
		checkPatternRows(t, p)
		checkTranspose(t, "G", p.G)
		checkTranspose(t, "ReachGr", p.ReachGr)
		checkTranspose(t, "PatternGr", p.PatternGr)
	}
	if p, err := DecodeSharded(data); err == nil {
		for v, s := range p.ShardOf {
			if int(s) < 0 || int(s) >= p.K {
				t.Fatalf("accepted sharded snapshot with node %d in shard %d of %d", v, s, p.K)
			}
		}
		for _, sp := range p.Shards {
			checkTranspose(t, "shard G", sp.G)
			checkTranspose(t, "shard ReachGr", sp.ReachGr)
		}
		checkTranspose(t, "summary", p.Summary.S)
		checkTranspose(t, "stitched", p.Stitched.Q)
	}
	if d, err := DecodeDiff(data); err == nil {
		again, err := DecodeDiff(AppendDiff(nil, d))
		if err != nil {
			t.Fatalf("decoded diff re-encodes to bytes that do not decode: %v", err)
		}
		if !sameDiff(d, again) {
			t.Fatal("decoded diff re-encodes to a different diff")
		}
		if d.Reach != nil {
			checkTranspose(t, "diff ReachGr", d.Reach.Gr)
		}
	}
}

// checkPatternRows fails unless every block of p's pattern view is
// non-empty and single-labelled and its quotient row is its first member's
// successor blocks, sorted and each once, with the member's label.
func checkPatternRows(t *testing.T, p *StoreParts) {
	t.Helper()
	for b, mem := range p.PatternMembers {
		if len(mem) == 0 {
			t.Fatalf("accepted store snapshot with empty pattern block %d", b)
		}
		var want []graph.Node
		for _, w := range p.G.Successors(mem[0]) {
			want = append(want, p.PatternBlockOf[w])
		}
		slices.Sort(want)
		want = slices.Compact(want)
		if got := p.PatternGr.Successors(graph.Node(b)); !slices.Equal(got, want) {
			t.Fatalf("pattern block %d has row %v, its first member gives %v", b, got, want)
		}
		for _, v := range mem {
			if l := p.G.Label(v); l != p.PatternGr.Label(graph.Node(b)) {
				t.Fatalf("pattern block %d is labelled %d, its member %d %d", b, p.PatternGr.Label(graph.Node(b)), v, l)
			}
		}
	}
}

// sameDiff reports whether a and b hold the same parts.
func sameDiff(a, b *DiffParts) bool {
	ca, cb := *a, *b
	ca.Reach, cb.Reach = nil, nil
	if !reflect.DeepEqual(ca, cb) || (a.Reach == nil) != (b.Reach == nil) {
		return false
	}
	if a.Reach == nil {
		return true
	}
	ra, rb := *a.Reach, *b.Reach
	ra.Gr, rb.Gr = nil, nil
	return reflect.DeepEqual(ra, rb) && a.Reach.Gr.Equal(b.Reach.Gr)
}
