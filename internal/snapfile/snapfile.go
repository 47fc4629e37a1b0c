// Package snapfile is the one binary codec for what the durable store
// writes and ships: checkpoints, the images a follower installs, and the
// diffs it applies between them (diff.go). A file is a versioned,
// checksummed, flat binary container. A checkpoint or an image holds what
// recovery reads of one epoch — the CSR of G, the reachability quotient
// with its node mapping and cyclic flags (the paper's ⟨R, F⟩; reachability
// needs no post-processing), the pattern view's node mapping, and (for the
// sharded store) the per-shard epoch vector, boundary summary and stitched
// quotient. Nothing derivable from these is written: a CSR is stored as its
// successor side alone (label ids, out-degrees, flat rows) and its
// predecessor side is one transposition on load; the label ids of a CSR
// whose private table holds one name are all that name's; the pattern
// quotient is a function of G and the node mapping (bisimilar nodes have
// equal successor-block sets), made on load as a view is made anywhere
// (incbisim.Build), and its member index is one counting sort over the
// mapping; a 2-hop index is rebuilt from the quotient on first use, and a
// reach member list is GroupNodes over the node mapping.
//
// # Retired blocks
//
// Older encoders also wrote G's locality permutation, the reach and
// pattern member rows, the pattern quotient and its always-empty cyclic
// flags, 2-hop indexes over both quotients and the predecessor side of
// every CSR. Those tags are retired: the reader steps over such a block
// wherever it appears, without looking at its body, so one decode path
// serves old and new files alike. Their CSRs carry an offset table where
// new files carry out-degrees, and label ids where new files carry a
// one-name table alone; flag bits in each CSR's leading block tell the
// forms apart.
//
// # Layout: blocks at their bit widths, rows as gaps
//
// The file is a 48-byte header, a sequence of typed array blocks, and a
// trailing CRC-32C over the payload. Every block is a 16-byte descriptor
// (tag, element kind, a width byte, count) followed by the element data
// padded to 8 bytes, so every block body is 8-aligned relative to the file
// start. An int32 array is stored at the exact bit width that holds every
// value unsigned, at least one bit: one OR over the values picks it. At 32
// bits (any negative value) it is a plain little-endian array of four bytes
// a value; at any narrower width it is packed, that width in the
// descriptor's width byte, the bits of bits.go. So node ids below 2^14 take
// fourteen bits and 16 label ids four. A CSR's rows (codec.go) are sorted
// and hold each id once, so they are written as gaps, each an entry minus
// the one before minus one, in one Rice code per CSR after each row's first
// entry; the CSR's flag block holds the Rice parameter and whether a first
// entry is an id or a zigzag gap from the row's source, both chosen by
// counting the bits each would take (planRows). The loader reads the file,
// checks the checksum, and widens each int32 block into an array of its own
// — one memmove for a four-byte block on a little-endian host, one load a
// value otherwise, with no alignment asked of the input — and decodes each
// CSR's rows from their gaps. Loading a snapshot thus costs one sequential
// read, one decoding pass per block, an O(|V|+|E|) validation scan and the
// transpositions, never a per-row allocation. Nothing decoded aliases the
// input: once a decode returns, the buffer it read (a file, or an image a
// follower was shipped) can be collected while the decoded arrays serve.
//
// The batch codec (batch.go) is the encoding of one update batch wherever
// one is stored or sent: a WAL record, a client's apply request and, one
// per epoch, a diff's batches. Its ids take the bit width of the largest,
// its insert flags a bit each.
//
// # Compatibility
//
// A reader accepts every element kind an older encoder wrote, CSRs whose
// rows are ids, and files that carry retired blocks. A reader older than
// the packed element kind rejects a file that uses it with ErrFormat
// (unknown element kind), as one older than the narrow kinds rejects
// those and one that predates the derived pattern quotient rejects a file
// without it (the blocks end where it expects the quotient's), so
// followers must be upgraded before their leader ships them an image. A
// diff lives only on the wire; its decoder accepts only what its encoder
// writes, and refuses a diff in an older layout (one that shipped the
// rebuilt pattern rows, or carried its batches as blocks of ids and
// flags), so that the follower takes an image instead. DecodeBatch reads
// the older batch form, nine bytes an update, as well as the current one,
// so WAL segments an older store wrote replay and older clients can still
// apply; an older server refuses the current form, so servers are
// upgraded before their clients.
//
// # Integrity and safety
//
// Accidental corruption is caught by the header and payload checksums and
// by the magic/version gate. Beyond that, every decoded structure is
// re-validated against the invariants the read paths rely on for memory
// safety (offset monotonicity, id ranges, partition consistency), so even
// an adversarial file that forges its checksums yields an error, never a
// panic — the property the fuzz targets pin down. The predecessor sides,
// the pattern quotient and the pattern members are derived, so they agree
// with what they are derived from by construction; a block map whose ids
// leave a block empty or put two labels in one is refused.
package snapfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/faultfs"
)

// Kind discriminates what a snapshot file holds.
type Kind uint32

const (
	// KindStore is a monolithic Store snapshot.
	KindStore Kind = 1
	// KindSharded is a ShardedStore snapshot.
	KindSharded Kind = 2
	// KindDiff is one group's change to a Store's views (diff.go).
	KindDiff Kind = 3
)

// String names the kind for manifests and error messages.
func (k Kind) String() string {
	switch k {
	case KindStore:
		return "store"
	case KindSharded:
		return "sharded"
	case KindDiff:
		return "diff"
	default:
		return fmt.Sprintf("kind(%d)", uint32(k))
	}
}

// version 2 added the locality-permutation block of G (tagGPerm, since
// retired); version-1 files are rejected with a clear error. Dropping a
// retired block needs no new version: readers skip it. Nor did the narrow
// element kinds: a reader that predates them rejects them as unknown.
const (
	version     = 2
	headerSize  = 48
	blockHeader = 16
)

var magic = [8]byte{'Q', 'P', 'G', 'S', 'N', 'A', 'P', '1'}

// ErrFormat reports a file that is not a valid snapshot: wrong magic or
// version, checksum mismatch, truncation, or any structural violation
// found while decoding.
var ErrFormat = errors.New("snapfile: invalid snapshot")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLE reports whether this machine is little-endian, where a four-byte
// int32 block is one bulk copy of the slice's memory each way; the encoding
// is little-endian either way.
var hostLE = binary.NativeEndian.Uint16([]byte{0x01, 0x00}) == 1

// Element kinds. An int32 array is stored at the exact bit width that
// holds every value unsigned: elemInt32 at 32 or when a value is
// negative, elemPacked at any width from 1 to 31, which the block
// descriptor's sixth byte holds. Older files hold elemU8 and elemU16
// blocks, one and two bytes a value; any int32 reader accepts all four.
const (
	elemInt32  = 1
	elemByte   = 2
	elemU64    = 3
	elemU8     = 4
	elemU16    = 5
	elemPacked = 6
)

// elemBits is the bit width of an element kind, whose descriptor holds
// width, and 0 for an unknown kind or a packed width outside 1..32.
func elemBits(elem, width uint8) uint {
	switch elem {
	case elemByte, elemU8:
		return 8
	case elemU16:
		return 16
	case elemInt32:
		return 32
	case elemU64:
		return 64
	case elemPacked:
		if width >= 1 && width <= 32 {
			return uint(width)
		}
	}
	return 0
}

// intKind reports whether elem is one of the int32 array kinds.
func intKind(elem uint8) bool {
	return elem == elemInt32 || elem == elemU8 || elem == elemU16 || elem == elemPacked
}

// writer accumulates array blocks for one snapshot file, appended to what
// buf held when it was made: the file starts at base, with its header's
// bytes reserved for encode to fill in.
type writer struct {
	kind   Kind
	epoch  uint64
	buf    []byte
	base   int
	blocks uint64
}

func newWriter(kind Kind, epoch uint64, dst []byte) *writer {
	return &writer{kind: kind, epoch: epoch, base: len(dst), buf: append(dst, make([]byte, headerSize)...)}
}

// block appends a block descriptor; the caller appends body bytes and then
// calls pad. width is a packed block's bit width, 0 for every other kind.
func (w *writer) block(tag uint32, elem, width uint8, count int) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, tag)
	w.buf = append(w.buf, elem, width, 0, 0)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(count))
	w.blocks++
}

func (w *writer) pad() {
	for (len(w.buf)-w.base)%8 != 0 {
		w.buf = append(w.buf, 0)
	}
}

// int32s writes an int32 array block at the exact bit width that holds
// every value unsigned, at least one: one OR over the values picks it. At
// 32 the body is one bulk copy of the slice's memory on little-endian
// hosts; every narrower width is packed.
func (w *writer) int32s(tag uint32, v []int32) {
	var top uint32
	for _, x := range v {
		top |= uint32(x)
	}
	if width := max(bits.Len32(top), 1); width < 32 {
		w.block(tag, elemPacked, uint8(width), len(v))
		w.buf = pack(w.buf, v, uint(width))
	} else {
		w.block(tag, elemInt32, 0, len(v))
		if hostLE {
			w.buf = append(w.buf, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))...)
		} else {
			for _, x := range v {
				w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(x))
			}
		}
	}
	w.pad()
}

// grow extends the buffer by n bytes and returns them for the caller to
// fill.
func (w *writer) grow(n int) []byte {
	at := len(w.buf)
	w.buf = slices.Grow(w.buf, n)[:at+n]
	return w.buf[at:]
}

// bytes writes a raw byte array block.
func (w *writer) bytes(tag uint32, v []byte) {
	w.block(tag, elemByte, 0, len(v))
	w.buf = append(w.buf, v...)
	w.pad()
}

// u64 writes a single-scalar block (flags, counts).
func (w *writer) u64(tag uint32, v uint64) {
	w.block(tag, elemU64, 0, 1)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// bools writes a bool array as one byte per element.
func (w *writer) bools(tag uint32, v []bool) {
	b := make([]byte, len(v))
	for i, x := range v {
		if x {
			b[i] = 1
		}
	}
	w.bytes(tag, b)
}

// strings writes a string table as an offsets block plus a blob block.
func (w *writer) strings(tag uint32, v []string) {
	off := make([]int32, len(v)+1)
	total := 0
	for i, s := range v {
		total += len(s)
		off[i+1] = int32(total)
	}
	blob := make([]byte, 0, total)
	for _, s := range v {
		blob = append(blob, s...)
	}
	w.int32s(tag, off)
	w.bytes(tag, blob)
}

// rows writes a ragged [][]int32 as an offsets block plus a flat block.
func (w *writer) rows(tag uint32, v [][]int32) {
	off := make([]int32, len(v)+1)
	total := 0
	for i, row := range v {
		total += len(row)
		off[i+1] = int32(total)
	}
	flat := make([]int32, 0, total)
	for _, row := range v {
		flat = append(flat, row...)
	}
	w.int32s(tag, off)
	w.int32s(tag, flat)
}

// encode fills in the header and appends the payload checksum, completing
// the file image in place.
func (w *writer) encode() []byte {
	payload := w.buf[w.base+headerSize:]
	h := append(w.buf[w.base:w.base], magic[:]...)
	h = binary.LittleEndian.AppendUint32(h, version)
	h = binary.LittleEndian.AppendUint32(h, uint32(w.kind))
	h = binary.LittleEndian.AppendUint64(h, w.epoch)
	h = binary.LittleEndian.AppendUint64(h, w.blocks)
	h = binary.LittleEndian.AppendUint64(h, uint64(len(payload)))
	h = binary.LittleEndian.AppendUint32(h, 0) // reserved
	binary.LittleEndian.AppendUint32(h, crc32.Checksum(h, castagnoli))
	return binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(payload, castagnoli))
}

// reader walks the block sequence of a verified payload.
type reader struct {
	kind    Kind
	epoch   uint64
	payload []byte
	pos     int
	left    uint64 // blocks remaining
}

// open verifies the header and payload checksums of a complete file image
// and returns a reader positioned at the first block.
func open(data []byte) (*reader, error) {
	if len(data) < headerSize+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any snapshot", ErrFormat, len(data))
	}
	if [8]byte(data[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if crc32.Checksum(data[:44], castagnoli) != binary.LittleEndian.Uint32(data[44:48]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrFormat)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrFormat, v, version)
	}
	kind := Kind(binary.LittleEndian.Uint32(data[12:16]))
	epoch := binary.LittleEndian.Uint64(data[16:24])
	blocks := binary.LittleEndian.Uint64(data[24:32])
	payloadLen := binary.LittleEndian.Uint64(data[32:40])
	if payloadLen != uint64(len(data)-headerSize-4) {
		return nil, fmt.Errorf("%w: payload length %d in a %d-byte file", ErrFormat, payloadLen, len(data))
	}
	payload := data[headerSize : headerSize+int(payloadLen)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[headerSize+int(payloadLen):]) {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrFormat)
	}
	return &reader{kind: kind, epoch: epoch, payload: payload, left: blocks}, nil
}

// next consumes the next block that is not retired, checking its tag and
// element kind, and returns it. An int32 reader (elem elemInt32) accepts
// every int32 width; every other reader demands its exact kind.
func (r *reader) next(tag uint32, elem uint8) (blockView, error) {
	b, ok, err := r.block()
	switch {
	case err != nil:
		return b, err
	case !ok:
		return b, fmt.Errorf("%w: block %d read past declared block count", ErrFormat, tag)
	case b.tag != tag || b.elem != elem && !(elem == elemInt32 && intKind(b.elem)):
		return b, fmt.Errorf("%w: block (tag %d, elem %d), want (tag %d, elem %d)", ErrFormat, b.tag, b.elem, tag, elem)
	}
	return b, nil
}

// end checks that nothing but retired blocks follows the last block read.
func (r *reader) end() error {
	b, ok, err := r.block()
	if err == nil && ok {
		err = fmt.Errorf("%w: unexpected block %d after the last", ErrFormat, b.tag)
	}
	return err
}

// blockView is one block as block hands it out.
type blockView struct {
	tag   uint32
	elem  uint8
	width uint // a packed block's bit width
	body  []byte
	count int
}

// block consumes blocks, stepping over retired ones, and returns the first
// other one; ok is false when none is left. A retired block's body is not
// looked at: the payload checksum covered it, and nothing reads it.
func (r *reader) block() (b blockView, ok bool, err error) {
	for {
		if b, ok, err = r.step(); err != nil || !ok || !retired(b.tag) {
			return b, ok, err
		}
	}
}

// step consumes the next block descriptor and body, retired or not; ok is
// false when none is left.
func (r *reader) step() (b blockView, ok bool, err error) {
	if r.left == 0 {
		return b, false, nil
	}
	if r.pos+blockHeader > len(r.payload) {
		return b, false, fmt.Errorf("%w: truncated block descriptor", ErrFormat)
	}
	h := r.payload[r.pos:]
	b.tag, b.elem, b.width = binary.LittleEndian.Uint32(h[0:4]), h[4], uint(h[5])
	count := binary.LittleEndian.Uint64(h[8:16])
	size := uint64(elemBits(b.elem, h[5]))
	if size == 0 {
		return b, false, fmt.Errorf("%w: block %d has unknown element kind %d (width %d)", ErrFormat, b.tag, b.elem, h[5])
	}
	// Elements are at least one bit, so a legitimate count can never
	// exceed the payload's bits; rejecting early keeps the size arithmetic
	// below overflow-free.
	if count > 8*uint64(len(r.payload)) {
		return b, false, fmt.Errorf("%w: block %d claims %d elements in a %d-byte payload", ErrFormat, b.tag, count, len(r.payload))
	}
	body := (count*size + 7) / 8
	padded := (body + 7) &^ 7
	if padded > uint64(len(r.payload)-r.pos-blockHeader) {
		return b, false, fmt.Errorf("%w: block %d claims %d bytes with %d left", ErrFormat, b.tag, body, len(r.payload)-r.pos-blockHeader)
	}
	start := r.pos + blockHeader
	r.pos = start + int(padded)
	r.left--
	b.body, b.count = r.payload[start:start+int(body)], int(count)
	return b, true, nil
}

// RetiredTags returns the tags, in file order, of the retired blocks the
// snapshot file image data carries: blocks older encoders wrote that a
// reader skips. A file this package writes carries none.
func RetiredTags(data []byte) ([]uint32, error) {
	r, err := open(data)
	if err != nil {
		return nil, err
	}
	var tags []uint32
	for {
		b, ok, err := r.step()
		if err != nil || !ok {
			return tags, err
		}
		if retired(b.tag) {
			tags = append(tags, b.tag)
		}
	}
}

// int32s returns the next int32 block widened into an array of its own.
func (r *reader) int32s(tag uint32) ([]int32, error) {
	b, err := r.next(tag, elemInt32)
	if err != nil {
		return nil, err
	}
	return b.int32s(), nil
}

// int32s widens an int32 block of any width into an array of its own.
func (b blockView) int32s() []int32 {
	if b.count == 0 {
		return nil
	}
	out := make([]int32, b.count)
	switch b.elem {
	case elemPacked:
		unpack(out, b.body, b.width)
	case elemU8:
		out := out[:len(b.body)]
		for i, x := range b.body {
			out[i] = int32(x)
		}
	case elemU16:
		// Four values per 8-byte load; a load per value made a whole
		// decode about 8 % slower.
		body := b.body[:2*len(out)]
		i := 0
		for ; i+4 <= len(out); i += 4 {
			x := binary.LittleEndian.Uint64(body[2*i:])
			o := out[i : i+4 : i+4]
			o[0], o[1], o[2], o[3] = int32(uint16(x)), int32(uint16(x>>16)), int32(uint16(x>>32)), int32(uint16(x>>48))
		}
		for ; i < len(out); i++ {
			out[i] = int32(binary.LittleEndian.Uint16(body[2*i:]))
		}
	default:
		if hostLE {
			copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), 4*b.count), b.body)
		} else {
			for i := range out {
				out[i] = int32(binary.LittleEndian.Uint32(b.body[4*i:]))
			}
		}
	}
	return out
}

// bytes returns the next byte block as a view of the payload, which its
// callers copy out of.
func (r *reader) bytes(tag uint32) ([]byte, error) {
	b, err := r.next(tag, elemByte)
	return b.body, err
}

// u64 returns the next scalar block.
func (r *reader) u64(tag uint32) (uint64, error) {
	b, err := r.next(tag, elemU64)
	if err != nil {
		return 0, err
	}
	if b.count != 1 {
		return 0, fmt.Errorf("%w: scalar block %d holds %d values", ErrFormat, tag, b.count)
	}
	return binary.LittleEndian.Uint64(b.body), nil
}

// bools returns the next bool block, refusing a byte other than the 0 or 1
// writer.bools writes.
func (r *reader) bools(tag uint32) ([]bool, error) {
	body, err := r.bytes(tag)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(body))
	for i, b := range body {
		if b > 1 {
			return nil, fmt.Errorf("%w: bool %d of block %d is %d", ErrFormat, i, tag, b)
		}
		out[i] = b == 1
	}
	return out, nil
}

// strings reads a string table written by writer.strings.
func (r *reader) strings(tag uint32) ([]string, error) {
	off, err := r.int32s(tag)
	if err != nil {
		return nil, err
	}
	blob, err := r.bytes(tag)
	if err != nil {
		return nil, err
	}
	if len(off) == 0 {
		return nil, nil
	}
	n := len(off) - 1
	if off[0] != 0 || int(off[n]) != len(blob) {
		return nil, fmt.Errorf("%w: string offsets span [%d,%d] over a %d-byte blob", ErrFormat, off[0], off[n], len(blob))
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		if off[i+1] < off[i] || int(off[i+1]) > len(blob) {
			return nil, fmt.Errorf("%w: string offsets decrease or overrun at %d", ErrFormat, i)
		}
		out[i] = string(blob[off[i]:off[i+1]])
	}
	return out, nil
}

// rows reads a ragged array written by writer.rows; rows alias one flat
// array.
func (r *reader) rows(tag uint32) ([][]int32, error) {
	off, err := r.int32s(tag)
	if err != nil {
		return nil, err
	}
	flat, err := r.int32s(tag)
	if err != nil {
		return nil, err
	}
	if len(off) == 0 {
		return nil, nil
	}
	n := len(off) - 1
	if off[0] != 0 || int(off[n]) != len(flat) {
		return nil, fmt.Errorf("%w: row offsets span [%d,%d] over %d elements", ErrFormat, off[0], off[n], len(flat))
	}
	out := make([][]int32, n)
	for i := 0; i < n; i++ {
		if off[i+1] < off[i] || int(off[i+1]) > len(flat) {
			return nil, fmt.Errorf("%w: row offsets decrease or overrun at %d", ErrFormat, i)
		}
		out[i] = flat[off[i]:off[i+1]:off[i+1]]
	}
	return out, nil
}

// Verify re-reads the snapshot at path and checks its header and payload
// checksums without decoding any blocks, returning the bytes read — the
// scrubber's rate-accounting unit. Damage is reported wrapping ErrFormat.
func Verify(path string) (int64, error) { return VerifyFS(faultfs.Disk, path) }

// VerifyFS is Verify over an explicit filesystem.
func VerifyFS(fsys faultfs.FS, path string) (int64, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if _, err := open(data); err != nil {
		return int64(len(data)), err
	}
	return int64(len(data)), nil
}
