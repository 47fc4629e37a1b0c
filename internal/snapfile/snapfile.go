// Package snapfile implements the durable store's snapshot codec: a
// versioned, checksummed, flat binary container holding what recovery
// reads of one epoch — the CSR of G, the reachability quotient with its
// node mapping and cyclic flags (the paper's ⟨R, F⟩; reachability needs no
// post-processing), the pattern quotient with its node mapping and the
// member index Expand reads, and (for the sharded store) the per-shard
// epoch vector, boundary summary and stitched quotient. Nothing derived
// from these is written: a 2-hop index is rebuilt from the quotient on
// first use, and a reach member list is GroupNodes over the node mapping.
//
// # Retired blocks
//
// Older encoders also wrote G's locality permutation, the reach member
// rows and 2-hop indexes over both quotients. Those tags are retired: the
// reader steps over such a block wherever it appears, without looking at
// its body, so one decode path serves old and new files alike.
//
// # Layout: slice, don't decode
//
// The file is a 48-byte header, a sequence of typed array blocks, and a
// trailing CRC-32C over the payload. Every block is a 16-byte descriptor
// (tag, element kind, count) followed by the raw little-endian element
// data padded to 8 bytes, so every block body is 8-aligned relative to the
// file start. The loader reads the file into one 8-aligned buffer, checks
// the checksum, and hands out []int32 views that alias the buffer
// directly — loading a snapshot costs one sequential read plus an O(|V|+|E|)
// bounds-validation scan, never a per-element decode or per-row allocation.
// (The same property makes the layout mmap-ready: nothing in a block body
// needs rewriting to be used in place.) On big-endian hosts the views fall
// back to copy-and-swap, preserving the on-disk format.
//
// # Integrity and safety
//
// Accidental corruption is caught by the header and payload checksums and
// by the magic/version gate. Beyond that, every decoded structure is
// re-validated against the invariants the read paths rely on for memory
// safety (offset monotonicity, id ranges, partition consistency), so even
// an adversarial file that forges its checksums yields an error, never a
// panic — the property the fuzz targets pin down.
package snapfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
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
)

// String names the kind for manifests and error messages.
func (k Kind) String() string {
	switch k {
	case KindStore:
		return "store"
	case KindSharded:
		return "sharded"
	default:
		return fmt.Sprintf("kind(%d)", uint32(k))
	}
}

// version 2 added the locality-permutation block of G (tagGPerm, since
// retired); version-1 files are rejected with a clear error. Dropping a
// retired block needs no new version: readers skip it.
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

// hostLE reports whether this machine is little-endian, enabling the
// zero-copy slice views; the on-disk format is little-endian either way.
var hostLE = binary.NativeEndian.Uint16([]byte{0x01, 0x00}) == 1

const (
	elemInt32 = 1
	elemByte  = 2
	elemU64   = 3
)

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
	w := &writer{kind: kind, epoch: epoch, base: len(dst)}
	w.buf = append(slices.Grow(dst, headerSize+1<<16), make([]byte, headerSize)...)
	return w
}

// block appends a block descriptor; the caller appends body bytes and then
// calls pad.
func (w *writer) block(tag uint32, elem uint8, count int) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, tag)
	w.buf = append(w.buf, elem, 0, 0, 0)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(count))
	w.blocks++
}

func (w *writer) pad() {
	for (len(w.buf)-w.base)%8 != 0 {
		w.buf = append(w.buf, 0)
	}
}

// int32s writes an int32 array block. On little-endian hosts the body is
// one bulk copy of the slice's memory.
func (w *writer) int32s(tag uint32, v []int32) {
	w.block(tag, elemInt32, len(v))
	if len(v) > 0 {
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

// bytes writes a raw byte array block.
func (w *writer) bytes(tag uint32, v []byte) {
	w.block(tag, elemByte, len(v))
	w.buf = append(w.buf, v...)
	w.pad()
}

// u64 writes a single-scalar block (flags, counts).
func (w *writer) u64(tag uint32, v uint64) {
	w.block(tag, elemU64, 1)
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
	payload []byte // 8-aligned backing; block bodies are aliased from it
	pos     int
	left    uint64 // blocks remaining
}

// open verifies the header and payload checksums of a complete file image
// and returns a reader positioned at the first block. data must be
// 8-aligned for zero-copy views; misaligned input (possible under the
// fuzzer) is copied into an aligned buffer first.
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
	if uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 != 0 {
		aligned := alignedBuf(len(data))
		copy(aligned, data)
		payload = aligned[headerSize : headerSize+int(payloadLen)]
	}
	return &reader{kind: kind, epoch: epoch, payload: payload, left: blocks}, nil
}

// next consumes the next block that is not retired, checking its tag and
// element kind, and returns the body view.
func (r *reader) next(tag uint32, elem uint8) ([]byte, int, error) {
	b, ok, err := r.block()
	switch {
	case err != nil:
		return nil, 0, err
	case !ok:
		return nil, 0, fmt.Errorf("%w: block %d read past declared block count", ErrFormat, tag)
	case b.tag != tag || b.elem != elem:
		return nil, 0, fmt.Errorf("%w: block (tag %d, elem %d), want (tag %d, elem %d)", ErrFormat, b.tag, b.elem, tag, elem)
	}
	return b.body, b.count, nil
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
	body  []byte
	count int
}

// block consumes block descriptors and bodies, stepping over retired
// blocks, and returns the first other one; ok is false when none is left.
// A retired block's body is not looked at: the payload checksum covered
// it, and nothing reads it.
func (r *reader) block() (b blockView, ok bool, err error) {
	for ; r.left > 0; r.left-- {
		if r.pos+blockHeader > len(r.payload) {
			return b, false, fmt.Errorf("%w: truncated block descriptor", ErrFormat)
		}
		h := r.payload[r.pos:]
		b.tag, b.elem = binary.LittleEndian.Uint32(h[0:4]), h[4]
		count := binary.LittleEndian.Uint64(h[8:16])
		var size uint64
		switch b.elem {
		case elemInt32:
			size = 4
		case elemByte:
			size = 1
		case elemU64:
			size = 8
		default:
			return b, false, fmt.Errorf("%w: block %d has unknown element kind %d", ErrFormat, b.tag, b.elem)
		}
		// Elements are at least one byte, so a legitimate count can never
		// exceed the payload size; rejecting early keeps the size
		// arithmetic below overflow-free.
		if count > uint64(len(r.payload)) {
			return b, false, fmt.Errorf("%w: block %d claims %d elements in a %d-byte payload", ErrFormat, b.tag, count, len(r.payload))
		}
		body := count * size
		padded := (body + 7) &^ 7
		if padded > uint64(len(r.payload)-r.pos-blockHeader) {
			return b, false, fmt.Errorf("%w: block %d claims %d bytes with %d left", ErrFormat, b.tag, body, len(r.payload)-r.pos-blockHeader)
		}
		start := r.pos + blockHeader
		r.pos = start + int(padded)
		if !retired(b.tag) {
			r.left--
			b.body, b.count = r.payload[start:start+int(body)], int(count)
			return b, true, nil
		}
	}
	return b, false, nil
}

// int32s returns the next int32 block, aliasing the file buffer on
// little-endian hosts.
func (r *reader) int32s(tag uint32) ([]int32, error) {
	body, count, err := r.next(tag, elemInt32)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, nil
	}
	if hostLE {
		return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(body))), count), nil
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(body[4*i:]))
	}
	return out, nil
}

// bytes returns the next byte block as a view.
func (r *reader) bytes(tag uint32) ([]byte, error) {
	body, _, err := r.next(tag, elemByte)
	return body, err
}

// u64 returns the next scalar block.
func (r *reader) u64(tag uint32) (uint64, error) {
	body, count, err := r.next(tag, elemU64)
	if err != nil {
		return 0, err
	}
	if count != 1 {
		return 0, fmt.Errorf("%w: scalar block %d holds %d values", ErrFormat, tag, count)
	}
	return binary.LittleEndian.Uint64(body), nil
}

// bools returns the next bool block (copied: Go bools must be 0 or 1 in
// memory, which a raw view could violate).
func (r *reader) bools(tag uint32) ([]bool, error) {
	body, err := r.bytes(tag)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(body))
	for i, b := range body {
		out[i] = b != 0
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
		if off[i+1] < off[i] {
			return nil, fmt.Errorf("%w: string offsets decrease at %d", ErrFormat, i)
		}
		out[i] = string(blob[off[i]:off[i+1]])
	}
	return out, nil
}

// rows reads a ragged array written by writer.rows; rows alias the flat
// block.
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
		if off[i+1] < off[i] {
			return nil, fmt.Errorf("%w: row offsets decrease at %d", ErrFormat, i)
		}
		out[i] = flat[off[i]:off[i+1]:off[i+1]]
	}
	return out, nil
}

// alignedBuf allocates an 8-aligned byte buffer of the given size.
func alignedBuf(size int) []byte {
	backing := make([]uint64, (size+7)/8)
	if size == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), size)
}

// readFileAligned reads a whole file into an 8-aligned buffer so the
// zero-copy int32 views are correctly aligned.
func readFileAligned(fsys faultfs.FS, path string) ([]byte, error) {
	st, err := fsys.Stat(path)
	if err != nil {
		return nil, err
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := alignedBuf(int(st.Size()))
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Verify re-reads the snapshot at path and checks its header and payload
// checksums without decoding any blocks, returning the bytes read — the
// scrubber's rate-accounting unit. Damage is reported wrapping ErrFormat.
func Verify(path string) (int64, error) { return VerifyFS(faultfs.Disk, path) }

// VerifyFS is Verify over an explicit filesystem.
func VerifyFS(fsys faultfs.FS, path string) (int64, error) {
	data, err := readFileAligned(fsys, path)
	if err != nil {
		return 0, err
	}
	if _, err := open(data); err != nil {
		return int64(len(data)), err
	}
	return int64(len(data)), nil
}
