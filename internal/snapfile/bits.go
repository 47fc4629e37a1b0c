package snapfile

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// This file holds the bit-level codes: int32 arrays packed at their exact
// bit width, and the Rice code a CSR's successor rows are written in as
// gaps (codec.go). Bits are numbered from the least significant bit of each
// byte up, byte after byte, so a value that starts at bit p is read by
// loading the eight bytes from p/8 on little-endian and shifting right by
// p%8: every value of at most 57 bits comes out of one load.

// emit is the bit writer: it adds the n ≤ 56 low bits of code to the
// fill < 8 bits of acc, stores acc's eight bytes at buf[at:] and returns
// what is left past the whole bytes: acc's bits, their count and the next
// byte. No branch depends on a code's length; buf must run eight bytes
// past the last bit written. Its callers keep acc, fill and at in locals:
// through a pointer the same writer took three times as long.
func emit(buf []byte, acc uint64, fill uint, at int, code uint64, n uint) (uint64, uint, int) {
	acc |= code << (fill & 63)
	fill += n
	binary.LittleEndian.PutUint64(buf[at:], acc)
	return acc >> (fill &^ 7 & 63), fill & 7, at + int(fill>>3)
}

// riceZeros emits the leading zeros of a Rice code of q zeros and
// parameter k 32 at a time, until the code is at most 56 bits long, and
// returns how many are left. It is out of line: a code that long is rare,
// and its loop inlined would slow the common one.
//
//go:noinline
func riceZeros(q, k uint, buf []byte, acc uint64, fill uint, at int) (uint, uint64, uint, int) {
	for ; q+k >= 56; q -= 32 {
		acc, fill, at = emit(buf, acc, fill, at, 0, 32)
	}
	return q, acc, fill, at
}

// load returns the eight bytes of b from byte at on, little-endian, the
// bytes past b's end read as zero.
func load(b []byte, at uint) uint64 {
	if at+8 <= uint(len(b)) {
		return binary.LittleEndian.Uint64(b[at:])
	}
	var t [8]byte
	if at < uint(len(b)) {
		copy(t[:], b[at:])
	}
	return binary.LittleEndian.Uint64(t[:])
}

// load32 is load for four bytes.
func load32(b []byte, at uint) uint32 {
	if at+4 <= uint(len(b)) {
		return binary.LittleEndian.Uint32(b[at:])
	}
	return uint32(load(b, at))
}

// bitReader reads what emit wrote. Past the end of its buffer
// it reads zero bits; whoever reads checks p against 8·len(buf) when done.
type bitReader struct {
	buf []byte
	p   uint
}

// peek returns the bits from p on: at least 57 of them are the buffer's.
func (r *bitReader) peek() uint64 { return load(r.buf, r.p>>3) >> (r.p & 7) }

// get reads n ≤ 57 bits.
func (r *bitReader) get(n uint) uint64 {
	v := r.peek() & (1<<n - 1)
	r.p += n
	return v
}

// rice reads one Rice code of parameter k ≤ 31, in one load when the code
// is at most 57 bits long. ok is false when its zero run leaves the buffer
// or makes a value of 2^32 or more.
func (r *bitReader) rice(k uint) (g uint64, ok bool) {
	x := r.peek()
	if q := uint(bits.TrailingZeros64(x)); q+1+k <= 57 {
		r.p += q + 1 + k
		return uint64(q)<<k | x>>(q+1)&(1<<k-1), true
	}
	var q uint64
	for {
		if r.p >= uint(len(r.buf))*8 {
			return 0, false
		}
		x := r.peek()
		if x == 0 {
			q += uint64(64 - r.p&7)
			r.p += 64 - r.p&7
			continue
		}
		t := uint(bits.TrailingZeros64(x))
		q += uint64(t)
		r.p += t + 1
		break
	}
	if q >= 1<<32>>k {
		return 0, false
	}
	return q<<k | r.get(k), true
}

// packedBytes is the byte length of count values of width bits each.
func packedBytes(count int, width uint) int { return int((uint64(count)*uint64(width) + 7) / 8) }

// pack appends v, every value at width bits, to dst; the values are below
// 2^width. Its accumulator is stored four bytes at a time: at a constant
// width that branch is periodic, and as fast as emit's stores.
func pack(dst []byte, v []int32, width uint) []byte {
	at, size := len(dst), packedBytes(len(v), width)
	dst = slices.Grow(dst, size+4)
	buf := dst[at : at+size+4]
	var acc uint64
	fill, i := uint(0), 0
	for _, x := range v {
		acc |= uint64(uint32(x)) << (fill & 63)
		if fill += width; fill >= 32 {
			binary.LittleEndian.PutUint32(buf[i:], uint32(acc))
			i, acc, fill = i+4, acc>>32, fill-32
		}
	}
	binary.LittleEndian.PutUint32(buf[i:], uint32(acc))
	return dst[:at+size]
}

// unpack fills out from body, which holds len(out) values of width ≤ 32
// bits each: one load per value, and the last few values, whose eight
// bytes run past body's end, through load's copy.
func unpack(out []int32, body []byte, width uint) {
	mask := uint64(1)<<width - 1
	fast := 0
	if len(body) >= 8 {
		// Value i starts in byte i·width/8, which must leave eight bytes.
		fast = min(len(out), ((len(body)-8)*8)/int(width)+1)
	}
	p := uint(0)
	for i := range out[:fast] {
		out[i] = int32(binary.LittleEndian.Uint64(body[p>>3:]) >> (p & 7) & mask)
		p += width
	}
	for i := fast; i < len(out); i++ {
		out[i] = int32(load(body, p>>3) >> (p & 7) & mask)
		p += width
	}
}
