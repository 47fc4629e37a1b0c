package wal

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzParseRecord feeds the record reader arbitrary byte soup — seeded with
// valid frames and systematic corruptions of them — and requires that it
// either decodes exactly what was framed or errors; it must never panic,
// and a corrupt size field must never drive the reported frame length past
// the input.
func FuzzParseRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(frameRecord(1, nil))
	f.Add(frameRecord(42, []byte("batch payload")))
	long := frameRecord(7, bytes.Repeat([]byte{0xab}, 300))
	f.Add(long)
	f.Add(long[:len(long)-5]) // torn tail
	flipped := append([]byte(nil), long...)
	flipped[20] ^= 1 // bit flip inside the body
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, payload, n, err := ParseRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("frame length %d for %d-byte input", n, len(data))
		}
		// A successfully parsed record must re-frame to the same bytes.
		if !bytes.Equal(frameRecord(seq, payload), data[:n]) {
			t.Fatalf("parse/frame round trip diverged")
		}
	})
}

// FuzzScanSegment drives the segment walker over arbitrary input, as the
// active segment and as a sealed one: it must terminate without panicking,
// report a truncation offset that both lies inside the input and marks a
// cleanly re-scannable prefix, judge both roles alike up to the damage, and
// never call damage in a sealed segment torn.
func FuzzScanSegment(f *testing.F) {
	var seg []byte
	for seq := uint64(1); seq <= 5; seq++ {
		seg = append(seg, frameRecord(seq, []byte("payload"))...)
	}
	f.Add(seg, uint64(1))
	f.Add(seg[:len(seg)-3], uint64(1))
	f.Add([]byte("garbage"), uint64(9))
	damaged := slices.Clone(seg)
	damaged[len(frameRecord(1, []byte("payload")))+frameHeader+seqBytes] ^= 1 // record 2's payload, records 3-5 intact after it
	f.Add(damaged, uint64(1))
	lost := slices.Concat(seg, make([]byte, 2*sector), frameRecord(6, []byte("payload"))) // a zeroed page ahead of an intact record
	f.Add(lost, uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, first uint64) {
		info := SegmentInfo{Name: segmentName(first), First: first}
		last, good, torn, err := scanSegment(data, info, true, nil)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("truncation offset %d outside [0,%d]", good, len(data))
		}
		if _, good2, torn2, err2 := scanSegment(data[:good], info, true, nil); err2 != nil || torn2 || good2 != good {
			t.Fatalf("healed prefix does not re-scan cleanly: torn %v, %v", torn2, err2)
		}
		if err == nil && last != first-1 && good == 0 {
			t.Fatalf("clean scan reported records but consumed nothing")
		}
		slast, sgood, storn, serr := scanSegment(data, info, false, nil)
		if storn || slast != last || sgood != good || (serr == nil) != (err == nil && !torn) {
			t.Fatalf("sealed scan (%d, %d, torn %v, %v) disagrees with the tail scan (%d, %d, torn %v, %v)", slast, sgood, storn, serr, last, good, torn, err)
		}
	})
}
