package snapfile

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestBatchRoundTrip: a batch decodes to what was encoded at every id
// width, 0 (every id 0) included, and takes 2w+1 bits an update after its
// five-byte header.
func TestBatchRoundTrip(t *testing.T) {
	for _, top := range []graph.Node{0, 1, 5, 255, 1<<14 - 1, 1<<31 - 1} {
		batch := []graph.Update{graph.Insertion(top, 0), graph.Deletion(0, top), graph.Insertion(top/2, top), graph.Deletion(0, 0)}
		data := AppendBatch(nil, batch)
		w := uint(0)
		for ; top>>w != 0; w++ {
		}
		if want := batchHeader + batchBytes(len(batch), w); len(data) != want {
			t.Fatalf("ids below %d: %d bytes, want %d", top+1, len(data), want)
		}
		got, err := DecodeBatch(data, int(top)+1)
		if err != nil || !slices.Equal(got, batch) {
			t.Fatalf("ids below %d: decoded %v, %v; want %v", top+1, got, err, batch)
		}
		if _, err := DecodeBatch(data, int(top)); top > 0 && err == nil {
			t.Fatalf("ids below %d: decoded against %d nodes", top+1, top)
		}
	}
}

// TestBatchCountBounded: DecodeBatchAtMost refuses a batch that declares
// more updates than its bound, in either form, before it allocates them —
// here a header of width 0 whose 2^24 one-bit updates fit in 2 MiB and
// would decode into 192 MB — and takes one at the bound.
func TestBatchCountBounded(t *testing.T) {
	const count = 1 << 24
	forged := binary.LittleEndian.AppendUint32(nil, batchNew|count)
	forged = append(forged, batchVersion)
	forged = append(forged, make([]byte, count/8)...)
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := DecodeBatchAtMost(forged, 1, 1000); err == nil {
			t.Fatal("a batch of 2^24 updates decoded under a bound of 1000")
		}
	})
	if allocs > 4 {
		t.Fatalf("refusing the batch took %v allocations", allocs)
	}
	batch := []graph.Update{graph.Insertion(1, 2), graph.Deletion(2, 1), graph.Insertion(0, 2)}
	old := binary.LittleEndian.AppendUint32(nil, uint32(len(batch)))
	for _, u := range batch {
		old = binary.LittleEndian.AppendUint32(old, uint32(u.From))
		old = binary.LittleEndian.AppendUint32(old, uint32(u.To))
		flag := byte(0)
		if u.Insert {
			flag = 1
		}
		old = append(old, flag)
	}
	for _, data := range [][]byte{AppendBatch(nil, batch), old} {
		if _, err := DecodeBatchAtMost(data, 3, len(batch)-1); err == nil {
			t.Fatalf("a batch of %d updates decoded under a bound of %d", len(batch), len(batch)-1)
		}
		if got, err := DecodeBatchAtMost(data, 3, len(batch)); err != nil || !slices.Equal(got, batch) {
			t.Fatalf("at its bound: decoded %v, %v; want %v", got, err, batch)
		}
		if got, err := DecodeBatchAtMost(data, 3, math.MaxInt); err != nil || !slices.Equal(got, batch) {
			t.Fatalf("unbounded: decoded %v, %v; want %v", got, err, batch)
		}
	}
}
