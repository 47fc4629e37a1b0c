package snapfile

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/graph"
)

// The diff files are two diffs a store recorded for groups of a seeded
// history on a 120-node social graph, FuzzDecodeEffect's in the store
// package (epochs 0..1 and 2..3): one that moved the reach view and one
// that moved only the pattern view, each carrying its one batch.
const (
	diffReach   = "testdata/diff-reach.qpd"
	diffPattern = "testdata/diff-pattern.qpd"
)

// TestRecordedDiffsRoundTrip: the recorded diffs decode to what they hold,
// re-encode to their own bytes and are not checkpoints; a cyclic flag other
// than 0 or 1 is refused.
func TestRecordedDiffsRoundTrip(t *testing.T) {
	for _, path := range []string{diffReach, diffPattern} {
		data := readGolden(t, path)
		d, err := DecodeDiff(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if (d.Reach != nil) != (path == diffReach) || len(d.Moved) == 0 {
			t.Fatalf("%s: reach part %v, %d moves", path, d.Reach != nil, len(d.Moved))
		}
		if again := AppendDiff(nil, d); !bytes.Equal(again, data) {
			t.Fatalf("%s: re-encodes to %d bytes, not the %d it came from", path, len(again), len(data))
		}
		if _, err := DecodeStore(data); !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: DecodeStore = %v, want ErrFormat", path, err)
		}
	}
	data := readGolden(t, diffReach)
	r, err := open(data)
	if err != nil {
		t.Fatal(err)
	}
	for {
		start := headerSize + r.pos + blockHeader
		b, ok, err := r.step()
		if err != nil || !ok {
			t.Fatalf("no cyclic flags block: %v", err)
		}
		if b.tag == tagDiffReach+4 {
			data[start] = 2
			break
		}
	}
	if _, err := DecodeDiff(reseal(data)); !errors.Is(err, ErrFormat) {
		t.Fatalf("a cyclic flag of 2: DecodeDiff = %v, want ErrFormat", err)
	}
}

// TestDiffBatchesChecked: a diff carries one batch per epoch it spans, each
// update's ids below |V|; the recorded diffs re-encoded with one batch too
// many or too few, or with a source or target id at |V|, are refused.
func TestDiffBatchesChecked(t *testing.T) {
	d, err := DecodeDiff(readGolden(t, diffReach))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(d.Batches)) != d.Epoch-d.Base || len(d.Batches[0]) == 0 {
		t.Fatalf("the recorded diff spans epochs %d..%d with %d batches", d.Base+1, d.Epoch, len(d.Batches))
	}
	batch := d.Batches[0]
	past := graph.Node(d.Nodes)
	for name, batches := range map[string][][]graph.Update{
		"no batch":         nil,
		"a batch too many": {batch, batch},
		"source at |V|":    {append(slices.Clone(batch), graph.Insertion(past, 0))},
		"target at |V|":    {append(slices.Clone(batch), graph.Deletion(0, past))},
	} {
		e := *d
		e.Batches = batches
		if _, err := DecodeDiff(AppendDiff(nil, &e)); !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: DecodeDiff = %v, want ErrFormat", name, err)
		}
	}
}
