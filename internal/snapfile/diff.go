package snapfile

import (
	"cmp"
	"fmt"
	"math"

	"repro/internal/graph"
)

// A diff is one group of a monolithic store, what a follower applies
// instead of maintaining its views (internal/store/effect.go): the group's
// raw batches, how the pattern view's node → block map moved with the
// digest of the quotient rows incPCM rebuilt, and — when the reach view
// moved — an old class → new class map with the nodes that do not follow
// it, plus the new reach quotient. Its blocks sit at tagDiff and
// tagDiffReach. The batches are one byte block of the batch codec's
// encodings (batch.go), one after another. Older layouts are refused, so
// that the follower takes an image instead: where the decoder reads the
// batch block, a diff that carried its batches as four int32 and bool
// blocks (tags tagDiff+10 to tagDiff+13) has its batch counts; where it
// reads the digest, one that shipped the rebuilt rows themselves (tags
// tagDiff+5 to tagDiff+8) has their row ids; and where it reads the batch
// block, one from before a diff carried its batches, which went beside it
// as WAL frames, has the reach flag.
const (
	tagDiff      = 0x400 // base epoch, |V|, block count, moves, row digest (+9), batches (+14)
	tagDiffReach = 0x420 // presence flag, class map, exceptions, cyclic flags
	tagDiffGr    = 0x440 // the reach quotient, through putCSR
)

// DiffParts is the decoded form of one diff. Every field is the decode's
// own; a decode checks everything that needs no state: counts, id ranges,
// ascending lists, Epoch > Base, one batch per epoch. What needs the follower's views and graph
// is checked where the diff is applied.
type DiffParts struct {
	// Epoch is the epoch the diff brings the views to, Base the one they
	// start from.
	Epoch, Base uint64
	// Nodes is |V| of the graph the views cover.
	Nodes int
	// Batches are the group's raw batches, as the source's WAL logged them:
	// Epoch − Base of them, epoch Base+1's first.
	Batches [][]graph.Update
	// Blocks is the new pattern quotient's block count.
	Blocks int
	// Moved lists, ascending, the nodes whose block id changed; To holds
	// their new blocks.
	Moved, To []graph.Node
	// Digest is incbisim.Rows.Digest of the pattern quotient rows the
	// change rebuilt.
	Digest uint64
	// Reach is the reach view's change, nil when the reach view did not
	// move.
	Reach *ReachDiff
}

// ReachDiff is a diff's reach part.
type ReachDiff struct {
	// ClassMap maps each old class to the new class of its smallest member.
	ClassMap []graph.Node
	// ExNode lists, ascending, the nodes that do not follow their old
	// class; ExClass holds their new classes.
	ExNode, ExClass []graph.Node
	// Gr is the new reach quotient, classes in topological order, under its
	// own one-label σ table.
	Gr *graph.CSR
	// Cyclic flags the classes that contain a cyclic SCC.
	Cyclic []bool
}

// AppendDiff appends the encoding of d to dst: the batches through the
// batch codec, the reach quotient as any CSR with its own label table,
// every int32 array at its exact bit width.
func AppendDiff(dst []byte, d *DiffParts) []byte {
	w := newWriter(KindDiff, d.Epoch, dst)
	w.u64(tagDiff, d.Base)
	w.u64(tagDiff+1, uint64(d.Nodes))
	w.u64(tagDiff+2, uint64(d.Blocks))
	w.int32s(tagDiff+3, d.Moved)
	w.int32s(tagDiff+4, d.To)
	w.u64(tagDiff+9, d.Digest)
	var batches []byte
	for _, batch := range d.Batches {
		batches = AppendBatch(batches, batch)
	}
	w.bytes(tagDiff+14, batches)
	if d.Reach == nil {
		w.u64(tagDiffReach, 0)
		return w.encode()
	}
	w.u64(tagDiffReach, 1)
	w.int32s(tagDiffReach+1, d.Reach.ClassMap)
	w.int32s(tagDiffReach+2, d.Reach.ExNode)
	w.int32s(tagDiffReach+3, d.Reach.ExClass)
	w.bools(tagDiffReach+4, d.Reach.Cyclic)
	putCSR(w, tagDiffGr, d.Reach.Gr, nil)
	return w.encode()
}

// DecodeDiff decodes and validates a diff. Nothing returned aliases data.
func DecodeDiff(data []byte) (*DiffParts, error) {
	r, err := open(data)
	if err != nil {
		return nil, err
	}
	if r.kind != KindDiff {
		return nil, fmt.Errorf("%w: kind %v, want %v", ErrFormat, r.kind, KindDiff)
	}
	// Each read is a no-op after the first error.
	u64 := func(tag uint32) (v uint64) {
		if err == nil {
			v, err = r.u64(tag)
		}
		return v
	}
	ints := func(tag uint32) (v []int32) {
		if err == nil {
			v, err = r.int32s(tag)
		}
		return v
	}
	d := &DiffParts{Epoch: r.epoch, Base: u64(tagDiff)}
	nodes, blocks := u64(tagDiff+1), u64(tagDiff+2)
	d.Moved, d.To = ints(tagDiff+3), ints(tagDiff+4)
	d.Digest = u64(tagDiff + 9)
	var batches []byte
	if err == nil {
		batches, err = r.bytes(tagDiff + 14)
	}
	switch reach := u64(tagDiffReach); {
	case err != nil:
	case reach > 1:
		err = fmt.Errorf("%w: reach flag %d", ErrFormat, reach)
	case reach == 1:
		d.Reach = &ReachDiff{ClassMap: ints(tagDiffReach + 1), ExNode: ints(tagDiffReach + 2), ExClass: ints(tagDiffReach + 3)}
		if err == nil {
			d.Reach.Cyclic, err = r.bools(tagDiffReach + 4)
		}
		if err == nil {
			d.Reach.Gr, err = readCSR(r, tagDiffGr, nil)
		}
	}
	if err == nil {
		err = r.end()
	}
	if err == nil {
		err = d.validate(nodes, blocks)
	}
	if err == nil {
		err = d.batches(batches)
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// batches decodes the batch block of a diff whose counts validate has
// checked into d.Batches: one batch per epoch the diff spans, filling the
// block, every node id below |V|.
func (d *DiffParts) batches(data []byte) error {
	if span := d.Epoch - d.Base; span > uint64(len(data)) {
		return fmt.Errorf("%w: %d bytes of batches for epochs %d..%d", ErrFormat, len(data), d.Base+1, d.Epoch)
	}
	d.Batches = make([][]graph.Update, d.Epoch-d.Base)
	for i := range d.Batches {
		var err error
		if d.Batches[i], data, err = decodeBatch(data, d.Nodes, math.MaxInt); err != nil {
			return fmt.Errorf("%w: batch %d: %v", ErrFormat, i, err)
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("%w: %d bytes after the batches for epochs %d..%d", ErrFormat, len(data), d.Base+1, d.Epoch)
	}
	return nil
}

// validate checks the decoded blocks of a diff against one another and
// fills in the counts.
func (d *DiffParts) validate(nodes, blocks uint64) error {
	switch {
	case nodes > math.MaxInt32 || blocks > nodes:
		return fmt.Errorf("%w: %d blocks over %d nodes", ErrFormat, blocks, nodes)
	case d.Epoch <= d.Base:
		return fmt.Errorf("%w: diff spans epochs %d..%d", ErrFormat, d.Base, d.Epoch)
	case len(d.To) != len(d.Moved):
		return fmt.Errorf("%w: %d moves to %d blocks", ErrFormat, len(d.Moved), len(d.To))
	}
	d.Nodes, d.Blocks = int(nodes), int(blocks)
	if err := cmp.Or(
		validateIDs("moved node", d.Moved, d.Nodes, true),
		validateIDs("new block", d.To, d.Blocks, false),
	); err != nil {
		return err
	}
	rd := d.Reach
	if rd == nil {
		return nil
	}
	classes := rd.Gr.NumNodes()
	switch {
	case classes > d.Nodes || len(rd.ClassMap) > d.Nodes:
		return fmt.Errorf("%w: %d new and %d old classes over %d nodes", ErrFormat, classes, len(rd.ClassMap), d.Nodes)
	case len(rd.ExClass) != len(rd.ExNode) || len(rd.Cyclic) != classes:
		return fmt.Errorf("%w: %d exceptions with %d classes, %d cyclic flags for %d classes",
			ErrFormat, len(rd.ExNode), len(rd.ExClass), len(rd.Cyclic), classes)
	case !graph.IsTopoOrdered(rd.Gr):
		return fmt.Errorf("%w: reach quotient is not in topological order", ErrFormat)
	}
	return cmp.Or(
		validateIDs("new class", rd.ClassMap, classes, false),
		validateIDs("excepted node", rd.ExNode, d.Nodes, true),
		validateIDs("excepted class", rd.ExClass, classes, false),
	)
}
