// Delta publish: an epoch's snapshot is the previous snapshot patched by
// what the batch group changed. The maintainers already cost |AFF| per
// batch; this file keeps the step after them from costing |G| again.
//
//   - G is the maintained graph frozen (graph.Graph.Freeze), in O(1): the
//     graph keeps its rows in the CSR's layout, so the snapshot takes over
//     its row tables, and the graph copies them on its next write and
//     writes the rows it changes past the snapshot's end, in the adjacency
//     arena the two share. Nothing below the end of a published CSR is
//     ever written, so pinned epochs read on.
//   - The pattern view is incPCM's own (incbisim.Maintainer.View): in a
//     stable published id space, patched from its change log — the node →
//     block array copied and patched at the moved nodes, member lists of
//     unchanged blocks shared between epochs (they are immutable), and only
//     the quotient rows the change can reach rebuilt, each read off one
//     member's successors and appended to the quotient's shared arena the
//     same way. incPCM builds a view in full only at a maintainer's first
//     view and patches every later one.
//   - The reach view is incRCM's own (increach.Maintainer.View): the
//     previous one when no regroup moved the compression, otherwise its
//     topologically numbered Gr with one pass over V for the class map.
//   - The reach 2-hop index is a once-cell on the view (hopCell): the first
//     reader that wants it builds it, the writer never does.
//
// Everything published is still a plain *graph.CSR / *reach.Compressed /
// *bisim.Compressed; no read path can tell a patched view from a rebuilt
// one. The full build is what open, materialize and load run, and only
// they.
package store

import (
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/hop2"
	"repro/internal/increach"
	"repro/internal/obs"
)

// hopCell builds a reach view's 2-hop index on first use. Views carried
// from epoch to epoch share the cell, so an index is built at most once per
// reach generation and never by the writer.
type hopCell struct {
	once sync.Once
	idx  *hop2.Index
	hist *obs.Histogram // qpgc_store_publish_seconds{stage="index"}; nil when metrics are off
}

// newReachView returns the read path of a reach view new to the store,
// with an empty 2-hop cell unless the store runs without indexes.
func newReachView(v increach.View, indexes bool, so *storeObs) ReachView {
	rv := ReachView{Gr: v.Gr, Compressed: v.Compressed}
	if indexes {
		rv.hop = &hopCell{}
		if so != nil {
			rv.hop.hist = so.pubIndex
		}
	}
	return rv
}

func (c *hopCell) get(gr *graph.CSR) *hop2.Index {
	c.once.Do(func() {
		var start time.Time
		if c.hist != nil {
			start = time.Now()
		}
		c.idx = hop2.BuildCSR(gr)
		if c.hist != nil {
			c.hist.Observe(time.Since(start))
		}
	})
	return c.idx
}
