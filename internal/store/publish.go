// Delta publish: an epoch's snapshot is the previous snapshot patched by
// what the batch group changed. The maintainers already cost |AFF| per
// batch; this file keeps the step after them from costing |G| again.
//
//   - G is the previous CSR with the rows of the group's effective updates
//     spliced in (graph.FreezePatch), not a walk over every adjacency list.
//   - The pattern view lives in a stable published id space that
//     patternPatcher maps the maintainer's recycled block ids into: the
//     node → block array is copied and patched at the moved nodes, member
//     lists of unchanged blocks are shared between epochs (they are
//     immutable), and only the quotient rows the change can reach are
//     rebuilt, each read off one member's successors.
//   - The reach 2-hop index is a once-cell on the view (hopCell): the first
//     reader that wants it builds it, the writer never does.
//
// Everything published is still a plain *graph.CSR / *reach.Compressed /
// *bisim.Compressed; no read path can tell a patched view from a rebuilt
// one. The full build remains what open, materialize and load run, and the
// fallback when a patch would not be cheaper or the quotient's locality
// order has drifted (see the constants below).
package store

import (
	"slices"
	"sync"
	"time"

	"repro/internal/bisim"
	"repro/internal/graph"
	"repro/internal/hop2"
	"repro/internal/incbisim"
	"repro/internal/obs"
)

const (
	// maxPatchShare bounds one epoch's patch set: a view is rebuilt rather
	// than patched when the group touched more than 1/maxPatchShare of its
	// rows (G) or moved more than that share of the nodes between blocks
	// (pattern). Past that point the patch's merges cost what the full
	// build's single pass does.
	maxPatchShare = 4
	// patternDriftRows bounds how far the pattern quotient's layout may
	// drift from graph.Reorder's BFS order: the view is rebuilt — and
	// re-permuted — once the rows patched since the last full build exceed
	// this many times |Vr|. A patched row keeps its id and a new block takes
	// a recycled or trailing one, so drift grows with the rows patched.
	// Measured, it costs nothing yet at this bound: pattern.match_gr_ms on
	// views patched through 600 batches (2.6×|Vr| rows on social16, 2.2× on
	// webcore16) is within 5 % of a rebuilt view's either way (EXPERIMENTS.md,
	// "Write path per layer"). The bound is there for the tail nobody
	// measured; at ≈ 50 rows an epoch it costs one full build in a hundred
	// or more epochs.
	patternDriftRows = 2
)

// hopCell builds a reach view's 2-hop index on first use. Views carried
// from epoch to epoch share the cell, so an index is built at most once per
// reach generation and never by the writer.
type hopCell struct {
	once sync.Once
	idx  *hop2.Index
	hist *obs.Histogram // qpgc_store_publish_seconds{stage="index"}; nil when metrics are off
}

// newHopCell returns the cell of a freshly built reach view, nil when the
// store runs without indexes.
func newHopCell(indexes bool, so *storeObs) *hopCell {
	if !indexes {
		return nil
	}
	c := &hopCell{}
	if so != nil {
		c.hist = so.pubIndex
	}
	return c
}

// loadedHopCell wraps an index decoded from a checkpoint; nil stays nil.
func loadedHopCell(idx *hop2.Index) *hopCell {
	if idx == nil {
		return nil
	}
	return &hopCell{idx: idx}
}

func (c *hopCell) get(gr *graph.CSR) *hop2.Index {
	c.once.Do(func() {
		if c.idx != nil {
			return
		}
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

// patternPatcher maps the pattern maintainer's block ids — sparse, stable
// for an untouched block, recycled when one empties — onto the dense ids of
// the published quotient, and produces each epoch's PatternView from the
// previous one. It belongs to the writer goroutine; apart from pub, mid and
// patched everything in it is scratch reused across epochs.
type patternPatcher struct {
	pub     []int32 // maintainer block id -> published id, -1 when not published
	mid     []int32 // published id -> maintainer block id
	patched int     // quotient rows patched since the last full build

	rowSet, nodeSet, seen graph.StampSet
	prevPub               []int32 // per logged block: its published id before this epoch, -1 when none
	from, cnt             []int32 // per changed published id: where its block was published before, members counted
	chg, holes, fresh     []int32
	reloc                 [][2]int32 // (to, from) published ids of blocks moved into holes
	rows, rowFlat         []graph.Node
	rowOff                []int32
	// moves lists the nodes whose published block id the last patch changed
	// — the maintainer's moves and the members of blocks that changed id —
	// for the epoch's effect (effect.go).
	moves []graph.Node
}

// adopt points the id maps at a fully rebuilt view.
func (pp *patternPatcher) adopt(v PatternView, m *incbisim.Maintainer) {
	members := v.Compressed.Members
	pp.mid = slices.Grow(pp.mid[:0], len(members))[:len(members)]
	pp.pub = slices.Grow(pp.pub[:0], m.NumBlockIDs())[:m.NumBlockIDs()]
	for i := range pp.pub {
		pp.pub[i] = -1
	}
	for b, mem := range members {
		id := m.BlockID(mem[0])
		pp.mid[b], pp.pub[id] = id, int32(b)
	}
	pp.patched = 0
	m.ResetChanges()
}

// canPatch reports whether the view published for nodes nodes and blocks
// blocks should be patched by m's change log rather than rebuilt.
func (pp *patternPatcher) canPatch(m *incbisim.Maintainer, nodes, blocks int) bool {
	_, moved := m.Changes()
	return maxPatchShare*len(moved) <= nodes && pp.patched <= patternDriftRows*blocks
}

// patch returns the pattern view of the maintainer's current partition,
// built from old — the view adopt or patch last returned — and m's change
// log, which it resets. g is the snapshot of the current graph and srcs the
// sources of the effective updates since old.
func (pp *patternPatcher) patch(old PatternView, m *incbisim.Maintainer, g *graph.CSR, srcs []graph.Node, gp *graph.Patcher) PatternView {
	blocks, moved := m.Changes()
	oldMembers, oldBlockOf := old.Compressed.Members, old.Compressed.ClassMap()
	n := len(oldMembers)
	for len(pp.pub) < m.NumBlockIDs() {
		pp.pub = append(pp.pub, -1)
	}

	// Published ids. An emptied block frees its id; a block new to the view
	// takes the lowest freed id or the next trailing one; ids still free
	// after that are refilled from the tail, lowest first — so a refilled id
	// is never vacated again — and the quotient stays dense.
	pp.prevPub, pp.holes, pp.fresh, pp.reloc = pp.prevPub[:0], pp.holes[:0], pp.fresh[:0], pp.reloc[:0]
	for _, b := range blocks {
		p := pp.pub[b]
		pp.prevPub = append(pp.prevPub, p)
		switch live := m.BlockSize(b) > 0; {
		case live && p < 0:
			pp.fresh = append(pp.fresh, b)
		case !live && p >= 0:
			pp.holes = append(pp.holes, p)
			pp.pub[b], pp.mid[p] = -1, -1
		}
	}
	slices.SortFunc(pp.holes, func(a, b int32) int { return int(b - a) })
	for _, b := range pp.fresh {
		p := int32(n)
		if k := len(pp.holes); k > 0 {
			p, pp.holes = pp.holes[k-1], pp.holes[:k-1]
		} else {
			pp.mid = append(pp.mid, b)
			n++
		}
		pp.pub[b], pp.mid[p] = p, b
	}
	for i := len(pp.holes) - 1; i >= 0; i-- {
		h := pp.holes[i]
		for n > 0 && pp.mid[n-1] < 0 {
			n--
		}
		if int(h) >= n {
			continue
		}
		last := int32(n - 1)
		b := pp.mid[last]
		pp.pub[b], pp.mid[h] = h, b
		pp.reloc = append(pp.reloc, [2]int32{h, last})
		n--
	}
	pp.mid = pp.mid[:n]

	span := max(n, len(oldMembers))
	pp.from = slices.Grow(pp.from[:0], span)[:span]
	pp.cnt = slices.Grow(pp.cnt[:0], span)[:span]
	pp.chg = pp.chg[:0]
	for i, b := range blocks {
		if p := pp.pub[b]; p >= 0 {
			pp.chg = append(pp.chg, p)
			pp.from[p], pp.cnt[p] = pp.prevPub[i], 0
		}
	}

	// The node → block map: copied, then patched at the moved nodes and at
	// the members of blocks whose published id changed.
	nb := make([]graph.Node, len(oldBlockOf))
	copy(nb, oldBlockOf)
	pp.nodeSet.Reset(len(nb))
	pp.moves = pp.moves[:0]
	for _, v := range moved {
		pp.nodeSet.Add(v)
		p := pp.pub[m.BlockID(v)]
		nb[v] = p
		pp.cnt[p]++
		if p != oldBlockOf[v] {
			pp.moves = append(pp.moves, v)
		}
	}
	// kept visits the members block p keeps from the previous epoch.
	kept := func(p int32, visit func(v graph.Node)) {
		if f := pp.from[p]; f >= 0 {
			for _, v := range oldMembers[f] {
				if !pp.nodeSet.Has(v) {
					visit(v)
				}
			}
		}
	}
	total := len(moved)
	for _, p := range pp.chg {
		kept(p, func(v graph.Node) {
			if nb[v] != p {
				nb[v] = p
				pp.moves = append(pp.moves, v)
			}
			pp.cnt[p]++
			total++
		})
	}

	// Member lists: the header is copied, unchanged blocks keep sharing
	// their lists with the previous epoch, changed blocks get theirs carved
	// out of one array this snapshot retains.
	nm := make([][]graph.Node, n)
	copy(nm, oldMembers)
	buf := make([]graph.Node, total)
	for _, p := range pp.chg {
		c := int(pp.cnt[p])
		nm[p], buf = buf[:0:c], buf[c:]
		kept(p, func(v graph.Node) { nm[p] = append(nm[p], v) })
	}
	for _, v := range moved {
		nm[nb[v]] = append(nm[nb[v]], v)
	}

	// Rows to rebuild: changed and relocated blocks, blocks holding the
	// source of an update, and every block with an edge into a node that
	// changed block or into a block that changed id.
	pp.rowSet.Reset(span)
	pp.rows = pp.rows[:0]
	add := func(p graph.Node) bool {
		fresh := pp.rowSet.Add(p)
		if fresh {
			pp.rows = append(pp.rows, p)
		}
		return fresh
	}
	for _, p := range pp.chg {
		slices.Sort(nm[p])
		add(p)
	}
	for _, r := range pp.reloc {
		if to, from := r[0], r[1]; add(to) { // only its id changed: same members, same list
			nm[to] = oldMembers[from]
			for _, v := range nm[to] {
				nb[v] = to
			}
			pp.moves = append(pp.moves, nm[to]...)
		}
	}
	for _, r := range pp.reloc {
		for _, q := range old.Gr.Predecessors(r[1]) {
			if int(q) < n {
				add(q)
			}
		}
	}
	for _, u := range srcs {
		add(nb[u])
	}
	for _, v := range moved {
		for _, u := range g.Predecessors(v) {
			add(nb[u])
		}
	}
	slices.Sort(pp.rows)

	// Bisimilar nodes have equal successor-block sets, so a block's row is
	// its first member's successors mapped to blocks.
	pp.rowOff, pp.rowFlat = pp.rowOff[:0], pp.rowFlat[:0]
	for _, r := range pp.rows {
		pp.rowOff = append(pp.rowOff, int32(len(pp.rowFlat)))
		start := len(pp.rowFlat)
		pp.seen.Reset(n)
		for _, w := range g.Successors(nm[r][0]) {
			if b := nb[w]; pp.seen.Add(b) {
				pp.rowFlat = append(pp.rowFlat, b)
			}
		}
		slices.Sort(pp.rowFlat[start:])
	}
	pp.rowOff = append(pp.rowOff, int32(len(pp.rowFlat)))
	gr := gp.Patch(old.Gr, n, pp.rows,
		func(k int) []graph.Node { return pp.rowFlat[pp.rowOff[k]:pp.rowOff[k+1]] },
		func(k int) graph.Label { return g.Label(nm[pp.rows[k]][0]) })

	pp.patched += len(pp.rows)
	m.ResetChanges()
	return PatternView{Gr: gr, Compressed: bisim.AssembleCompressed(nil, nb, nm)}
}
