package bisim

import (
	"repro/internal/graph"
)

// RefinePT computes the maximum bisimulation partition with the
// Paige–Tarjan relational coarsest partition algorithm [24]: three-way
// splitting with per-edge counters and the "process the smaller half"
// strategy, running in O(|E| log |V|) time — the bound used by Theorem 4
// of the paper for the compression function R.
func RefinePT(g *graph.Graph) *Partition { return RefinePTCSR(g.Freeze()) }

// RefinePTCSR is RefinePT over a frozen CSR snapshot (Compress hands it
// the one it also builds the quotient from).
func RefinePTCSR(c *graph.CSR) *Partition {
	pt := newPTState(c)
	pt.run()
	return PartitionOf(pt.pblockOf)
}

type pblock struct {
	nodes  []graph.Node // members; swap-remove order
	xblock int32        // owning X-block
	posInX int32        // index within the X-block's pblocks list
	// twin/twin2 are scratch fields used during a split round.
	twin int32
}

type xblock struct {
	pblocks []int32
	inC     bool
}

type ptState struct {
	pblockOf []int32 // node -> pblock id
	posInP   []int32 // node -> index within its pblock's nodes
	pblocks  []pblock
	xblocks  []xblock
	queueC   []int32 // compound X-blocks to process

	// Edge-indexed structures in CSR in-edge order: edge id e is position e
	// of the snapshot's flat predecessor array, so eSrc aliases that array
	// and the edges into y are exactly the id range [inOff[y], inOff[y+1])
	// — no per-node edge-id lists are materialized at all.
	eSrc  []graph.Node
	inOff []int32

	// Counters count the edges from one source node into one X-block; all
	// current edges (x, y) with y in X-block S share the counter c(x, S).
	// They live in an int32 arena addressed by index: countRef holds no
	// pointers, so counter rewrites emit no GC write barriers and the
	// arena is never scanned.
	counters []int32
	countRef []int32 // per edge: arena index of c(src, X-block of dst)

	// Scratch, reused across rounds.
	countB     []int32 // per node: edges into current splitter B
	oldCnt     []int32 // per node: arena index of representative c(x, S)
	newCntAt   []int32 // per node: arena index of fresh c(x, B), -1 outside a round
	touched    []int32 // pblocks touched by the current split
	preB       []graph.Node
	onlyB      []graph.Node
	edgesIntoB []int32
}

// newCounter appends a counter with initial value v to the arena and
// returns its index.
func (pt *ptState) newCounter(v int32) int32 {
	pt.counters = append(pt.counters, v)
	return int32(len(pt.counters) - 1)
}

func newPTState(c *graph.CSR) *ptState {
	n := c.NumNodes()
	pt := &ptState{
		pblockOf: make([]int32, n),
		posInP:   make([]int32, n),
		eSrc:     c.InAdj(),
		inOff:    c.InOffsets(),
		countB:   make([]int32, n),
		oldCnt:   make([]int32, n),
		newCntAt: make([]int32, n),
	}
	for i := range pt.newCntAt {
		pt.newCntAt[i] = -1
	}

	// One initial counter per node: all its edges lead into the single
	// X-block V.
	m := c.NumEdges()
	pt.counters = make([]int32, 0, n)
	pt.countRef = make([]int32, m)
	perSrc := make([]int32, n)
	for i := range perSrc {
		perSrc[i] = -1
	}
	for e := 0; e < m; e++ {
		x := pt.eSrc[e]
		if perSrc[x] < 0 {
			perSrc[x] = pt.newCounter(0)
		}
		pt.counters[perSrc[x]]++
		pt.countRef[e] = perSrc[x]
	}

	// Initial P: label blocks, pre-split by "has successors" so that P is
	// stable w.r.t. the initial X-block V.
	type key struct {
		l    graph.Label
		leaf bool
	}
	ids := make(map[key]int32)
	for v := 0; v < n; v++ {
		k := key{c.Label(graph.Node(v)), c.OutDegree(graph.Node(v)) == 0}
		id, ok := ids[k]
		if !ok {
			id = int32(len(pt.pblocks))
			pt.pblocks = append(pt.pblocks, pblock{xblock: 0, twin: -1})
			ids[k] = id
		}
		pt.pblockOf[v] = id
		b := &pt.pblocks[id]
		pt.posInP[v] = int32(len(b.nodes))
		b.nodes = append(b.nodes, graph.Node(v))
	}

	// Single X-block holding every P-block.
	x0 := xblock{}
	for id := range pt.pblocks {
		pt.pblocks[id].posInX = int32(len(x0.pblocks))
		x0.pblocks = append(x0.pblocks, int32(id))
	}
	pt.xblocks = append(pt.xblocks, x0)
	if len(x0.pblocks) >= 2 {
		pt.xblocks[0].inC = true
		pt.queueC = append(pt.queueC, 0)
	}
	return pt
}

func (pt *ptState) run() {
	for len(pt.queueC) > 0 {
		sid := pt.queueC[len(pt.queueC)-1]
		pt.queueC = pt.queueC[:len(pt.queueC)-1]
		pt.xblocks[sid].inC = false
		if len(pt.xblocks[sid].pblocks) < 2 {
			continue
		}
		pt.step(sid)
	}
}

// step performs one Paige–Tarjan refinement round: carve the smaller of
// S's first two P-blocks out into its own X-block and split P three ways.
func (pt *ptState) step(sid int32) {
	s := &pt.xblocks[sid]

	// B := smaller of the first two P-blocks (guarantees |B| <= |S|/2).
	bid := s.pblocks[0]
	if len(pt.pblocks[s.pblocks[1]].nodes) < len(pt.pblocks[bid].nodes) {
		bid = s.pblocks[1]
	}
	pt.detachFromX(bid)
	newX := int32(len(pt.xblocks))
	pt.xblocks = append(pt.xblocks, xblock{pblocks: []int32{bid}})
	pt.pblocks[bid].xblock = newX
	pt.pblocks[bid].posInX = 0
	if len(pt.xblocks[sid].pblocks) >= 2 && !pt.xblocks[sid].inC {
		pt.xblocks[sid].inC = true
		pt.queueC = append(pt.queueC, sid)
	}

	// Compute pre(B) with multiplicities and remember one representative
	// old counter c(x, S) per source.
	bNodes := pt.pblocks[bid].nodes
	preB := pt.preB[:0]
	edgesIntoB := pt.edgesIntoB[:0]
	for _, y := range bNodes {
		for e := pt.inOff[y]; e < pt.inOff[y+1]; e++ {
			x := pt.eSrc[e]
			if pt.countB[x] == 0 {
				preB = append(preB, x)
				pt.oldCnt[x] = pt.countRef[e]
			}
			pt.countB[x]++
			edgesIntoB = append(edgesIntoB, e)
		}
	}

	// Select, before any counter update, the sources with no edge into
	// S \ B: countB[x] == c(x, S).
	onlyB := pt.onlyB[:0]
	for _, x := range preB {
		if pt.countB[x] == pt.counters[pt.oldCnt[x]] {
			onlyB = append(onlyB, x)
		}
	}

	// Split 1: w.r.t. pre(B).
	pt.splitBy(preB)
	// Split 2: w.r.t. pre(B) \ pre(S\B).
	pt.splitBy(onlyB)

	// Counter maintenance: edges into B move from c(x,S) to c(x,B).
	for _, e := range edgesIntoB {
		x := pt.eSrc[e]
		ci := pt.newCntAt[x]
		if ci < 0 {
			ci = pt.newCounter(pt.countB[x])
			pt.newCntAt[x] = ci
		}
		pt.counters[pt.countRef[e]]--
		pt.countRef[e] = ci
	}

	// Reset scratch.
	for _, x := range preB {
		pt.countB[x] = 0
		pt.newCntAt[x] = -1
	}
	pt.preB = preB[:0]
	pt.onlyB = onlyB[:0]
	pt.edgesIntoB = edgesIntoB[:0]
}

// detachFromX removes P-block bid from its current X-block's list.
func (pt *ptState) detachFromX(bid int32) {
	b := &pt.pblocks[bid]
	x := &pt.xblocks[b.xblock]
	last := x.pblocks[len(x.pblocks)-1]
	pos := b.posInX
	x.pblocks[pos] = last
	pt.pblocks[last].posInX = pos
	x.pblocks = x.pblocks[:len(x.pblocks)-1]
}

// splitBy splits every P-block D into D ∩ marked and D \ marked. Blocks
// fully inside marked are left intact (the move is reverted). New blocks
// join D's X-block, which becomes compound and is queued.
func (pt *ptState) splitBy(marked []graph.Node) {
	pt.touched = pt.touched[:0]
	for _, x := range marked {
		did := pt.pblockOf[x]
		d := &pt.pblocks[did]
		if d.twin == -1 {
			d.twin = int32(len(pt.pblocks))
			pt.pblocks = append(pt.pblocks, pblock{xblock: d.xblock, twin: -1})
			d = &pt.pblocks[did] // re-take: append may have moved the backing array
			pt.touched = append(pt.touched, did)
		}
		twin := &pt.pblocks[d.twin]
		// Swap-remove x from d.
		pos := pt.posInP[x]
		last := d.nodes[len(d.nodes)-1]
		d.nodes[pos] = last
		pt.posInP[last] = pos
		d.nodes = d.nodes[:len(d.nodes)-1]
		// Append to twin.
		pt.pblockOf[x] = d.twin
		pt.posInP[x] = int32(len(twin.nodes))
		twin.nodes = append(twin.nodes, x)
	}
	for _, did := range pt.touched {
		d := &pt.pblocks[did]
		tid := d.twin
		d.twin = -1
		twin := &pt.pblocks[tid]
		if len(d.nodes) == 0 {
			// Whole block moved: revert by adopting the twin's nodes.
			d.nodes, twin.nodes = twin.nodes, nil
			for i, v := range d.nodes {
				pt.pblockOf[v] = did
				pt.posInP[v] = int32(i)
			}
			// tid stays as a dead empty block; it was never attached to X.
			continue
		}
		// Genuine split: attach twin to D's X-block.
		x := &pt.xblocks[d.xblock]
		twin.posInX = int32(len(x.pblocks))
		x.pblocks = append(x.pblocks, tid)
		if len(x.pblocks) >= 2 && !x.inC {
			x.inC = true
			pt.queueC = append(pt.queueC, d.xblock)
		}
	}
}
