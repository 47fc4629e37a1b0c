// Package bisim computes maximum (coarsest) bisimulation partitions of
// labeled directed graphs, the engine behind graph pattern preserving
// compression (Section 4 of the paper).
//
// A bisimulation relation B on G=(V,E,L) relates u,v iff L(u)=L(v), every
// child of u is B-related to some child of v, and vice versa. The maximum
// bisimulation Rb is an equivalence relation (Lemma 5); its quotient is the
// compressed graph of compressB.
//
// Two interchangeable engines are provided and cross-checked by tests:
//
//   - RefineNaive: global signature refinement. Starting from the label
//     partition it repeatedly splits blocks whose members have different
//     successor-block sets. Refinement-only from the coarsest start
//     converges to the coarsest stable partition, i.e. the maximum
//     bisimulation — simple and obviously correct, O(rounds·|E|).
//   - RefinePT: the Paige–Tarjan three-way splitting algorithm [24] with
//     the "process the smaller half" strategy and per-edge counters,
//     O(|E| log |V|) — the bound quoted by Theorem 4. Compress runs it,
//     and incremental maintenance (incPCM) falls back to it for graphs
//     deeper than the levels it keeps.
package bisim

import (
	"sort"

	"repro/internal/graph"
)

// Partition assigns every node a block id; bisimilar nodes share a block.
type Partition struct {
	// BlockOf maps node -> block id (dense, 0-based).
	BlockOf []int32
	// Blocks lists the member nodes of each block, each list sorted.
	Blocks [][]graph.Node
}

// NumBlocks returns the number of equivalence classes.
func (p *Partition) NumBlocks() int { return len(p.Blocks) }

// PartitionOf assembles a Partition from a block id slice, renumbering
// blocks canonically by their smallest member node so that structurally
// equal partitions compare equal regardless of the producing algorithm.
// Raw ids are dense-ish (bounded by the producing engine's block count), so
// the renumbering uses a slice map.
func PartitionOf(blockOf []int32) *Partition {
	n := len(blockOf)
	maxRaw := int32(-1)
	for _, raw := range blockOf {
		if raw > maxRaw {
			maxRaw = raw
		}
	}
	rawToCanon := make([]int32, maxRaw+1)
	for i := range rawToCanon {
		rawToCanon[i] = -1
	}
	canonCount := int32(0)
	canon := make([]int32, n)
	for v := 0; v < n; v++ {
		raw := blockOf[v]
		id := rawToCanon[raw]
		if id < 0 {
			id = canonCount
			canonCount++
			rawToCanon[raw] = id
		}
		canon[v] = id
	}
	blocks := graph.GroupNodes(canon, int(canonCount))
	return &Partition{BlockOf: canon, Blocks: blocks}
}

// RefineNaive computes the maximum bisimulation partition by global
// signature refinement.
func RefineNaive(g *graph.Graph) *Partition {
	n := g.NumNodes()
	blockOf := make([]int32, n)
	// Initial partition by label.
	labelBlock := make(map[graph.Label]int32)
	next := int32(0)
	for v := 0; v < n; v++ {
		l := g.Label(graph.Node(v))
		id, ok := labelBlock[l]
		if !ok {
			id = next
			next++
			labelBlock[l] = id
		}
		blockOf[v] = id
	}

	sig := make([]string, n)
	scratch := make([]int32, 0, 16)
	for {
		// Signature: current block id + sorted distinct successor blocks.
		ids := make(map[string]int32)
		newBlockOf := make([]int32, n)
		var nextID int32
		for v := 0; v < n; v++ {
			scratch = scratch[:0]
			for _, w := range g.Successors(graph.Node(v)) {
				scratch = append(scratch, blockOf[w])
			}
			sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
			buf := make([]byte, 0, 4+4*len(scratch))
			buf = appendInt32(buf, blockOf[v])
			prev := int32(-1)
			for _, b := range scratch {
				if b != prev {
					buf = appendInt32(buf, b)
					prev = b
				}
			}
			sig[v] = string(buf)
			id, ok := ids[sig[v]]
			if !ok {
				id = nextID
				nextID++
				ids[sig[v]] = id
			}
			newBlockOf[v] = id
		}
		stable := nextID == next
		blockOf = newBlockOf
		next = nextID
		if stable {
			break
		}
	}
	return PartitionOf(blockOf)
}

func appendInt32(buf []byte, v int32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// IsStable verifies the partition-stability property that characterizes a
// bisimulation: members of a block share a label, and for every pair of
// blocks (B, B'), either every member of B has a successor in B' or none
// has. Intended for tests.
func IsStable(g *graph.Graph, p *Partition) bool {
	for _, members := range p.Blocks {
		if len(members) == 0 {
			return false
		}
		l := g.Label(members[0])
		ref := succBlockSet(g, p, members[0])
		for _, v := range members[1:] {
			if g.Label(v) != l {
				return false
			}
			got := succBlockSet(g, p, v)
			if len(got) != len(ref) {
				return false
			}
			for b := range ref {
				if !got[b] {
					return false
				}
			}
		}
	}
	return true
}

func succBlockSet(g *graph.Graph, p *Partition, v graph.Node) map[int32]bool {
	out := make(map[int32]bool)
	for _, w := range g.Successors(v) {
		out[p.BlockOf[w]] = true
	}
	return out
}
