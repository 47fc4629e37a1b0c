package part

import (
	"slices"
	"sort"

	"repro/internal/bisim"
	"repro/internal/graph"
)

// Stitched is the cross-shard pattern-preserving quotient of one epoch: a
// bisimulation partition of the full graph assembled from the per-shard
// partitions, its quotient graph, and the indexes needed to expand a match
// on the quotient back to G per shard. Immutable after construction.
//
// The construction starts from the disjoint union of the shards' local
// maximum-bisimulation partitions (each stable for its shard subgraph) and
// refines it against the full edge set — local edges plus cross-shard
// edges — to stability. A stable partition refining the label partition is
// a bisimulation of G, so pattern queries evaluated on the quotient and
// expanded through Members are exactly the answers on G (the paper's
// Theorem 4 argument applies to any bisimulation, not only the coarsest).
// Blocks never span shards, so the result is finer than the global maximum
// bisimulation — the compression ratio the sharded store trades for
// partition-parallel maintenance — and every block expands within a single
// shard, which is what lets Match fan out per shard.
type Stitched struct {
	// Q is the frozen quotient graph over stitched block ids.
	Q *graph.CSR
	// BlockOf maps every global node to its block (the rewriting R).
	BlockOf []graph.Node
	// Members lists, per block, the member global node ids ascending (the
	// post-processing index P).
	Members [][]graph.Node
	// ShardOfBlock gives the single shard every block's members live in.
	ShardOfBlock []int32
}

// BuildStitched assembles the stitched quotient for one epoch. locals are
// the shards' frozen local subgraph snapshots, parts the shards' current
// bisimulation partitions (over local ids), crossOut the epoch's
// cross-shard adjacency, and labels the shared label table.
func BuildStitched(p *Partition, locals []*graph.CSR, parts []*bisim.Partition, crossOut [][]graph.Node, labels *graph.Labels) *Stitched {
	n := len(p.ShardOf)

	// Disjoint union of the per-shard partitions, in global id space.
	blockOf := make([]int32, n)
	var members [][]graph.Node
	shardOfBlock := make([]int32, 0, 64)
	for s := 0; s < p.K; s++ {
		off := int32(len(members))
		for _, blk := range parts[s].Blocks {
			glob := make([]graph.Node, len(blk))
			for i, lv := range blk {
				glob[i] = p.Nodes[s][lv] // local lists ascend, so glob does too
			}
			members = append(members, glob)
			shardOfBlock = append(shardOfBlock, int32(s))
		}
		for lv, b := range parts[s].BlockOf {
			blockOf[p.Nodes[s][lv]] = off + b
		}
	}

	// Reverse cross adjacency, needed to propagate splits to predecessors.
	crossIn := make([][]graph.Node, n)
	for v := range crossOut {
		for _, w := range crossOut[v] {
			crossIn[w] = append(crossIn[w], graph.Node(v))
		}
	}

	// succBlocks collects the sorted distinct successor-block signature of
	// a global node over the full edge set.
	sigBuf := make([]int32, 0, 16)
	succBlocks := func(v graph.Node) []int32 {
		sigBuf = sigBuf[:0]
		s := p.ShardOf[v]
		lv := p.LocalID[v]
		for _, lw := range locals[s].Successors(lv) {
			sigBuf = append(sigBuf, blockOf[p.Nodes[s][lw]])
		}
		for _, w := range crossOut[v] {
			sigBuf = append(sigBuf, blockOf[w])
		}
		slices.Sort(sigBuf)
		out := sigBuf[:0]
		prev := int32(-1)
		for _, b := range sigBuf {
			if b != prev {
				out = append(out, b)
				prev = b
			}
		}
		return out
	}

	// Worklist refinement. Only blocks containing a node with cross-shard
	// out-edges can be unstable initially (the local partitions are stable
	// for the local edge sets); afterwards a block needs rechecking exactly
	// when a successor of one of its members changed block.
	inQueue := make([]bool, len(members), 2*len(members))
	var queue []int32
	push := func(b int32) {
		if !inQueue[b] {
			inQueue[b] = true
			queue = append(queue, b)
		}
	}
	for v := 0; v < n; v++ {
		if len(crossOut[v]) > 0 {
			push(blockOf[v])
		}
	}
	var keyBuf []byte
	key := func(sig []int32) string {
		keyBuf = keyBuf[:0]
		for _, b := range sig {
			keyBuf = append(keyBuf, byte(b), byte(b>>8), byte(b>>16), byte(b>>24))
		}
		return string(keyBuf)
	}
	for len(queue) > 0 {
		b := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		inQueue[b] = false
		mem := members[b]
		if len(mem) <= 1 {
			continue
		}
		groups := make(map[string]int32) // signature -> group index
		var grouped [][]graph.Node
		for _, v := range mem {
			k := key(succBlocks(v))
			gi, ok := groups[k]
			if !ok {
				gi = int32(len(grouped))
				groups[k] = gi
				grouped = append(grouped, nil)
			}
			grouped[gi] = append(grouped[gi], v)
		}
		if len(grouped) == 1 {
			continue
		}
		// Split: the first group keeps id b, the rest get fresh ids. Member
		// order within groups follows the (sorted) block order, so group
		// member lists stay sorted.
		members[b] = grouped[0]
		var moved []graph.Node
		for gi := 1; gi < len(grouped); gi++ {
			nb := int32(len(members))
			members = append(members, grouped[gi])
			shardOfBlock = append(shardOfBlock, shardOfBlock[b])
			inQueue = append(inQueue, false)
			for _, v := range grouped[gi] {
				blockOf[v] = nb
			}
			moved = append(moved, grouped[gi]...)
		}
		// Predecessors of moved nodes may have lost stability.
		for _, v := range moved {
			s := p.ShardOf[v]
			lv := p.LocalID[v]
			for _, lu := range locals[s].Predecessors(lv) {
				push(blockOf[p.Nodes[s][lu]])
			}
			for _, u := range crossIn[v] {
				push(blockOf[u])
			}
		}
	}

	// Canonical renumbering by smallest member, so structurally equal
	// stitched partitions compare equal across epochs and test runs.
	numBlocks := len(members)
	order := make([]int32, numBlocks)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		return members[order[i]][0] < members[order[j]][0]
	})
	canon := make([]int32, numBlocks)
	finalMembers := make([][]graph.Node, numBlocks)
	finalShard := make([]int32, numBlocks)
	for newID, old := range order {
		canon[old] = int32(newID)
		finalMembers[newID] = members[old]
		finalShard[newID] = shardOfBlock[old]
	}
	finalBlockOf := make([]graph.Node, n)
	for v := 0; v < n; v++ {
		finalBlockOf[v] = canon[blockOf[v]]
	}

	return &Stitched{
		Q:            buildStitchedQuotient(p, locals, crossOut, labels, finalBlockOf, finalMembers),
		BlockOf:      finalBlockOf,
		Members:      finalMembers,
		ShardOfBlock: finalShard,
	}
}

// buildStitchedQuotient projects every edge of G (local and cross) to block
// pairs and assembles the quotient graph in bulk.
func buildStitchedQuotient(p *Partition, locals []*graph.CSR, crossOut [][]graph.Node, labels *graph.Labels, blockOf []graph.Node, members [][]graph.Node) *graph.CSR {
	numBlocks := len(members)
	var pairs []uint64
	for s := 0; s < p.K; s++ {
		nodes := p.Nodes[s]
		locals[s].Edges(func(lu, lv graph.Node) bool {
			a, b := blockOf[nodes[lu]], blockOf[nodes[lv]]
			pairs = append(pairs, uint64(uint32(a))<<32|uint64(uint32(b)))
			return true
		})
	}
	for v := range crossOut {
		a := blockOf[v]
		for _, w := range crossOut[v] {
			pairs = append(pairs, uint64(uint32(a))<<32|uint64(uint32(blockOf[w])))
		}
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)

	outDeg := make([]int32, numBlocks)
	for _, pr := range pairs {
		outDeg[pr>>32]++
	}
	flat := make([]graph.Node, len(pairs))
	rows := make([][]graph.Node, numBlocks)
	labelArr := make([]graph.Label, numBlocks)
	off := int32(0)
	for b := 0; b < numBlocks; b++ {
		rows[b] = flat[off : off : off+outDeg[b]]
		off += outDeg[b]
		labelArr[b] = p.Label[members[b][0]]
	}
	for _, pr := range pairs {
		rows[pr>>32] = append(rows[pr>>32], graph.Node(uint32(pr)))
	}
	return graph.BuildFromSortedAdj(labels, labelArr, rows).Freeze()
}
