// Package part partitions a labeled directed graph into k shards for the
// sharded store: an SCC-aware edge-cut partitioner, per-shard subgraph
// views, a frozen boundary summary graph for cross-shard reachability, and
// a stitched global bisimulation quotient for cross-shard pattern queries.
//
// # Partitioning (SCC-aware label/ID hashing)
//
// Split assigns every strongly connected component of G to one shard by
// hashing the id and label of its smallest member node, so all nodes of a
// cycle land in the same shard (a cycle cut across shards would force every
// local reachability structure to consult the summary even for the hot
// same-shard case). Nodes inherit their component's shard. The mapping is
// deterministic for a given graph and k, and it is static: batch updates
// change edges but never the node-to-shard assignment, so an update touches
// only the structures of the one or two shards it names, matching the
// locality argument of incremental view maintenance under updates.
//
// # Boundary summary
//
// A node is a boundary node when it has at least one cross-shard edge in
// either direction. The summary graph has one node per boundary node and
// two kinds of edges: every cross-shard edge of G, and a closure edge
// (b1,b2) whenever b2 is locally reachable from b1 inside their common
// shard (computed over the shard's reachability-compressed quotient, not
// over the shard subgraph). Any path of G decomposes into maximal
// same-shard segments joined by cross-shard edges; each inner segment runs
// between boundary nodes, so it is represented by a closure edge, and the
// cross-shard edges are present verbatim. Hence for boundary nodes b1, b2:
//
//	b1 reaches b2 in G by a path crossing shards  ⇔  b1 reaches b2 in the summary
//
// and a cross-shard query QR(u,v) becomes local-lookup → summary-hop →
// local-lookup: collect the boundary nodes u reaches locally, the boundary
// nodes that reach v locally, and ask the summary whether the first set
// reaches the second. Fully local paths are answered by the shard's own
// compressed quotient first.
package part

import (
	"repro/internal/graph"
)

// Partition is the immutable node-to-shard mapping plus the initial
// cross-shard adjacency extracted at split time. The mapping fields (K,
// ShardOf, LocalID, Nodes, Label) never change after Split and are safe to
// share between epochs and goroutines; ownership of the cross-adjacency
// fields (CrossOut, CrossInDeg) passes to the caller, which evolves them
// under updates.
type Partition struct {
	// K is the shard count.
	K int
	// ShardOf maps every global node to its shard.
	ShardOf []int32
	// LocalID maps every global node to its dense local id within its
	// shard (its index in Nodes[ShardOf[v]]).
	LocalID []int32
	// Nodes lists, per shard, the member global ids in ascending order.
	Nodes [][]graph.Node
	// Label is the (static) label of every global node; node labels do not
	// change under edge updates, so this is shared by all epochs.
	Label []graph.Label
	// CrossOut holds, per global node, the sorted cross-shard successors
	// (nil for nodes with none). Rows are initially fresh slices.
	CrossOut [][]graph.Node
	// CrossInDeg counts, per global node, its cross-shard in-edges.
	CrossInDeg []int32
	// CrossEdges is the total number of cross-shard edges.
	CrossEdges int
}

// fnv1a mixes a node id and its label into a shard key.
func fnv1a(id graph.Node, label graph.Label) uint64 {
	const offset, prime = uint64(14695981039346656037), uint64(1099511628211)
	h := offset
	for _, b := range [8]byte{
		byte(id), byte(id >> 8), byte(id >> 16), byte(id >> 24),
		byte(label), byte(label >> 8), byte(label >> 16), byte(label >> 24),
	} {
		h = (h ^ uint64(b)) * prime
	}
	return h
}

// Split partitions the snapshot c into k shards by SCC-aware label/ID
// hashing and extracts the cross-shard adjacency. k is clamped to at
// least 1; with k = 1 everything is local and the cross fields are empty.
func Split(c *graph.CSR, k int) *Partition {
	if k < 1 {
		k = 1
	}
	n := c.NumNodes()
	p := &Partition{
		K:          k,
		ShardOf:    make([]int32, n),
		LocalID:    make([]int32, n),
		Nodes:      make([][]graph.Node, k),
		Label:      make([]graph.Label, n),
		CrossOut:   make([][]graph.Node, n),
		CrossInDeg: make([]int32, n),
	}
	for v := 0; v < n; v++ {
		p.Label[v] = c.Label(graph.Node(v))
	}
	scc := graph.TarjanCSR(c)
	shardOfComp := make([]int32, scc.NumComponents())
	for comp := range shardOfComp {
		rep := scc.Members(int32(comp))[0] // members are sorted: the smallest id
		shardOfComp[comp] = int32(fnv1a(rep, c.Label(rep)) % uint64(k))
	}
	for v := 0; v < n; v++ {
		s := shardOfComp[scc.Comp[v]]
		p.ShardOf[v] = s
		p.LocalID[v] = int32(len(p.Nodes[s]))
		p.Nodes[s] = append(p.Nodes[s], graph.Node(v))
	}
	// Cross-shard adjacency: CSR successor rows are sorted, so the filtered
	// rows come out sorted too.
	for v := 0; v < n; v++ {
		sv := p.ShardOf[v]
		for _, w := range c.Successors(graph.Node(v)) {
			if p.ShardOf[w] != sv {
				p.CrossOut[v] = append(p.CrossOut[v], w)
				p.CrossInDeg[w]++
				p.CrossEdges++
			}
		}
	}
	return p
}

// Subgraph extracts shard s's induced local subgraph (local ids, shared
// label table, intra-shard edges only) from the snapshot c.
func (p *Partition) Subgraph(c *graph.CSR, s int) *graph.Graph {
	return graph.ExtractGroup(c, p.ShardOf, int32(s), p.Nodes[s], p.LocalID)
}
