package graph

import "slices"

// SCC holds the strongly-connected-component decomposition of a graph and
// its condensation (the SCC graph Gscc of Section 5 of the paper).
//
// Component ids are assigned in reverse topological order: if the
// condensation has an edge from component a to component b (a != b) then
// a > b. Equivalently, components listed in ascending id order form a
// topological order of the condensation from sinks to sources.
type SCC struct {
	// Comp maps each node to its component id.
	Comp []int32
	// Members lists the nodes of each component.
	Members [][]Node
	// Out and In are the deduplicated adjacency lists of the condensation
	// (no self-loops at the component level), sorted ascending. The rows
	// are views into two flat backing arrays (CSR layout) and must not be
	// modified or appended to.
	Out, In [][]int32
	// OutSupport is aligned with Out: OutSupport[a][i] counts the member
	// edges (u,v) in E with comp(u)=a, comp(v)=Out[a][i]. Incremental
	// maintenance seeds its support counters from it.
	OutSupport [][]int32
	// Cyclic reports whether a component contains a cycle: it has more than
	// one member or a self-loop.
	Cyclic []bool

	outFlat, supFlat, inFlat []int32 // what Out, OutSupport and In are carved from
}

// NumComponents returns the number of strongly connected components.
func (s *SCC) NumComponents() int { return len(s.Members) }

// Flat returns the arrays Out, OutSupport and In are carved from: in each,
// the rows lie back to back in component order, so row a starts where row
// a−1 ends. A caller that adopts them owns them and must not read the rows
// after writing to them.
func (s *SCC) Flat() (out, support, in []int32) { return s.outFlat, s.supFlat, s.inFlat }

// Tarjan computes the strongly connected components of g with an iterative
// Tarjan algorithm (safe for deep graphs) and returns the decomposition
// together with the condensation. It runs over a CSR snapshot; callers that
// already hold one should use TarjanCSR directly and skip the Freeze.
func Tarjan(g *Graph) *SCC { return TarjanCSR(g.Freeze()) }

// TarjanCSR is Tarjan over a frozen CSR snapshot.
func TarjanCSR(c *CSR) *SCC {
	n := c.NumNodes()
	const undef = int32(-1)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = undef
	}
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = undef
	}
	stack := make([]Node, 0, n)
	var compSize []int32

	// Explicit DFS frames: node plus position in its successor list.
	type frame struct {
		v  Node
		ei int
	}
	var next int32
	frames := make([]frame, 0, 64)

	for root := 0; root < n; root++ {
		if index[root] != undef {
			continue
		}
		frames = append(frames[:0], frame{v: Node(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, Node(root))
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			succ := c.Successors(f.v)
			if f.ei < len(succ) {
				w := succ[f.ei]
				f.ei++
				if index[w] == undef {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Done with v: pop frame, maybe emit component.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				id := int32(len(compSize))
				size := int32(0)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = id
					size++
					if w == v {
						break
					}
				}
				compSize = append(compSize, size)
			}
		}
	}

	// Members rows are carved out of one flat array by counting sort over
	// node ids (one allocation instead of one per component); each row
	// comes out sorted ascending.
	numComp := len(compSize)
	membersFlat := make([]Node, n)
	members := make([][]Node, numComp)
	off := int32(0)
	for id := 0; id < numComp; id++ {
		members[id] = membersFlat[off : off : off+compSize[id]]
		off += compSize[id]
	}
	for v := 0; v < n; v++ {
		id := comp[v]
		members[id] = append(members[id], Node(v))
	}

	s := &SCC{
		Comp:    comp,
		Members: members,
		Cyclic:  make([]bool, numComp),
	}
	for id, ms := range members {
		if len(ms) > 1 {
			s.Cyclic[id] = true
		}
	}

	// Condensation: project every edge to a packed component pair, sort,
	// and dedup; the Out/In rows and the support counts come out sorted
	// inside flat backing arrays.
	pairs := make([]uint64, 0, c.NumEdges())
	for u := 0; u < n; u++ {
		a := comp[u]
		for _, v := range c.Successors(Node(u)) {
			b := comp[v]
			if a == b {
				s.Cyclic[a] = true // self-loop or intra-SCC edge
				continue
			}
			pairs = append(pairs, uint64(uint32(a))<<32|uint64(uint32(b)))
		}
	}
	s.condense(pairs, len(members))
	return s
}

// condense turns packed (a,b) component pairs (a != b, with multiplicity)
// into sorted CSR-backed Out/In adjacency plus the support counts aligned
// with Out.
func (s *SCC) condense(pairs []uint64, numComp int) {
	slices.Sort(pairs)
	// Dedup in place, counting multiplicities; distinct pairs stay sorted,
	// so the counts line up with the Out rows carved below.
	distinct := pairs[:0]
	var counts []int32
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j] == pairs[i] {
			j++
		}
		counts = append(counts, int32(j-i))
		distinct = append(distinct, pairs[i])
		i = j
	}
	s.Out, s.In, s.outFlat, s.inFlat = adjFromSortedPairs(distinct, numComp)
	s.supFlat = counts[:len(counts):len(counts)]
	s.OutSupport = make([][]int32, numComp)
	off := 0
	for a, row := range s.Out {
		s.OutSupport[a] = counts[off : off+len(row) : off+len(row)]
		off += len(row)
	}
}

// adjFromSortedPairs expands sorted, deduplicated packed (a<<32|b) pairs
// into forward and reverse adjacency rows carved out of two flat backing
// arrays, which it returns too (capacity-limited views, so a later append
// reallocates instead of clobbering a neighbor). Rows come out sorted
// ascending on both sides.
func adjFromSortedPairs(pairs []uint64, n int) (adj, radj [][]int32, outFlat, inFlat []int32) {
	outDeg := make([]int32, n)
	inDeg := make([]int32, n)
	for _, p := range pairs {
		outDeg[p>>32]++
		inDeg[uint32(p)]++
	}
	outFlat = make([]int32, len(pairs))
	inFlat = make([]int32, len(pairs))
	adj = make([][]int32, n)
	radj = make([][]int32, n)
	oo, io := int32(0), int32(0)
	for v := 0; v < n; v++ {
		adj[v] = outFlat[oo : oo : oo+outDeg[v]]
		radj[v] = inFlat[io : io : io+inDeg[v]]
		oo += outDeg[v]
		io += inDeg[v]
	}
	for _, p := range pairs {
		a := int32(p >> 32)
		b := int32(uint32(p))
		adj[a] = append(adj[a], b)
		radj[b] = append(radj[b], a)
	}
	return adj, radj, outFlat, inFlat
}
