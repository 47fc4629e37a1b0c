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

	// Condensation, component by component. Walking a's members, cnt[b]
	// counts the edges into b; it is zero before b's first, so it also marks
	// the targets a's row already holds. Each row is sorted on its own and
	// cnt is zeroed again through it. rows and sup are scratch, copied out at
	// their exact length: dynscc adopts the flat arrays as arenas and reads
	// their capacity.
	cnt := make([]int32, numComp)
	ends := make([]int32, numComp)
	var rows, sup []int32
	for a, ms := range members {
		start := len(rows)
		for _, u := range ms {
			for _, v := range c.Successors(u) {
				b := comp[v]
				if b == int32(a) {
					s.Cyclic[a] = true // self-loop or intra-SCC edge
					continue
				}
				if cnt[b] == 0 {
					rows = append(rows, b)
				}
				cnt[b]++
			}
		}
		row := rows[start:]
		slices.Sort(row)
		for _, b := range row {
			sup = append(sup, cnt[b])
			cnt[b] = 0
		}
		ends[a] = int32(len(rows))
	}
	s.outFlat = make([]int32, len(rows))
	s.supFlat = make([]int32, len(rows))
	s.inFlat = make([]int32, len(rows))
	copy(s.outFlat, rows)
	copy(s.supFlat, sup)

	// Out and OutSupport are carved at the row ends; In is Out transposed,
	// cnt counting in-degrees. Visiting sources by ascending id leaves every
	// in-row sorted.
	s.Out = make([][]int32, numComp)
	s.OutSupport = make([][]int32, numComp)
	s.In = make([][]int32, numComp)
	lo := int32(0)
	for a, hi := range ends {
		s.Out[a] = s.outFlat[lo:hi:hi]
		s.OutSupport[a] = s.supFlat[lo:hi:hi]
		lo = hi
	}
	for _, b := range rows {
		cnt[b]++
	}
	lo = 0
	for b, deg := range cnt {
		s.In[b] = s.inFlat[lo : lo : lo+deg]
		lo += deg
	}
	for a, row := range s.Out {
		for _, b := range row {
			s.In[b] = append(s.In[b], int32(a))
		}
	}
	return s
}
