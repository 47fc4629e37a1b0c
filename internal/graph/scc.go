package graph

import "slices"

// SCC holds the strongly-connected-component decomposition of a graph and
// its condensation (the SCC graph Gscc of Section 5 of the paper).
//
// Component ids are assigned in reverse topological order: if the
// condensation has an edge from component a to component b (a != b) then
// a > b. Equivalently, components listed in ascending id order form a
// topological order of the condensation from sinks to sources.
//
// Every row — a component's members, its successor and predecessor rows
// and the successor row's supports — is stored once: per-component offsets
// over one flat array per kind, read through Members, Out, Support and In,
// or whole through OutRows and InRows.
type SCC struct {
	// Comp maps each node to its component id.
	Comp []int32
	// Cyclic reports whether a component contains a cycle: it has more than
	// one member or a self-loop.
	Cyclic []bool

	// Each row lies once, in a flat array, rows back to back in component
	// order: row a of members is members[memOff[a]:memOff[a+1]], of out and
	// sup out[outOff[a]:outOff[a+1]], of in in[inOff[a]:inOff[a+1]].
	memOff, outOff, inOff []int32
	members               []Node
	out, sup, in          []int32
}

// NumComponents returns the number of strongly connected components.
func (s *SCC) NumComponents() int { return len(s.Cyclic) }

// Members returns the nodes of component a, ascending.
func (s *SCC) Members(a int32) []Node { return s.members[s.memOff[a]:s.memOff[a+1]:s.memOff[a+1]] }

// Out returns the successor components of a in the condensation, ascending
// and without a itself.
func (s *SCC) Out(a int32) []int32 { return s.out[s.outOff[a]:s.outOff[a+1]:s.outOff[a+1]] }

// Support is aligned with Out(a): Support(a)[i] counts the member edges
// (u,v) in E with comp(u) = a, comp(v) = Out(a)[i]. Incremental maintenance
// seeds its support counters from these counts.
func (s *SCC) Support(a int32) []int32 { return s.sup[s.outOff[a]:s.outOff[a+1]:s.outOff[a+1]] }

// In returns the predecessor components of a in the condensation,
// ascending and without a itself.
func (s *SCC) In(a int32) []int32 { return s.in[s.inOff[a]:s.inOff[a+1]:s.inOff[a+1]] }

// OutRows returns the successor side in CSR layout: Out(a) is
// adj[off[a]:off[a+1]], and support[i] is the support of adj[i]. The rows
// returned by Out, Support and In are views into these arrays and must not
// be modified or appended to; a caller that adopts the arrays owns them and
// must not read the rows after writing to them.
func (s *SCC) OutRows() (off, adj, support []int32) { return s.outOff, s.out, s.sup }

// InRows returns the predecessor side in CSR layout: In(a) is
// adj[off[a]:off[a+1]]. Ownership is as for OutRows.
func (s *SCC) InRows() (off, adj []int32) { return s.inOff, s.in }

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
	stack := make([]Node, 0, n)
	numComp := int32(0)

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
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = numComp
					if w == v {
						break
					}
				}
				numComp++
			}
		}
	}

	// Members by counting sort over node ids, each row ascending; cnt holds
	// the fill cursors.
	s := &SCC{
		Comp:    comp,
		Cyclic:  make([]bool, numComp),
		memOff:  make([]int32, numComp+1),
		members: make([]Node, n),
		outOff:  make([]int32, numComp+1),
		inOff:   make([]int32, numComp+1),
	}
	for _, a := range comp {
		s.memOff[a+1]++
	}
	for a := range numComp {
		s.memOff[a+1] += s.memOff[a]
	}
	cnt := slices.Clone(s.memOff[:numComp])
	for v, a := range comp {
		s.members[cnt[a]] = Node(v)
		cnt[a]++
	}
	clear(cnt)

	// Condensation, component by component. Walking a's members, cnt[b]
	// counts the edges into b; it is zero before b's first, so it also marks
	// the targets a's row already holds. Each row is sorted on its own and
	// cnt is zeroed again through it. rows and sup are scratch, copied out at
	// their exact length: dynscc adopts the flat arrays as arenas and reads
	// their capacity.
	var rows, sup []int32
	for a := range numComp {
		start := len(rows)
		ms := s.Members(a)
		s.Cyclic[a] = len(ms) > 1
		for _, u := range ms {
			for _, v := range c.Successors(u) {
				b := comp[v]
				if b == a {
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
		s.outOff[a+1] = int32(len(rows))
	}
	s.out = make([]int32, len(rows))
	s.sup = make([]int32, len(rows))
	copy(s.out, rows)
	copy(s.sup, sup)

	// In is Out transposed: cnt counts in-degrees, then serves as each
	// row's fill cursor. Visiting sources by ascending id leaves every
	// in-row sorted.
	for _, b := range rows {
		cnt[b]++
	}
	for b, deg := range cnt {
		s.inOff[b+1] = s.inOff[b] + deg
		cnt[b] = s.inOff[b]
	}
	s.in = make([]int32, len(rows))
	for a := range numComp {
		for _, b := range s.Out(a) {
			s.in[cnt[b]] = a
			cnt[b]++
		}
	}
	return s
}
