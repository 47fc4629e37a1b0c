// Package hop2 implements a 2-hop reachability labeling in the sense of
// Cohen, Halperin, Kaplan and Zwick [6]: every node v carries label sets
// Lout(v) (hubs v reaches) and Lin(v) (hubs reaching v), with
// reach(u,v) ⇔ Lout(u) ∩ Lin(v) ≠ ∅.
//
// Construction uses order-pruned BFS ("pruned landmark labeling") rather
// than Cohen et al.'s set-cover heuristic: nodes are processed in
// descending-degree order; the forward/backward searches from each hub are
// pruned wherever existing labels already answer the query. The label
// structure and query semantics are identical to the original 2-hop
// scheme; only the cover heuristic differs (see DESIGN.md substitutions).
// The index is built over the SCC condensation, so cyclic graphs are
// handled exactly, and the paper's point stands unchanged: the index can
// be built over the small compressed graph Gr where building it over G is
// infeasible (Fig. 12(d)).
package hop2

import (
	"slices"

	"repro/internal/graph"
)

// Index is a 2-hop reachability index over a fixed snapshot of a graph.
type Index struct {
	comp   []int32 // node -> condensation component
	cyclic []bool
	lout   [][]int32 // per component: sorted hub lists
	lin    [][]int32
}

// Build constructs the index for g.
func Build(g *graph.Graph) *Index { return BuildCSR(g.Freeze()) }

// BuildCSR constructs the index from a frozen CSR snapshot; the pruned
// BFS passes then run over the snapshot's condensation, whose adjacency
// rows are views into flat arrays.
func BuildCSR(c *graph.CSR) *Index {
	s := graph.TarjanCSR(c)
	n := s.NumComponents()
	idx := &Index{
		comp:   s.Comp,
		cyclic: s.Cyclic,
		lout:   make([][]int32, n),
		lin:    make([][]int32, n),
	}

	// Hub order: descending total condensation degree, a standard and
	// effective pruning order.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		da := len(s.Out[a]) + len(s.In[a])
		db := len(s.Out[b]) + len(s.In[b])
		if da != db {
			return db - da
		}
		return int(a - b)
	})

	visited := make([]bool, n)
	var stamp []int32 // visited components to reset
	for _, hub := range order {
		// Forward BFS: hub reaches w ⇒ hub ∈ Lin(w), unless already covered.
		stamp = stamp[:0]
		stack := []int32{hub}
		visited[hub] = true
		stamp = append(stamp, hub)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if x != hub && idx.covered(hub, x) {
				continue
			}
			if x != hub {
				idx.lin[x] = append(idx.lin[x], hub)
			}
			for _, w := range s.Out[x] {
				if !visited[w] {
					visited[w] = true
					stamp = append(stamp, w)
					stack = append(stack, w)
				}
			}
		}
		for _, c := range stamp {
			visited[c] = false
		}

		// Backward BFS: w reaches hub ⇒ hub ∈ Lout(w).
		stamp = stamp[:0]
		stack = []int32{hub}
		visited[hub] = true
		stamp = append(stamp, hub)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if x != hub && idx.covered(x, hub) {
				continue
			}
			if x != hub {
				idx.lout[x] = append(idx.lout[x], hub)
			}
			for _, w := range s.In[x] {
				if !visited[w] {
					visited[w] = true
					stamp = append(stamp, w)
					stack = append(stack, w)
				}
			}
		}
		for _, c := range stamp {
			visited[c] = false
		}

		// Hub labels itself on both sides so intersections through the hub
		// work for endpoints equal to the hub.
		idx.lout[hub] = append(idx.lout[hub], hub)
		idx.lin[hub] = append(idx.lin[hub], hub)
	}
	for comp := 0; comp < n; comp++ {
		slices.Sort(idx.lout[comp])
		slices.Sort(idx.lin[comp])
	}
	return idx
}

// covered reports whether reach(a,b) at component level is already implied
// by the labels assigned so far (the pruning test and the query primitive).
func (idx *Index) covered(a, b int32) bool {
	la, lb := idx.lout[a], idx.lin[b]
	i, j := 0, 0
	for i < len(la) && j < len(lb) {
		switch {
		case la[i] == lb[j]:
			return true
		case la[i] < lb[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Reachable answers the strict reachability query QR(u,v) from labels
// alone: O(|Lout(u)| + |Lin(v)|), no graph traversal.
func (idx *Index) Reachable(u, v graph.Node) bool {
	a, b := idx.comp[u], idx.comp[v]
	if a == b {
		return idx.cyclic[a]
	}
	return idx.covered(a, b)
}

// Entries returns the total number of label entries, the standard size
// measure for 2-hop covers.
func (idx *Index) Entries() int {
	n := 0
	for c := range idx.lout {
		n += len(idx.lout[c]) + len(idx.lin[c])
	}
	return n
}

// MemoryBytes estimates the index footprint under the cost model of
// costmodel.go: 4 bytes per label entry plus two slice headers per
// component and the node→component map.
func (idx *Index) MemoryBytes() int64 {
	return int64(idx.Entries())*4 + int64(len(idx.lout))*48 + int64(len(idx.comp))*4
}
