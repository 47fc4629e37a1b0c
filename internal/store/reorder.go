// Locality-aware CSR reordering for the published read path. Every
// snapshot's traversal CSRs are permuted so BFS frontiers walk
// near-sequential memory (see internal/graph/reorder.go):
//
//   - The reach quotient is relabeled outright (incPCM relabels the pattern
//     quotient the same way when it builds its view): the permutation is
//     composed into the class mapping R, so Rewrite already
//     lands in the permuted id space and the query hot loop needs no id
//     translation at all. A relabeled quotient is just a different —
//     isomorphic — quotient; everything downstream (2-hop indexes, member
//     expansion, the snapshot codec) is built from the permuted form and
//     stays self-consistent, which is also why durable snapshots round-trip
//     with no extra state.
//   - G itself keeps its public node ids (they are API surface), so the
//     snapshot carries a Reordered view: the uncompressed read paths
//     translate their endpoints once at entry through the id maps and
//     traverse the permuted layout.
package store

import (
	"repro/internal/graph"
	"repro/internal/reach"
)

// reorderReach relabels a reachability compression by the locality
// permutation of its quotient CSR: returns an equivalent Compressed whose
// class mapping, member index and cyclic flags are in the permuted id
// space, together with the permuted CSR. The permutation is a TOPOLOGICAL
// level order (reach quotients are DAGs with self-loops), which both packs
// BFS levels contiguously and unlocks the one-pass batch sweep
// (queries.BatchReachableTopoHub) on the published quotient.
// The relabel is O(|Gr|) plus O(|V|) for the class map. The returned
// Compressed carries no mutable Gr: the permuted CSR beside it is the
// quotient every store-side reader uses.
func reorderReach(rc *reach.Compressed, gr *graph.CSR) (*reach.Compressed, *graph.CSR) {
	ro := graph.ApplyPerm(gr, graph.ReorderTopoPerm(gr))
	nq := gr.NumNodes()
	classOf := rc.ClassMap()
	newClassOf := make([]graph.Node, len(classOf))
	for v, c := range classOf {
		newClassOf[v] = ro.NewID[c]
	}
	members := make([][]graph.Node, nq)
	cyclic := make([]bool, nq)
	for c := 0; c < nq; c++ {
		members[ro.NewID[c]] = rc.Members[c]
		cyclic[ro.NewID[c]] = rc.CyclicClass[c]
	}
	return reach.AssembleCompressed(nil, newClassOf, members, cyclic), ro.C
}
