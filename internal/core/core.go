// Package core defines the query preserving graph compression framework of
// Section 2.2 of the paper: a compression scheme for a query class Q is a
// triple <R, F, P> of a compression function R, a query rewriting function
// F and a post-processing function P such that for every graph G and every
// query Q ∈ Q,
//
//	Q(G) = P(F(Q)(R(G)))
//
// and — crucially — any evaluation algorithm for Q runs on the compressed
// graph Gr = R(G) unmodified.
//
// The two instantiations of the paper live in sibling packages:
//
//   - reach:   reachability queries; R groups nodes by the reachability
//     equivalence relation, F rewrites node ids through R, and no
//     post-processing is needed (Theorem 2).
//   - bisim + pattern: graph pattern queries via (bounded) simulation; R is
//     the maximum-bisimulation quotient, F is the identity, and P expands
//     class nodes back to their members (Theorem 4).
//
// Their incremental counterparts (Section 5) are increach and incbisim.
// This package holds the compression-ratio helpers the experiment drivers
// share.
package core

import (
	"repro/internal/graph"
)

// Ratio is the paper's compression ratio measure |Gr| / |G| with
// |G| = |V| + |E| (Section 6, Exp-1). Smaller is better.
func Ratio(g, gr *graph.Graph) float64 {
	if g.Size() == 0 {
		return 1
	}
	return float64(gr.Size()) / float64(g.Size())
}

// Reduction is 1 - Ratio expressed as a percentage, the "reduces graphs by
// 95%" phrasing used in the paper's abstract.
func Reduction(g, gr *graph.Graph) float64 {
	return 100 * (1 - Ratio(g, gr))
}
