package pattern

import "repro/internal/graph"

// Hooks for the external tests, which import packages that import this one.
var RoundsMatch = roundsMatch

// Work is what MatchCounted reports a match scanned: predecessor rows,
// adjacency entries in both directions, targets whose counters were built
// and top levels pulled.
type Work struct{ Rows, Entries, Built, Pulled int }

// MatchCounted is MatchCSR that also returns the work its refinement did.
func MatchCounted(c *graph.CSR, p *Pattern) (*Result, Work) {
	res, w := matchCounted(c, p)
	return res, Work{Rows: w.rows, Entries: w.entries, Built: w.built, Pulled: w.pulled}
}
