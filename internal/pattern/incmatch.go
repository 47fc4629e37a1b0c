package pattern

import (
	"slices"

	"repro/internal/graph"
)

// IncMatcher maintains the maximum match of one pattern over an evolving
// graph — the IncBMatch baseline of the paper's Fig. 12(h) experiment
// (comparing incremental matching on G against incPCM + Match on Gr).
//
// Maintenance strategy (see DESIGN.md "Substitutions"):
//
//   - Deletion-only batches are handled incrementally: the new maximum
//     match is a subset of the old one (removing edges only removes
//     paths), and the refinement operator is deflationary, so running the
//     fixpoint from the previous match converges exactly to the new
//     maximum match while touching only pairs that actually change.
//   - Batches containing insertions fall back to re-evaluation, because
//     the maximum match may grow and a greatest fixpoint cannot be safely
//     approached from below.
type IncMatcher struct {
	g  *graph.Graph
	p  *Pattern
	s  *sets
	ok bool
}

// NewIncMatcher evaluates p on g and returns a maintainer. The matcher
// owns g: all subsequent updates must be applied through Apply.
func NewIncMatcher(g *graph.Graph, p *Pattern) *IncMatcher {
	m := &IncMatcher{g: g, p: p}
	m.rematch()
	return m
}

// Result returns the current maximum match.
func (m *IncMatcher) Result() *Result {
	if !m.ok {
		return &Result{OK: false}
	}
	r := m.s.result()
	for u := range r.Sets {
		r.Sets[u] = slices.Clone(r.Sets[u])
	}
	return r
}

// Graph returns the maintained graph.
func (m *IncMatcher) Graph() *graph.Graph { return m.g }

// Apply applies the batch to the graph and brings the match up to date.
func (m *IncMatcher) Apply(batch []graph.Update) {
	insertions := false
	changedAny := false
	for _, u := range batch {
		if u.Insert {
			if m.g.AddEdge(u.From, u.To) {
				insertions = true
				changedAny = true
			}
		} else {
			if m.g.RemoveEdge(u.From, u.To) {
				changedAny = true
			}
		}
	}
	if !changedAny {
		return
	}
	if insertions {
		// Growth is possible: re-evaluate.
		m.rematch()
		return
	}
	if !m.ok {
		// There was no match and deletions cannot create one.
		return
	}
	// Deletions only: refine the previous match downward. The O(|V|+|E|)
	// re-freeze is the same order as building the counters, which the
	// refinement does once per bounded target anyway.
	c := m.g.Freeze()
	sc := scratches.Get().(*scratch)
	defer sc.release(c.NumNodes())
	m.ok, _ = refine(c, m.p, m.s, sc, fewerRows)
}

// rematch evaluates the pattern from its label candidates. The matcher
// keeps its sets across batches, so their flags are its own, not pooled.
func (m *IncMatcher) rematch() {
	c := m.g.Freeze()
	m.s, m.ok = candidates(c, m.p, make([]bool, m.p.NumNodes()*c.NumNodes()))
	if m.ok {
		sc := scratches.Get().(*scratch)
		defer sc.release(c.NumNodes())
		m.ok, _ = refine(c, m.p, m.s, sc, fewerRows)
	}
}
