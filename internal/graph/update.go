package graph

// Update is one element of a batch update ΔG: an edge insertion or
// deletion. The paper's incremental compression problem takes batches of
// these (Section 5); node insertions/deletions are out of scope, matching
// the paper.
type Update struct {
	From, To Node
	// Insert selects insertion (true) or deletion (false).
	Insert bool
}

// Insertion returns an edge-insertion update.
func Insertion(u, v Node) Update { return Update{From: u, To: v, Insert: true} }

// Deletion returns an edge-deletion update.
func Deletion(u, v Node) Update { return Update{From: u, To: v, Insert: false} }

// Apply applies the batch to g in order, skipping no-ops (inserting an
// existing edge, deleting a missing one). It returns the number of updates
// that changed the graph.
func (g *Graph) Apply(batch []Update) int {
	n := 0
	for _, u := range batch {
		if u.Insert {
			if g.AddEdge(u.From, u.To) {
				n++
			}
		} else {
			if g.RemoveEdge(u.From, u.To) {
				n++
			}
		}
	}
	return n
}

// Reduce is the minDelta preprocessing of Section 5.2, against g's current
// edge set: it removes no-op updates (inserting an existing edge, deleting
// an absent one), collapses duplicates, and cancels insert/delete pairs
// over the same edge (the last operation per edge wins, then is checked
// against presence). Every update of the result changes g, and no edge
// occurs twice. g is not modified.
func (g *Graph) Reduce(batch []Update) []Update {
	type edge struct{ u, v Node }
	last := make(map[edge]int, len(batch)) // edge -> index of its entry in out
	out := make([]Update, 0, len(batch))
	for _, up := range batch {
		e := edge{up.From, up.To}
		if i, seen := last[e]; seen {
			out[i].Insert = up.Insert
			continue
		}
		last[e] = len(out)
		out = append(out, up)
	}
	eff := out[:0]
	for _, up := range out {
		if up.Insert != g.HasEdge(up.From, up.To) {
			eff = append(eff, up)
		}
	}
	return eff
}
