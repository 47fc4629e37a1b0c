package graph

import "fmt"

// This file is the stable serialization surface of the graph substrate:
// a CSR's flat form for encoders, and validated bulk constructors for
// decoders. The on-disk layout itself lives in internal/snapfile; graph only
// promises that the successor side plus the label table reproduce a
// snapshot exactly, however it was built: a patched CSR and the Freeze of
// the same graph have one flat form, and the predecessor side is derived.

// LabelIDs exposes the per-node label id array (len |V|). Read-only.
func (c *CSR) LabelIDs() []Label { return c.label }

// Names exposes the interned label names in id order. Read-only.
func (l *Labels) Names() []string { return l.names }

// LabelsFromNames reconstructs an interning table whose id assignment is
// exactly the given name order, as produced by Names. Duplicate names are
// rejected: they could never have come from an interning table and would
// silently alias two label ids.
func LabelsFromNames(names []string) (*Labels, error) {
	l := NewLabels()
	for i, name := range names {
		if _, ok := l.ids[name]; ok {
			return nil, fmt.Errorf("graph: duplicate label name %q at id %d", name, i)
		}
		l.Intern(name)
	}
	return l, nil
}

// CSRFromRows builds a CSR from its successor side alone — the label ids,
// the offset table and the flat rows — and derives the predecessor side by
// one transposition, O(|V|+|E|). It is how a decoder that was sent only the
// rows (a snapshot file, a replica's shipped quotient) gets the compact CSR
// Freeze would give. outAdj is retained, not copied, and never written.
//
// Validation covers every invariant the read paths rely on for memory
// safety and search correctness: consistent lengths, a monotone offset
// table covering the whole adjacency array, node ids in range, rows
// strictly increasing, and label ids known to the table. The predecessor
// side is derived, so it agrees with the successor side by construction.
func CSRFromRows(labels *Labels, label []Label, outOff []int32, outAdj []Node) (*CSR, error) {
	n := len(label)
	if len(outOff) != n+1 {
		return nil, fmt.Errorf("graph: CSRFromRows: offset table has %d entries, want %d", len(outOff), n+1)
	}
	if outOff[0] != 0 || int(outOff[n]) != len(outAdj) {
		return nil, fmt.Errorf("graph: CSRFromRows: offsets span [%d,%d], want [0,%d]", outOff[0], outOff[n], len(outAdj))
	}
	rows := make([]span, n)
	for v := range rows {
		lo, hi := outOff[v], outOff[v+1]
		if hi < lo || int(hi) > len(outAdj) {
			return nil, fmt.Errorf("graph: CSRFromRows: offsets decrease or overrun at node %d", v)
		}
		rows[v] = span{lo, hi}
	}
	return fromSuccessors(labels, label, rows, outAdj)
}

// CSRFromDegrees is CSRFromRows with the successor side given by its
// out-degrees instead of an offset table: row v is the next deg[v] entries
// of outAdj. The degrees are read, not retained.
func CSRFromDegrees(labels *Labels, label []Label, deg []int32, outAdj []Node) (*CSR, error) {
	if len(deg) != len(label) {
		return nil, fmt.Errorf("graph: CSRFromDegrees: %d degrees for %d nodes", len(deg), len(label))
	}
	rows := make([]span, len(deg))
	m, pos := int64(len(outAdj)), int64(0)
	for v, d := range deg {
		end := pos + int64(d)
		if end < pos || end > m {
			return nil, fmt.Errorf("graph: CSRFromDegrees: degree %d of node %d overruns %d edges", d, v, m)
		}
		rows[v] = span{int32(pos), int32(end)}
		pos = end
	}
	if pos != m {
		return nil, fmt.Errorf("graph: CSRFromDegrees: degrees sum to %d of %d edges", pos, m)
	}
	return fromSuccessors(labels, label, rows, outAdj)
}

// fromSuccessors validates the labels and the successor rows over adj —
// row spans already checked to lie in adj — and derives the predecessor
// side. The validation pass also counts in-degrees, so the derivation costs
// one more walk over the rows.
func fromSuccessors(labels *Labels, label []Label, rows []span, adj []Node) (*CSR, error) {
	if labels == nil {
		return nil, fmt.Errorf("graph: nil label table")
	}
	if err := checkLabels(labels, label); err != nil {
		return nil, err
	}
	in := make([]span, len(rows))
	for v, r := range rows {
		prev := Node(-1)
		for _, w := range adj[r.lo:r.hi] {
			if uint(w) >= uint(len(in)) {
				return nil, fmt.Errorf("graph: row of node %d references invalid node %d", v, w)
			}
			if w <= prev {
				return nil, fmt.Errorf("graph: row of node %d not sorted/unique", v)
			}
			in[w].hi++
			prev = w
		}
	}
	out := compactSide(rows, adj)
	return &CSR{labels: labels, label: label, m: len(adj), out: out, in: fill(&out, in, len(adj))}, nil
}

// checkLabels validates every label id against the table.
func checkLabels(labels *Labels, label []Label) error {
	nl := Label(labels.Count())
	for v, lb := range label {
		if lb < 0 || lb >= nl {
			return fmt.Errorf("graph: node %d has unknown label id %d", v, lb)
		}
	}
	return nil
}
