package graph

import "fmt"

// This file is the stable serialization surface of the graph substrate:
// a CSR's flat form for encoders, and validated bulk constructors for
// decoders. The on-disk layout itself lives in internal/snapfile; graph only
// promises that the four flat arrays plus the label table reproduce a
// snapshot exactly, however it was built: a patched CSR and the Freeze of
// the same graph have one flat form.

// OutOffsets returns the successor offset table (len |V|+1) of the flat
// form, derived from the row table in O(|V|). Read-only.
func (c *CSR) OutOffsets() []int32 { return c.out.offsets() }

// OutAdj returns the flat successor array (len |E|): the arena itself on a
// compact CSR, a compacted copy of a patched one. Read-only.
func (c *CSR) OutAdj() []Node { return c.out.flat(c.m) }

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

// CSRFromArrays reconstructs a compact CSR snapshot from its flat arrays, as
// returned by LabelIDs, OutOffsets, OutAdj, InOffsets and InAdj. The
// adjacency arrays are retained, not copied, and never written: a decoder
// can alias them straight into a file buffer so that loading is
// O(validation), with no per-edge work beyond one bounds-and-order scan. The
// row tables are built from the offsets.
//
// Validation covers every invariant the read paths rely on for memory
// safety and search correctness: consistent lengths, monotone offset
// tables covering the whole adjacency arrays, node ids in range, rows
// strictly increasing, and label ids known to the table. It does not
// cross-check that the in-adjacency is the exact transpose of the
// out-adjacency (an O(|E| log) pass); callers that need integrity against
// arbitrary corruption get it from the snapshot file's checksum.
func CSRFromArrays(labels *Labels, label []Label, outOff []int32, outAdj []Node, inOff []int32, inAdj []Node) (*CSR, error) {
	if labels == nil {
		return nil, fmt.Errorf("graph: CSRFromArrays: nil label table")
	}
	n := len(label)
	if len(outOff) != n+1 || len(inOff) != n+1 {
		return nil, fmt.Errorf("graph: CSRFromArrays: offset tables have %d/%d entries, want %d", len(outOff), len(inOff), n+1)
	}
	if len(outAdj) != len(inAdj) {
		return nil, fmt.Errorf("graph: CSRFromArrays: %d out-edges vs %d in-edges", len(outAdj), len(inAdj))
	}
	if err := checkLabels(labels, label); err != nil {
		return nil, err
	}
	if err := checkAdjacency("out", n, outOff, outAdj); err != nil {
		return nil, err
	}
	if err := checkAdjacency("in", n, inOff, inAdj); err != nil {
		return nil, err
	}
	return &CSR{labels: labels, label: label, m: len(outAdj), out: fromOffsets(outOff, outAdj), in: fromOffsets(inOff, inAdj)}, nil
}

// CSRFromRows builds a CSR from its successor side alone — the label ids,
// the offset table and the flat rows, validated as CSRFromArrays validates
// them — and derives the predecessor side by one transposition, O(|V|+|E|).
// It is how a decoder that was sent only the rows (a replica's shipped
// quotient) gets the compact CSR Freeze would give. outAdj is retained, not
// copied, and never written.
func CSRFromRows(labels *Labels, label []Label, outOff []int32, outAdj []Node) (*CSR, error) {
	if labels == nil {
		return nil, fmt.Errorf("graph: CSRFromRows: nil label table")
	}
	n := len(label)
	if len(outOff) != n+1 {
		return nil, fmt.Errorf("graph: CSRFromRows: offset table has %d entries, want %d", len(outOff), n+1)
	}
	if err := checkLabels(labels, label); err != nil {
		return nil, err
	}
	if err := checkAdjacency("out", n, outOff, outAdj); err != nil {
		return nil, err
	}
	succ := fromOffsets(outOff, outAdj)
	return &CSR{labels: labels, label: label, m: len(outAdj), out: succ, in: transpose(&succ, len(outAdj))}, nil
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

// checkAdjacency validates one offset table + flat adjacency pair: offsets
// monotone from 0 to len(adj), every row sorted strictly increasing, every
// referenced node id in [0, n).
func checkAdjacency(side string, n int, off []int32, adj []Node) error {
	if off[0] != 0 || int(off[n]) != len(adj) {
		return fmt.Errorf("graph: %s offsets span [%d,%d], want [0,%d]", side, off[0], off[n], len(adj))
	}
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] || int(off[v+1]) > len(adj) {
			return fmt.Errorf("graph: %s offsets decrease or overrun at node %d", side, v)
		}
		prev := Node(-1)
		for _, w := range adj[off[v]:off[v+1]] {
			if w <= prev {
				return fmt.Errorf("graph: %s row of node %d not sorted/unique", side, v)
			}
			if int(w) < 0 || int(w) >= n {
				return fmt.Errorf("graph: %s row of node %d references invalid node %d", side, v, w)
			}
			prev = w
		}
	}
	return nil
}
