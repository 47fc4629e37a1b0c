package gen

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// OpKind discriminates the operations of a mixed serve workload.
type OpKind byte

const (
	// OpQuery is a point reachability query QR(u,v).
	OpQuery OpKind = iota
	// OpInsert inserts the edge (u,v).
	OpInsert
	// OpDelete deletes the edge (u,v).
	OpDelete
)

// Op is one operation of a mixed read/write workload driven against a
// concurrent store: either a reachability query or an edge update.
type Op struct {
	Kind OpKind
	U, V graph.Node
}

// Mixed generates a serve workload of ops operations against g: a fraction
// writeFrac are edge updates (of which insertFrac are insertions of fresh
// random edges, the rest deletions of edges existing at that point of the
// stream), the remainder point reachability queries over random pairs. The
// write stream is self-consistent: deletions always target a currently
// present edge, insertions avoid duplicates, so replaying the stream in
// order applies cleanly. g is not modified. Deterministic for a fixed rng.
func Mixed(rng *rand.Rand, g *graph.Graph, ops int, writeFrac, insertFrac float64) []Op {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	// Track the evolving edge set on a clone so deletions stay valid.
	sim := g.Clone()
	edges := sim.EdgeList()
	out := make([]Op, 0, ops)
	// Insert retries are bounded so a saturated graph (every possible edge
	// present, deletions disabled) degrades to a query instead of spinning.
	const maxInsertTries = 32
	for len(out) < ops {
		if rng.Float64() >= writeFrac {
			out = append(out, Op{Kind: OpQuery,
				U: graph.Node(rng.Intn(n)), V: graph.Node(rng.Intn(n))})
			continue
		}
		if rng.Float64() < insertFrac || len(edges) == 0 {
			inserted := false
			for try := 0; try < maxInsertTries; try++ {
				u := graph.Node(rng.Intn(n))
				v := graph.Node(rng.Intn(n))
				if sim.AddEdge(u, v) {
					edges = append(edges, [2]graph.Node{u, v})
					out = append(out, Op{Kind: OpInsert, U: u, V: v})
					inserted = true
					break
				}
			}
			if !inserted { // edge-saturated: fall back to a query
				out = append(out, Op{Kind: OpQuery,
					U: graph.Node(rng.Intn(n)), V: graph.Node(rng.Intn(n))})
			}
		} else {
			k := rng.Intn(len(edges))
			e := edges[k]
			edges[k] = edges[len(edges)-1]
			edges = edges[:len(edges)-1]
			sim.RemoveEdge(e[0], e[1])
			out = append(out, Op{Kind: OpDelete, U: e[0], V: e[1]})
		}
	}
	return out
}

// WriteWorkload serializes a workload in the line-oriented text format:
//
//	# comment
//	q <u> <v>     — reachability query
//	+ <u> <v>     — edge insertion
//	- <u> <v>     — edge deletion
func WriteWorkload(w io.Writer, ops []Op) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# qpgc workload ops=%d\n", len(ops))
	for _, op := range ops {
		var tag byte
		switch op.Kind {
		case OpQuery:
			tag = 'q'
		case OpInsert:
			tag = '+'
		case OpDelete:
			tag = '-'
		default:
			return fmt.Errorf("gen: unknown op kind %d", op.Kind)
		}
		if _, err := fmt.Fprintf(bw, "%c %d %d\n", tag, op.U, op.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadWorkload parses the text format of WriteWorkload.
func ReadWorkload(r io.Reader) ([]Op, error) {
	var out []Op
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("gen: line %d: want '<q|+|-> <u> <v>'", lineNo)
		}
		var kind OpKind
		switch fields[0] {
		case "q":
			kind = OpQuery
		case "+":
			kind = OpInsert
		case "-":
			kind = OpDelete
		default:
			return nil, fmt.Errorf("gen: line %d: unknown op %q", lineNo, fields[0])
		}
		u, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil || u < 0 {
			return nil, fmt.Errorf("gen: line %d: bad source node %q", lineNo, fields[1])
		}
		v, err := strconv.ParseInt(fields[2], 10, 32)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("gen: line %d: bad target node %q", lineNo, fields[2])
		}
		out = append(out, Op{Kind: kind, U: graph.Node(u), V: graph.Node(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
