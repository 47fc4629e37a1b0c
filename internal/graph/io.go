package graph

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// The text format is line-oriented:
//
//	# comment
//	n <id> <label>     — declare node <id> with label name <label>
//	e <src> <dst>      — declare edge
//
// Node ids must be dense 0..N-1 and declared before use in edges. Write
// emits the same format. This is the interchange format of the cmd/ tools.

// Write serializes g in the text format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# qpgc graph |V|=%d |E|=%d\n", g.NumNodes(), g.NumEdges())
	for v := 0; v < g.NumNodes(); v++ {
		if _, err := fmt.Fprintf(bw, "n %d %s\n", v, g.LabelName(Node(v))); err != nil {
			return err
		}
	}
	var err error
	g.Edges(func(u, v Node) bool {
		_, err = fmt.Fprintf(bw, "e %d %d\n", u, v)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// Read parses a graph in the text format. Rows are collected, sorted and
// deduplicated, then built in one pass (BuildFromSortedAdj): edges in any
// order cost no per-edge sorted insertion.
func Read(r io.Reader) (*Graph, error) {
	labels := NewLabels()
	var label []Label
	var out [][]Node
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
		switch fields[0] {
		case "n":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'n <id> <label>'", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad node id: %v", lineNo, err)
			}
			if id != len(label) {
				return nil, fmt.Errorf("graph: line %d: node ids must be dense; got %d, want %d", lineNo, id, len(label))
			}
			label = append(label, labels.Intern(fields[2]))
			out = append(out, nil)
		case "e":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'e <src> <dst>'", lineNo)
			}
			u, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad src: %v", lineNo, err)
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad dst: %v", lineNo, err)
			}
			if u < 0 || u >= len(label) || v < 0 || v >= len(label) {
				return nil, fmt.Errorf("graph: line %d: edge (%d,%d) references undeclared node", lineNo, u, v)
			}
			out[u] = append(out[u], Node(v))
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for u, row := range out {
		slices.Sort(row)
		out[u] = slices.Compact(row)
	}
	return BuildFromSortedAdj(labels, label, out), nil
}
