package gen

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadWorkload feeds arbitrary text to the workload parser: malformed
// input must produce an error, never a panic, and accepted workloads must
// survive a Write/Read round trip unchanged.
func FuzzReadWorkload(f *testing.F) {
	f.Add("# qpgc workload ops=3\nq 0 1\n+ 1 2\n- 1 2\n")
	f.Add("q 0 0\n")
	f.Add("")
	f.Add("q 0\n")     // missing field
	f.Add("z 0 1\n")   // unknown op
	f.Add("q -1 2\n")  // negative node
	f.Add("+ 1 2 3\n") // extra field
	f.Add("q 99999999999999999999 0\n")
	f.Add("batch 64\nq 0 1\n") // retired coalescing directive: an unknown op
	f.Fuzz(func(t *testing.T, input string) {
		ops, err := ReadWorkload(strings.NewReader(input))
		if err != nil {
			return
		}
		for i, op := range ops {
			if op.U < 0 || op.V < 0 {
				t.Fatalf("op %d accepted negative node: %+v", i, op)
			}
			if op.Kind != OpQuery && op.Kind != OpInsert && op.Kind != OpDelete {
				t.Fatalf("op %d has invalid kind %d", i, op.Kind)
			}
		}
		var buf bytes.Buffer
		if err := WriteWorkload(&buf, ops); err != nil {
			t.Fatalf("WriteWorkload of accepted ops failed: %v", err)
		}
		ops2, err := ReadWorkload(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if len(ops2) != len(ops) {
			t.Fatalf("round trip changed length: %d vs %d", len(ops2), len(ops))
		}
		for i := range ops {
			if ops[i] != ops2[i] {
				t.Fatalf("round trip changed op %d: %+v vs %+v", i, ops[i], ops2[i])
			}
		}
	})
}
