package gen

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestMixedWorkloadSelfConsistent replays the write stream and verifies
// every update applies cleanly (deletions hit present edges, insertions
// never duplicate) and the query/write mix is in the requested ballpark.
func TestMixedWorkloadSelfConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := ErdosRenyi(rng, 200, 800, 4)
	ops := Mixed(rng, g, 2000, 0.3, 0.5)
	if len(ops) != 2000 {
		t.Fatalf("got %d ops", len(ops))
	}
	replay := g.Clone()
	var queries, writes int
	for i, op := range ops {
		switch op.Kind {
		case OpQuery:
			queries++
		case OpInsert:
			writes++
			if !replay.AddEdge(op.U, op.V) {
				t.Fatalf("op %d: duplicate insertion (%d,%d)", i, op.U, op.V)
			}
		case OpDelete:
			writes++
			if !replay.RemoveEdge(op.U, op.V) {
				t.Fatalf("op %d: deleting absent edge (%d,%d)", i, op.U, op.V)
			}
		}
	}
	if queries == 0 || writes == 0 {
		t.Fatalf("degenerate mix: %d queries, %d writes", queries, writes)
	}
	frac := float64(writes) / float64(len(ops))
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("write fraction %.2f far from requested 0.3", frac)
	}
	if err := replay.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMixedWorkloadSaturatedGraph pins termination when every possible
// edge exists and the flags force the insert branch: the generator must
// degrade to queries instead of spinning on duplicate insertions.
func TestMixedWorkloadSaturatedGraph(t *testing.T) {
	g := ErdosRenyi(rand.New(rand.NewSource(3)), 2, 0, 1)
	// writeFrac=1, insertFrac=1, 2 nodes: saturates after 4 edges.
	ops := Mixed(rand.New(rand.NewSource(4)), g, 50, 1.0, 1.0)
	if len(ops) != 50 {
		t.Fatalf("got %d ops", len(ops))
	}
	inserts := 0
	for _, op := range ops {
		if op.Kind == OpInsert {
			inserts++
		}
	}
	if inserts != 4 {
		t.Fatalf("expected exactly 4 insertions on a 2-node graph, got %d", inserts)
	}
}

// TestWorkloadRoundTrip pins the text serialization.
func TestWorkloadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := ErdosRenyi(rng, 50, 200, 3)
	ops := Mixed(rng, g, 300, 0.5, 0.6)
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, ops); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("round trip lost ops: %d vs %d", len(got), len(ops))
	}
	for i := range ops {
		if ops[i] != got[i] {
			t.Fatalf("op %d: %+v vs %+v", i, ops[i], got[i])
		}
	}
}

// TestReadWorkloadErrors exercises the parser's error paths.
func TestReadWorkloadErrors(t *testing.T) {
	// "batch 64" was once a coalescing directive; serve -batch is the only
	// place to set that now, so the line is malformed like any other.
	for _, bad := range []string{"x 1 2\n", "q 1\n", "q a 2\n", "+ 1 b\n", "batch 64\n", "batch 64\nq 1 2\n"} {
		if _, err := ReadWorkload(bytes.NewBufferString(bad)); err == nil {
			t.Fatalf("no error for %q", bad)
		}
	}
	ops, err := ReadWorkload(bytes.NewBufferString("# comment\n\nq 1 2\n"))
	if err != nil || len(ops) != 1 || ops[0] != (Op{Kind: OpQuery, U: 1, V: 2}) {
		t.Fatalf("comment handling broken: %v %v", ops, err)
	}
}
