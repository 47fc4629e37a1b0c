package server

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/store"
)

// landingBackend lands one write on its store between the server's epoch
// wait and every read — the way a follower publishes a shipped batch under
// a read that has just been let through — and keeps the graph of every
// epoch, the oracle a stamped answer is held to.
type landingBackend struct {
	Backend
	s      *store.Store
	mu     sync.Mutex
	graphs []*graph.Graph // graphs[e] is G at epoch e
}

// land inserts (u, v) — the edge the read asks about, so its answer moves —
// and records the new epoch's graph.
func (b *landingBackend) land(u, v graph.Node) {
	b.mu.Lock()
	defer b.mu.Unlock()
	batch := []graph.Update{graph.Insertion(u, v)}
	epoch, err := b.s.Apply(batch)
	if err != nil {
		panic(err)
	}
	g := b.graphs[len(b.graphs)-1].Clone()
	g.Apply(batch)
	if int(epoch) != len(b.graphs) {
		panic("epochs out of step")
	}
	b.graphs = append(b.graphs, g)
}

func (b *landingBackend) at(epoch uint64) *graph.Graph {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.graphs[epoch]
}

func (b *landingBackend) Reachable(u, v graph.Node, onG bool) (bool, uint64) {
	b.land(u, v)
	return b.Backend.Reachable(u, v, onG)
}

func (b *landingBackend) BatchReachable(us, vs []graph.Node) ([]bool, uint64) {
	b.land(us[0], vs[0])
	return b.Backend.BatchReachable(us, vs)
}

func (b *landingBackend) Match(p *pattern.Pattern) (*pattern.Result, uint64) {
	b.land(0, graph.Node(len(b.graphs)%b.s.NumNodes()))
	return b.Backend.Match(p)
}

// TestAnswersMatchTheirStampedEpoch holds every read answer — MsgReach on
// both paths, MsgBatchReach, MsgMatch — to the oracle at the epoch stamped
// on it, while a write lands between each read's epoch wait and its read
// and moves the very answer asked for. A stamp taken from the wait rather
// than from the snapshot the read pinned names an epoch the answer is not
// from, and fails here.
func TestAnswersMatchTheirStampedEpoch(t *testing.T) {
	g := testGraph(23)
	s, err := store.Open(g.Clone(), &store.Options{Indexes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := &landingBackend{Backend: NewStoreBackend(s), s: s, graphs: []*graph.Graph{g}}
	srv, err := Start("127.0.0.1:0", Options{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	rng := rand.New(rand.NewSource(24))
	n := g.NumNodes()
	moved := 0
	for i := 0; i < 120; i++ {
		u, v := graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))
		onG := i%2 == 1
		before := queries.Reachable(b.at(s.Epoch()), u, v)
		got, epoch, err := cli.Reachable(u, v, 0, onG)
		if err != nil {
			t.Fatal(err)
		}
		if want := queries.Reachable(b.at(epoch), u, v); got != want {
			t.Fatalf("QR(%d,%d) onG=%v = %v stamped epoch %d, where the oracle says %v", u, v, onG, got, epoch, want)
		}
		if got != before {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no landed write moved an answer; the test tested nothing")
	}
	for i := 0; i < 20; i++ {
		us, vs := make([]graph.Node, 70), make([]graph.Node, 70)
		for k := range us {
			us[k], vs[k] = graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))
		}
		got, epoch, err := cli.BatchReachable(us, vs, 0)
		if err != nil {
			t.Fatal(err)
		}
		for k := range us {
			if want := queries.Reachable(b.at(epoch), us[k], vs[k]); got[k] != want {
				t.Fatalf("batch lane %d: QR(%d,%d) = %v stamped epoch %d, where the oracle says %v", k, us[k], vs[k], got[k], epoch, want)
			}
		}
	}
	for i := 0; i < 20; i++ {
		got, epoch, err := cli.Match(testPattern(), 0)
		if err != nil {
			t.Fatal(err)
		}
		want := pattern.Match(b.at(epoch), testPattern())
		if got.OK != want.OK || !slices.EqualFunc(got.Sets, want.Sets, slices.Equal) {
			t.Fatalf("match stamped epoch %d differs from the oracle there", epoch)
		}
	}
}
