package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// graphHash digests everything that makes a graph: the label table's names
// in order, every node's label id, and its successor and predecessor rows.
func graphHash(g *graph.Graph) string {
	h := sha256.New()
	put := func(x int) { h.Write(binary.LittleEndian.AppendUint64(nil, uint64(x))) }
	names := g.Labels().Names()
	put(len(names))
	for _, s := range names {
		put(len(s))
		h.Write([]byte(s))
	}
	put(g.NumNodes())
	for v := graph.Node(0); int(v) < g.NumNodes(); v++ {
		put(int(g.Label(v)))
		for _, row := range [][]graph.Node{g.Successors(v), g.Predecessors(v)} {
			put(len(row))
			for _, w := range row {
				put(int(w))
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestDatasetsMatchRecordedGraphs holds every registered dataset, and the
// benchmark's social16 and webcore16, at seeds 1 and 2 to the graphs the
// generators built when they still inserted edge by edge (hashes recorded
// then): building from collected rows must change nothing.
func TestDatasetsMatchRecordedGraphs(t *testing.T) {
	want := []struct {
		name   string
		labels int
		seed   int64
		hash   string
	}{
		{"facebook", 1, 1, "3a47bad37cce87e7"},
		{"facebook", 1, 2, "2b8bed1768cc5de9"},
		{"amazon", 1, 1, "b13e7ae60f967098"},
		{"amazon", 1, 2, "462b0abb074e5755"},
		{"Youtube", 1, 1, "140af93a07ce10b5"},
		{"Youtube", 1, 2, "6056bab2efffdfae"},
		{"wikiVote", 1, 1, "b63b5d1229a68144"},
		{"wikiVote", 1, 2, "e3a31ecb460a9b40"},
		{"wikiTalk", 1, 1, "5d580b66639b6cfb"},
		{"wikiTalk", 1, 2, "4ca5fd96dd8b2a99"},
		{"socEpinions", 1, 1, "537c0ea355cf5953"},
		{"socEpinions", 1, 2, "8a95322983a1f612"},
		{"NotreDame", 1, 1, "d0ce45a618c2be3c"},
		{"NotreDame", 1, 2, "c910c2ff88520d5a"},
		{"P2P", 1, 1, "07118a0f67661f72"},
		{"P2P", 1, 2, "25af6c69a8ef757f"},
		{"Internet", 1, 1, "23ddafe30c10ccb6"},
		{"Internet", 1, 2, "e76c49d75c3475ca"},
		{"citHepTh", 1, 1, "71541788937f3009"},
		{"citHepTh", 1, 2, "958a3a8b3710e5bc"},
		{"California", 95, 1, "bde7402befa799da"},
		{"California", 95, 2, "6dcdbac9fa80ce41"},
		{"Internet", 60, 1, "a774b18d88efda3a"},
		{"Internet", 60, 2, "07769c2749bb3d8b"},
		{"Youtube", 16, 1, "5251f08b21429fd6"},
		{"Youtube", 16, 2, "317376d29807677a"},
		{"Citation", 67, 1, "2ab8596bebb3165e"},
		{"Citation", 67, 2, "87d5f8788b407ab0"},
		{"social16", 16, 1, "d73945675d82ac19"},
		{"social16", 16, 2, "09e28c0cde795222"},
		{"webcore16", 16, 1, "b6470a877a51dd23"},
		{"webcore16", 16, 2, "332774145a0014cc"},
	}
	ds := append(ReachabilityDatasets(), PatternDatasets()...)
	ds = append(ds,
		Dataset{Name: "social16", V: 15500, E: 79600, Labels: 16, Kind: KindSocial},
		Dataset{Name: "webcore16", V: 16300, E: 75000, Labels: 16, Kind: KindWebCore})
	for _, w := range want {
		var d *Dataset
		for i := range ds {
			if ds[i].Name == w.name && ds[i].Labels == w.labels {
				d = &ds[i]
			}
		}
		if d == nil {
			t.Fatalf("no dataset %s with %d labels", w.name, w.labels)
		}
		g := d.Build(w.seed)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s seed %d: %v", w.name, w.seed, err)
		}
		if got := graphHash(g); got != w.hash {
			t.Errorf("%s (%d labels) seed %d hashes to %s, recorded %s", w.name, w.labels, w.seed, got, w.hash)
		}
	}
}

// TestRandomBatchMatchesRecorded holds RandomBatch to the batches it drew
// when it still materialized the edge list on every call (hashes recorded
// then): on the benchmark's two graphs, under the benchmark's update model
// (32 updates, half insertions, each batch applied to the graph the next is
// drawn over), three seeds of 50 batches each must come out the same.
func TestRandomBatchMatchesRecorded(t *testing.T) {
	want := map[string][3]string{
		"social16":  {"dc0130e90fc869d5", "a8b0ff837b372738", "732db3f7d9db3b0b"},
		"webcore16": {"ba13dea1e4a084a2", "f9d444d601d768b7", "119ee1ec312da027"},
	}
	for _, d := range []Dataset{
		{Name: "social16", V: 15500, E: 79600, Labels: 16, Kind: KindSocial},
		{Name: "webcore16", V: 16300, E: 75000, Labels: 16, Kind: KindWebCore},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			g := d.Build(1)
			rng := rand.New(rand.NewSource(seed))
			h := sha256.New()
			for i := 0; i < 50; i++ {
				b := RandomBatch(rng, g, 32, 0.5)
				for _, u := range b {
					ins := uint64(0)
					if u.Insert {
						ins = 1
					}
					h.Write(binary.LittleEndian.AppendUint64(nil, uint64(u.From)<<33|uint64(u.To)<<1|ins))
				}
				g.Apply(b)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != want[d.Name][seed-1] {
				t.Errorf("%s seed %d: 50 batches hash to %s, recorded %s", d.Name, seed, got, want[d.Name][seed-1])
			}
		}
	}
}
