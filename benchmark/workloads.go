package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/queries"
)

// The two graphs. webcore16 keeps a reachability quotient of ~1.6k classes,
// so a read's leaf traversal does real work; social16 collapses to ~30
// classes, so reads are cheap and the write path dominates.
var (
	webcore16 = gen.Dataset{Name: "webcore16", V: 16300, E: 75000, Labels: 16, Kind: gen.KindWebCore}
	social16  = gen.Dataset{Name: "social16", V: 15500, E: 79600, Labels: 16, Kind: gen.KindSocial}
)

const (
	nominalSeconds = 20  // ../BENCHMARK.json's run_seconds
	graphSeed      = 1   // the graphs are fixed; -seed draws the operations on them
	batchSize      = 32  // updates per write batch
	insertShare    = 0.5 // of a batch's updates
	numPairs       = 1 << 16
	numPatterns    = 32
	shardCount     = 4
)

var patternSpec = gen.PatternSpec{Nodes: 4, Edges: 5, Lp: 8, K: 2}

// transport is how the client reaches the store.
type transport int

const (
	inproc transport = iota // method calls on the store
	repl                    // writes to a leader's loopback server, reads from a follower's
)

// workload is one configuration of the lifecycle every run goes through:
// set up, write, read (point, batch, match), restart. The workloads differ
// in the graph, the store kind, the transport and where the time goes.
type workload struct {
	name string
	why  string

	graph     gen.Dataset
	sharded   bool
	transport transport

	// writes is the number of batches applied in a run of nominalSeconds
	// (scaled with -seconds): the write phase is count-bound, so device
	// counts repeat exactly.
	writes int
	// point, batch and match are the read phases' shares of -seconds.
	point, batch, match float64
	// batchPairs is the number of pairs in one BatchReachable call.
	batchPairs int
	// replay is how many batches the traced pass feeds each layer alone.
	replay int
}

var workloads = []workload{
	{
		name:  "read-inproc",
		why:   "read-mostly on webcore16 by method call: queries, hop2, pattern and the store's batch path do the work, server and replica none",
		graph: webcore16, transport: inproc,
		writes: 36,
		point:  0.15, batch: 0.15, match: 0.15, batchPairs: 1024, replay: 6,
	},
	{
		name:  "write-mono",
		why:   "write-mostly on social16 with fsync per batch: increach, incbisim and store.publish take the time, wal and disk little",
		graph: social16, transport: inproc,
		writes: 120,
		point:  0.08, batch: 0.08, match: 0.2, batchPairs: 1024, replay: 12,
	},
	{
		name:  "sharded-rw",
		why:   "the sharded store kind on the write-mono inputs: faster writes, far slower point reads, so a gain for one that costs the other shows",
		graph: social16, sharded: true, transport: inproc,
		writes: 120,
		point:  0.1, batch: 0.12, match: 0.2, batchPairs: 1024, replay: 12,
	},
	{
		name:  "wire-repl",
		why:   "the write-mono inputs over loopback: writes to a leader's server, reads from its follower's, so server, wal shipping and replica are on the blocking path",
		graph: social16, transport: repl,
		writes: 56,
		point:  0.1, batch: 0.1, match: 0.2, batchPairs: 64, replay: 12,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// walTail is how many batches the write phase leaves in the WAL beyond the
// last checkpoint, for every restart to replay.
const walTail = 4

// numWrites scales the write count to the run length.
func (w workload) numWrites(seconds float64) int {
	return max(2, int(math.Round(float64(w.writes)*seconds/nominalSeconds)))
}

// inputs is everything a run feeds the system, all drawn from the seed
// before timing starts.
type inputs struct {
	g0      *graph.Graph     // the graph at epoch 0; cloned for every Open
	mirror  *graph.Graph     // g0 with every batch applied: the oracle's graph
	batches [][]graph.Update // the write list
	visible [][2]graph.Node  // per batch, an edge it inserts ...
	visWant []bool           // ... and whether its head reaches its tail once the batch is applied
	pairs   [][2]graph.Node  // the read list, cycled by every read phase
	// pats is the pattern list, like the graph a constant of the workload;
	// the seed picks patStart, where clients begin to cycle it.
	pats     []*pattern.Pattern
	patStart int
}

// makeInputs draws a run's inputs. The same (dataset, seed, writes) gives
// the same inputs.
func makeInputs(d gen.Dataset, seed int64, writes int) *inputs {
	in := &inputs{g0: d.Build(graphSeed), mirror: d.Build(graphSeed)}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < writes; i++ {
		b := gen.RandomBatch(rng, in.mirror, batchSize, insertShare)
		in.mirror.Apply(b)
		in.batches = append(in.batches, b)
		e := [2]graph.Node{b[0].From, b[0].To}
		for _, u := range b {
			if u.Insert {
				e = [2]graph.Node{u.From, u.To}
				break
			}
		}
		in.visible = append(in.visible, e)
		in.visWant = append(in.visWant, queries.Reachable(in.mirror, e[0], e[1]))
	}
	in.pairs = gen.RandomNodePairs(rng, in.mirror, numPairs)
	prng := rand.New(rand.NewSource(graphSeed))
	for i := 0; i < numPatterns; i++ {
		in.pats = append(in.pats, gen.Pattern(prng, in.g0, patternSpec))
	}
	in.patStart = rng.Intn(numPatterns)
	return in
}

// hash digests the operation lists, so a test can pin that a seed keeps
// giving the same inputs.
func (in *inputs) hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(xs ...int64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			h.Write(buf[:])
		}
	}
	for _, b := range in.batches {
		for _, u := range b {
			ins := int64(0)
			if u.Insert {
				ins = 1
			}
			put(int64(u.From), int64(u.To), ins)
		}
	}
	for _, p := range in.pairs {
		put(int64(p[0]), int64(p[1]))
	}
	put(int64(in.patStart))
	for _, p := range in.pats {
		for u := int32(0); u < int32(p.NumNodes()); u++ {
			h.Write([]byte(p.Label(u)))
			for _, e := range p.EdgesFrom(u) {
				put(int64(u), int64(e.To), int64(e.Bound))
			}
		}
	}
	return h.Sum64()
}
