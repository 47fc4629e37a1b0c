package store

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bisim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/queries"
)

// history draws the batch groups of one seeded write history over mirror,
// which it keeps in step. Group sizes run from one batch to a full
// maxCoalesce; besides the history's own insert share every few groups
// carry batches that change nothing, batches aimed at the hub's rows, and
// batches that undo the previous group (blocks split, merge back, empty —
// their ids recycle).
type history struct {
	rng    *rand.Rand
	mirror *graph.Graph
	insert float64
	hub    graph.Node
	last   []graph.Update
}

func newHistory(seed int64, mirror *graph.Graph, insert float64) *history {
	h := &history{rng: rand.New(rand.NewSource(seed)), mirror: mirror, insert: insert}
	for v := 0; v < mirror.NumNodes(); v++ {
		if mirror.OutDegree(graph.Node(v)) > mirror.OutDegree(h.hub) {
			h.hub = graph.Node(v)
		}
	}
	return h
}

func (h *history) group(i int) (group [][]graph.Update, effective bool) {
	sizes := []int{1, 2, 1, 5, 1, 3, maxCoalesce, 1, 9, 1}
	n := h.mirror.NumNodes()
	var out [][]graph.Update
	for k := sizes[i%len(sizes)]; k > 0; k-- {
		var b []graph.Update
		switch {
		case i%7 == 3: // nothing effective: present edges inserted, absent ones deleted
			for j, e := range h.mirror.EdgeList() {
				if j < 8 {
					b = append(b, graph.Insertion(e[0], e[1]))
				}
			}
			for j := 0; j < 8; j++ {
				if u, v := graph.Node(h.rng.Intn(n)), graph.Node(h.rng.Intn(n)); !h.mirror.HasEdge(u, v) {
					b = append(b, graph.Deletion(u, v))
				}
			}
		case i%7 == 5: // the hub's out-row and in-row
			for j := 0; j < 12; j++ {
				w := graph.Node(h.rng.Intn(n))
				b = append(b, graph.Update{From: h.hub, To: w, Insert: h.rng.Intn(2) == 0},
					graph.Update{From: w, To: h.hub, Insert: h.rng.Intn(2) == 0})
			}
		case i%7 == 6 && k == 1: // undo the previous group's last batch
			for _, up := range h.last {
				b = append(b, graph.Update{From: up.From, To: up.To, Insert: !up.Insert})
			}
		default:
			// Two early full groups are of large batches, so that a patch
			// covers large moves too; the others stay small however many
			// batches they coalesce.
			size := 6 + h.rng.Intn(30)
			if len(out)+k > 8 && i != 16 && i != 46 {
				size = 1 + h.rng.Intn(4)
			}
			b = gen.RandomBatch(h.rng, h.mirror, size, h.insert)
		}
		h.last = h.mirror.Reduce(b)
		effective = effective || len(h.last) > 0
		h.mirror.Apply(b)
		out = append(out, b)
	}
	return out, effective
}

// applyGroup runs one coalesced group through the pipeline exactly as the
// engine's writer does — apply each batch, publish once — without leaving
// the coalescing to goroutine timing. The test never calls ApplyBatch, so
// the writer goroutine stays parked and this goroutine is the only writer.
func applyGroup[R any](e *engine[R], group [][]graph.Update) {
	e.p.materialize(nil)
	epoch := e.batches.Load()
	for _, b := range group {
		epoch = e.batches.Add(1)
		e.p.apply(epoch, b)
	}
	e.advance(epoch)
}

// cloneCSR is an independent deep copy.
func cloneCSR(c *graph.CSR) *graph.CSR { return c.Thaw().Freeze() }

func cloneRows(rows [][]graph.Node) [][]graph.Node {
	out := make([][]graph.Node, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
	}
	return out
}

func equalRows(a, b [][]graph.Node) bool {
	return slices.EqualFunc(a, b, func(x, y []graph.Node) bool { return slices.Equal(x, y) })
}

// checkPatternView holds a published pattern view to the batch result on
// mirror: the same partition, member lists and node map that agree, and a
// quotient equal — both sides, labels included — to bisim.Quotient's, which
// reads every member's edges where a view reads one's.
func checkPatternView(t *testing.T, at string, pv PatternView, mirror *graph.Graph) {
	t.Helper()
	blockOf, members := pv.Compressed.ClassMap(), pv.Compressed.Members
	part := bisim.PartitionOf(blockOf)
	if want := bisim.PartitionOf(bisim.Compress(mirror).ClassMap()); !slices.Equal(part.BlockOf, want.BlockOf) {
		t.Fatalf("%s: published partition (%d blocks) is not the maximum bisimulation (%d blocks)", at, part.NumBlocks(), want.NumBlocks())
	}
	if pv.Gr.NumNodes() != len(members) || len(members) != part.NumBlocks() {
		t.Fatalf("%s: quotient has %d nodes, %d member lists, partition %d blocks", at, pv.Gr.NumNodes(), len(members), part.NumBlocks())
	}
	seen := 0
	for b, mem := range members {
		if len(mem) == 0 || !slices.IsSorted(mem) {
			t.Fatalf("%s: block %d has an empty or unsorted member list %v", at, b, mem)
		}
		for _, v := range mem {
			if blockOf[v] != graph.Node(b) {
				t.Fatalf("%s: node %d listed in block %d but mapped to %d", at, v, b, blockOf[v])
			}
		}
		seen += len(mem)
	}
	if seen != len(blockOf) {
		t.Fatalf("%s: member lists hold %d nodes of %d", at, seen, len(blockOf))
	}
	want := bisim.Quotient(mirror, part).Gr
	canon := func(b graph.Node) graph.Node { return part.BlockOf[members[b][0]] }
	mapped := func(row []graph.Node) []graph.Node {
		out := make([]graph.Node, len(row))
		for i, b := range row {
			out[i] = canon(b)
		}
		slices.Sort(out)
		return out
	}
	for b := range members {
		c, pb := canon(graph.Node(b)), graph.Node(b)
		if !slices.IsSorted(pv.Gr.Successors(pb)) || !slices.IsSorted(pv.Gr.Predecessors(pb)) {
			t.Fatalf("%s: block %d has an unsorted quotient row", at, b)
		}
		if got := mapped(pv.Gr.Successors(pb)); !slices.Equal(got, want.Successors(c)) {
			t.Fatalf("%s: block %d successors %v, want %v", at, b, got, want.Successors(c))
		}
		if got := mapped(pv.Gr.Predecessors(pb)); !slices.Equal(got, want.Predecessors(c)) {
			t.Fatalf("%s: block %d predecessors %v, want %v", at, b, got, want.Predecessors(c))
		}
		if pv.Gr.Label(pb) != want.Label(c) {
			t.Fatalf("%s: block %d labeled %d, want %d", at, b, pv.Gr.Label(pb), want.Label(c))
		}
	}
}

// pinned is a snapshot a reader holds with a deep copy of what it pointed
// at when pinned; later epochs share arrays with it and must not write them.
type pinned struct {
	at    string
	check func() bool
}

func pinMono(at string, sn *Snapshot) pinned {
	g, pgr := cloneCSR(sn.G), cloneCSR(sn.Pattern.Gr)
	blockOf := slices.Clone(sn.Pattern.Compressed.ClassMap())
	members := cloneRows(sn.Pattern.Compressed.Members)
	return pinned{at, func() bool {
		return sn.G.Equal(g) && sn.Pattern.Gr.Equal(pgr) &&
			slices.Equal(sn.Pattern.Compressed.ClassMap(), blockOf) && equalRows(sn.Pattern.Compressed.Members, members)
	}}
}

func pinSharded(at string, sn *ShardedSnapshot) pinned {
	var gs []*graph.CSR
	for i := range sn.Shards {
		gs = append(gs, cloneCSR(sn.Shards[i].G))
	}
	cross := cloneRows(sn.crossOut)
	return pinned{at, func() bool {
		for i := range gs {
			if !sn.Shards[i].G.Equal(gs[i]) {
				return false
			}
		}
		return equalRows(sn.crossOut, cross)
	}}
}

// TestPatchedEqualsRebuilt is the delta-publish differential: over seeded
// histories on both store kinds, after every epoch the patched snapshot is
// what a rebuild from the mirror graph gives, a snapshot pinned earlier is
// bit-identical to its copy, and readers run against it throughout (the
// race detector checks that sharing between epochs never turns into a
// write). On the monolithic kind the pattern view is built in full once, at
// open: every effective epoch after it is a patch, and the history keeps one
// lineage.
func TestPatchedEqualsRebuilt(t *testing.T) {
	histories := []struct {
		name   string
		insert float64
	}{{"mixed", 0.5}, {"insert-only", 1}, {"delete-heavy", 0.4}}
	const epochs = 150
	relocated := 0
	forKinds(t, func(t *testing.T, kind string) {
		for hi, hist := range histories {
			t.Run(hist.name, func(t *testing.T) {
				g := gen.Social(rand.New(rand.NewSource(int64(10+hi))), 1200, 1600, 3)
				mirror := g.Clone()
				reg := obs.NewRegistry()
				h := openKind(t, kind, g, Options{Indexes: true, Obs: reg})
				defer h.Close()
				hs := newHistory(int64(100+hi), mirror, hist.insert)

				// Readers on every path, pinned and unpinned, while epochs land.
				stop := make(chan struct{})
				var readers sync.WaitGroup
				for r := 0; r < 2; r++ {
					readers.Add(1)
					go func(seed int64) {
						defer readers.Done()
						rng := rand.New(rand.NewSource(seed))
						n := mirror.NumNodes()
						us, vs := make([]graph.Node, 70), make([]graph.Node, 70)
						for {
							select {
							case <-stop:
								return
							default:
							}
							for i := range us {
								us[i], vs[i] = graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))
							}
							h.Reachable(us[0], vs[0])
							h.BatchReachable(us, vs)
							h.Match(testPattern())
						}
					}(int64(r))
				}
				defer func() { close(stop); readers.Wait() }()

				var pins []pinned
				effectiveEpochs := 0
				for e := 0; e < epochs; e++ {
					group, effective := hs.group(e)
					if effective {
						effectiveEpochs++
					}
					at := fmt.Sprintf("epoch group %d (%d batches)", e, len(group))
					switch s := h.(type) {
					case *Store:
						prev := s.Snapshot()
						applyGroup(&s.engine, group)
						sn := s.Snapshot()
						if !effective && (sn.G != prev.G || sn.Pattern.Gr != prev.Pattern.Gr || sn.Reach.Gr != prev.Reach.Gr) {
							t.Fatalf("%s: a group that changed nothing must carry every view over", at)
						}
						if !sn.G.Equal(mirror.Freeze()) {
							t.Fatalf("%s: published G differs from Freeze of the graph", at)
						}
						checkPatternView(t, at, sn.Pattern, mirror)
						if sn.Lineage != prev.Lineage {
							t.Fatalf("%s: the lineage changed from %x to %x: a view was built in full after the first", at, prev.Lineage, sn.Lineage)
						}
						relocated += relocations(prev.Pattern, sn.Pattern)
						pins = append(pins, pinMono(at, sn))
					case *ShardedStore:
						prev := s.Snapshot()
						applyGroup(&s.engine, group)
						sn := s.Snapshot()
						if !effective && (&sn.crossOut[0] != &prev.crossOut[0] || sn.Shards[0].G != prev.Shards[0].G) {
							t.Fatalf("%s: a group that changed nothing must carry the cross-shard header and the shard snapshots over", at)
						}
						mc := mirror.Freeze()
						for i := range sn.Shards {
							if !sn.Shards[i].G.Equal(s.p.Subgraph(mc, i).Freeze()) {
								t.Fatalf("%s: shard %d's published G differs from Freeze of its subgraph", at, i)
							}
						}
						for u := range sn.crossOut {
							var want []graph.Node
							for _, v := range mirror.Successors(graph.Node(u)) {
								if s.p.ShardOf[u] != s.p.ShardOf[v] {
									want = append(want, v)
								}
							}
							if !slices.Equal(sn.crossOut[u], want) {
								t.Fatalf("%s: cross-shard successors of %d are %v, want %v", at, u, sn.crossOut[u], want)
							}
						}
						if !sameResultSets(sn.Match(testPattern()), pattern.Match(mirror, testPattern())) {
							t.Fatalf("%s: pattern match on the stitched quotient diverged from G", at)
						}
						pins = append(pins, pinSharded(at, sn))
					}
					rng := rand.New(rand.NewSource(int64(e)))
					for i := 0; i < 60; i++ {
						u, v := graph.Node(rng.Intn(mirror.NumNodes())), graph.Node(rng.Intn(mirror.NumNodes()))
						if got, want := h.Reachable(u, v), queries.Reachable(mirror, u, v); got != want {
							t.Fatalf("%s: QR(%d,%d) = %v, want %v", at, u, v, got, want)
						}
					}
					// A pin is checked once a few epochs have been built on it.
					if k := len(pins) - 6; k >= 0 && !pins[k].check() {
						t.Fatalf("%s: the snapshot pinned at %s changed under its reader", at, pins[k].at)
					}
				}
				for _, p := range pins {
					if !p.check() {
						t.Fatalf("the snapshot pinned at %s changed under its reader", p.at)
					}
				}
				patchedEpochs := reg.Histogram("qpgc_store_publish_patched_rows").Snapshot().Count
				if kind != "mono" {
					return
				}
				// An epoch that changed G patched the pattern view; one that
				// did not kept it.
				if patchedEpochs != uint64(effectiveEpochs) {
					t.Fatalf("%d epochs patched the pattern view, want every one of the %d that changed G", patchedEpochs, effectiveEpochs)
				}
				t.Logf("%d epochs, %d patched the pattern view under one lineage", epochs, patchedEpochs)
			})
		}
	})
	if relocated == 0 {
		t.Fatal("no block was ever relocated into a freed id: the histories do not exercise id refill")
	}
}

// relocations counts the blocks next, a patch of prev, moved into a freed
// id: dropped from prev's tail, the same members under a lower id.
func relocations(prev, next PatternView) int {
	k, newOf := 0, next.Compressed.ClassMap()
	for q := next.Gr.NumNodes(); q < prev.Gr.NumNodes(); q++ {
		mem := prev.Compressed.Members[q]
		if slices.Equal(next.Compressed.Members[newOf[mem[0]]], mem) {
			k++
		}
	}
	return k
}

// social16 is the benchmark's write-heavy graph (benchmark/workloads.go);
// the scaling checks below run on it and on its 4× version.
var social16 = gen.Dataset{Name: "social16", V: 15500, E: 79600, Labels: 16, Kind: gen.KindSocial}

// publishCost opens the store on social16 scaled by factor, applies epochs
// 32-update batches and returns, per epoch after a warm-up, what publish
// alone cost: its time, the bytes it allocated, and — when retain is set,
// at the price of two collections an epoch — the bytes the new snapshot
// keeps alive beyond what the previous one already did. Every fourth epoch
// is forced down the full-build path — new maintainers, untimed, then both
// views built from them — and timed into full instead.
func publishCost(tb testing.TB, factor, epochs int, retain bool) (ns, full, alloc, retained []float64) {
	d := social16
	d.V, d.E = d.V*factor, d.E*factor
	g := d.Build(1)
	mirror := g.Clone()
	s := mustOpen(tb, g, &Options{Indexes: true})
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	const warm = 8
	var before, after runtime.MemStats
	for e := 1; e <= warm+epochs; e++ {
		b := gen.RandomBatch(rng, mirror, 32, 0.5)
		mirror.Apply(b)
		s.materialize(nil)
		s.apply(uint64(e), b)
		old := s.Snapshot()
		if e%4 == 0 {
			s.m = s.ob.newPair(s.m.Graph()) // new maintainers: the next publish builds in full
		}
		if retain {
			runtime.GC()
		}
		runtime.ReadMemStats(&before)
		start := time.Now()
		s.advance(uint64(e))
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		allocated := after.TotalAlloc - before.TotalAlloc
		if retain {
			runtime.GC()
			runtime.ReadMemStats(&after)
		}
		runtime.KeepAlive(old)
		switch {
		case e <= warm:
		case e%4 == 0:
			full = append(full, float64(took))
		default:
			ns = append(ns, float64(took))
			alloc = append(alloc, float64(allocated))
			retained = append(retained, float64(after.HeapAlloc)-float64(before.HeapAlloc))
		}
	}
	return ns, full, alloc, retained
}

func median(xs []float64) float64 {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// TestPublishScalesWithChange gates the step after the maintainers on
// social16 at 4× the benchmark's nodes and edges: publishing an epoch of a
// 32-update batch by patching costs at most a quarter of building the same
// snapshot in full (it was the full build before delta publish), and a
// patched epoch allocates at most maxPublishBytesPerNode per node of G, at 1×
// and at 4×. G costs publish nothing that follows |G|: Freeze hands the
// graph's row tables over, and the graph copies them back on its first write
// after. What a patched publish still pays that follows |G| is the copy of
// the pattern quotient's row tables and the flat node → class maps readers
// index; the changed rows themselves go to arenas shared between epochs.
// The logged 4×/1× ratio shows it.
// Wall-clock, so behind QPGC_BENCH_SMOKE like the other regression smokes.
func TestPublishScalesWithChange(t *testing.T) {
	if os.Getenv("QPGC_BENCH_SMOKE") == "" {
		t.Skip("set QPGC_BENCH_SMOKE=1 to run the benchmark regression smoke")
	}
	ns1, full1, _, _ := publishCost(t, 1, 48, false)
	ns4, full4, _, _ := publishCost(t, 4, 48, false)
	t.Logf("publish per epoch at 1×: %.2f ms patched, %.2f ms full build", median(ns1)/1e6, median(full1)/1e6)
	t.Logf("publish per epoch at 4×: %.2f ms patched, %.2f ms full build", median(ns4)/1e6, median(full4)/1e6)
	t.Logf("4× over 1×: patched ×%.2f, full build ×%.2f", median(ns4)/median(ns1), median(full4)/median(full1))
	if 4*median(ns4) > median(full4) {
		t.Errorf("at 4×: a patched publish costs %.2f ms against %.2f ms for the full build, want at most a quarter", median(ns4)/1e6, median(full4)/1e6)
	}
	const maxPublishBytesPerNode = 27
	for _, factor := range []int{1, 4} {
		_, _, alloc, retained := publishCost(t, factor, 16, true)
		perNode := median(alloc) / float64(social16.V*factor)
		t.Logf("at %d×: an epoch allocates %.0f KB (%.1f B per node of G), its snapshot retains %.0f KB", factor, median(alloc)/1024, perNode, median(retained)/1024)
		if perNode > maxPublishBytesPerNode {
			t.Errorf("at %d×: a patched publish allocates %.1f B per node of G, want at most %d", factor, perNode, maxPublishBytesPerNode)
		}
	}
}

// BenchmarkStorePublish reports publish alone per patched epoch — time and
// bytes — at both sizes.
func BenchmarkStorePublish(b *testing.B) {
	for _, factor := range []int{1, 4} {
		b.Run(fmt.Sprintf("social16x%d", factor), func(b *testing.B) {
			ns, _, alloc, _ := publishCost(b, factor, b.N+3, false)
			var sumNs, sumB float64
			for i := range ns {
				sumNs += ns[i]
				sumB += alloc[i]
			}
			b.ReportMetric(sumNs/float64(len(ns)), "ns/epoch")
			b.ReportMetric(sumB/float64(len(ns)), "B/epoch")
		})
	}
}
