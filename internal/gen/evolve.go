package gen

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// Densify performs one densification-law evolution step (Exp-4, Figs.
// 12(i) and 12(k), after Leskovec et al. [17]): grow the node count to
// β·|V| and then add random edges until |E| = |V|^α. New nodes take random
// labels from the existing table. It returns the updates applied, so the
// caller can feed them to an incremental maintainer, and mutates g.
func Densify(rng *rand.Rand, g *graph.Graph, alpha, beta float64) []graph.Update {
	oldN := g.NumNodes()
	targetN := int(math.Ceil(beta * float64(oldN)))
	nlabels := g.Labels().Count()
	if nlabels == 0 {
		g.Labels().Intern(labelName(0))
		nlabels = 1
	}
	for v := oldN; v < targetN; v++ {
		g.AddNode(graph.Label(rng.Intn(nlabels)))
	}
	targetM := int(math.Pow(float64(g.NumNodes()), alpha))
	var ups []graph.Update
	n := g.NumNodes()
	for attempts := 0; g.NumEdges() < targetM && attempts < 30*targetM+100; attempts++ {
		u := graph.Node(rng.Intn(n))
		v := graph.Node(rng.Intn(n))
		if g.AddEdge(u, v) {
			ups = append(ups, graph.Insertion(u, v))
		}
	}
	return ups
}

// GrowPowerLaw adds round(rate·|E|) edges following the power-law growth
// model of Exp-4 (Figs. 12(j) and 12(l), after Mislove et al. [20]): with
// probability hubBias an endpoint is chosen proportionally to its degree
// (preferential attachment to high-degree nodes), otherwise uniformly. The
// paper fixes rate = 0.05 and hubBias = 0.8. Returns the insertions
// applied (also applied to g).
func GrowPowerLaw(rng *rand.Rand, g *graph.Graph, rate, hubBias float64) []graph.Update {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	target := int(math.Round(rate * float64(g.NumEdges())))
	if target < 1 {
		target = 1
	}
	// Degree-proportional sampling pool.
	pool := make([]graph.Node, 0, 2*g.NumEdges()+n)
	for v := 0; v < n; v++ {
		pool = append(pool, graph.Node(v))
		d := g.OutDegree(graph.Node(v)) + g.InDegree(graph.Node(v))
		for i := 0; i < d; i++ {
			pool = append(pool, graph.Node(v))
		}
	}
	pick := func() graph.Node {
		if rng.Float64() < hubBias {
			return pool[rng.Intn(len(pool))]
		}
		return graph.Node(rng.Intn(n))
	}
	var ups []graph.Update
	for attempts := 0; len(ups) < target && attempts < 50*target+100; attempts++ {
		u, v := pick(), pick()
		if g.AddEdge(u, v) {
			ups = append(ups, graph.Insertion(u, v))
			pool = append(pool, u, v)
		}
	}
	return ups
}

// RandomBatch produces a mixed update batch over g: size updates, a
// fraction insertFrac of which are insertions of fresh random edges, the
// rest deletions of existing edges. The batch is NOT applied to g.
//
// A deletion draws uniformly among the edges not yet drawn, as a
// swap-remove over g's edge list in ascending (u,v) order would, without
// materializing it: the k-th edge is found through a prefix sum over
// out-degrees, and the positions a swap-remove overwrote are kept aside.
func RandomBatch(rng *rand.Rand, g *graph.Graph, size int, insertFrac float64) []graph.Update {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	left := g.NumEdges()
	var first []int // first[u] is the list position of u's first edge; built at the first deletion
	moved := map[int][2]graph.Node{}
	at := func(k int) [2]graph.Node {
		if e, ok := moved[k]; ok {
			return e
		}
		if first == nil {
			first = make([]int, n+1)
			for u := 0; u < n; u++ {
				first[u+1] = first[u] + g.OutDegree(graph.Node(u))
			}
		}
		u := sort.SearchInts(first, k+1) - 1
		return [2]graph.Node{graph.Node(u), g.Successors(graph.Node(u))[k-first[u]]}
	}
	var batch []graph.Update
	for i := 0; i < size; i++ {
		if rng.Float64() < insertFrac || left == 0 {
			batch = append(batch, graph.Insertion(graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))))
		} else {
			k := rng.Intn(left)
			e := at(k)
			left--
			moved[k] = at(left)
			batch = append(batch, graph.Deletion(e[0], e[1]))
		}
	}
	return batch
}
