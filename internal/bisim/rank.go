package bisim

import (
	"math"
	"slices"

	"repro/internal/graph"
)

// RankNegInf is the rank -∞ assigned to nodes of "bottom" cyclic strongly
// connected components (case (b) of the paper's rank definition,
// Section 5.2).
const RankNegInf = int32(math.MinInt32)

// Ranks holds the bisimulation ranks of Section 5.2: rb(v) stratifies the
// graph so that bisimilar nodes share a rank (Lemma 9(1)) and a node can
// only be affected by updates of strictly lower rank (Lemma 9(2)).
type Ranks struct {
	// Of maps node -> rank; RankNegInf encodes -∞.
	Of []int32
	// WF marks well-founded nodes: nodes that cannot reach any cycle.
	WF []bool
	// Max is the largest finite rank (0 when the graph is empty).
	Max int32
}

// RankDP evaluates the rank definition of the paper bottom-up over a
// condensation:
//
//	rb(v) = 0        if v has no child;
//	rb(v) = -∞       if vscc has no child in Gscc but v has children;
//	rb(v) = max( {rb(v')+1 : WF children v'} ∪ {rb(v'') : NWF children v''} )
//
// where children range over condensation children (nodes within one SCC
// share a rank by construction). order lists the components children
// before parents, out yields a component's condensation children and
// cyclic whether it contains a cycle; rank and wf are indexed by component
// id and written for every component of order.
func RankDP(order []int32, out func(int32) []int32, cyclic func(int32) bool, rank []int32, wf []bool) {
	for _, c := range order {
		children := out(c)
		if len(children) == 0 {
			wf[c] = !cyclic(c)
			if wf[c] {
				rank[c] = 0 // leaf
			} else {
				rank[c] = RankNegInf // bottom cycle
			}
			continue
		}
		// A component above only -∞ components keeps -∞: that is the max
		// over an all-NWF child set, and a WF component cannot occur there
		// (WF nodes cannot reach cycles), so no special case is needed.
		r, w := RankNegInf, !cyclic(c)
		for _, d := range children {
			cand := rank[d]
			if wf[d] {
				cand++
			} else {
				w = false
			}
			if cand > r {
				r = cand
			}
		}
		rank[c], wf[c] = r, w
	}
}

// ComputeRanks evaluates the rank definition (see RankDP) on g.
func ComputeRanks(g *graph.Graph) *Ranks {
	scc := graph.Tarjan(g)
	n := scc.NumComponents()
	// Component ids ascend from sinks, so id order is children-first.
	order := make([]int32, n)
	for c := range order {
		order[c] = int32(c)
	}
	rankComp := make([]int32, n)
	wfComp := make([]bool, n)
	RankDP(order,
		func(c int32) []int32 { return scc.Out[c] },
		func(c int32) bool { return scc.Cyclic[c] },
		rankComp, wfComp)

	rk := &Ranks{Of: make([]int32, g.NumNodes()), WF: make([]bool, g.NumNodes())}
	for v := 0; v < g.NumNodes(); v++ {
		c := scc.Comp[v]
		rk.Of[v] = rankComp[c]
		rk.WF[v] = wfComp[c]
		if rankComp[c] != RankNegInf && rankComp[c] > rk.Max {
			rk.Max = rankComp[c]
		}
	}
	return rk
}

// StratumIndex maps a rank to its position in bottom-up stratum order: -∞
// first, then the finite ranks ascending.
func StratumIndex(rank int32) int {
	if rank == RankNegInf {
		return 0
	}
	return int(rank) + 1
}

// Strata groups nodes by rank, -∞ first, then ascending finite ranks; the
// stratum of rank r sits at StratumIndex(r) and may be empty. The returned
// slice of slices is ordered for bottom-up processing.
func (r *Ranks) Strata() [][]graph.Node {
	size := make([]int32, StratumIndex(r.Max)+1)
	for _, rv := range r.Of {
		size[StratumIndex(rv)]++
	}
	flat := make([]graph.Node, len(r.Of))
	out := make([][]graph.Node, len(size))
	off := int32(0)
	for i, s := range size {
		out[i] = flat[off : off : off+s]
		off += s
	}
	for v, rv := range r.Of {
		i := StratumIndex(rv)
		out[i] = append(out[i], graph.Node(v))
	}
	return out
}

// RefineStratified computes the maximum bisimulation with the
// rank-stratified strategy of Dovier, Piazza and Policriti [8]: process
// strata bottom-up; within each stratum run signature refinement until
// stable, treating the (already final) blocks of lower strata as fixed.
// Nodes of different ranks are never bisimilar (Lemma 9(1)), so the result
// equals the global maximum bisimulation. The incremental maintainer
// (internal/incbisim) keeps the refinement's rounds instead of ranks; it
// calls this engine only for graphs whose refinement is deeper than it
// stores.
func RefineStratified(g *graph.Graph) *Partition {
	n := g.NumNodes()
	blockOf := make([]int32, n)
	ref := NewStratumRefiner(n)
	next := int32(0)
	for _, stratum := range ComputeRanks(g).Strata() {
		if len(stratum) == 0 {
			continue
		}
		groupOf, groups := ref.Refine(g, stratum, blockOf)
		for i, v := range stratum {
			blockOf[v] = next + groupOf[i]
		}
		next += int32(groups)
	}
	return PartitionOf(blockOf)
}

// StratumRefiner computes the bisimulation classes of one rank stratum at
// a time, given final blocks for all lower strata: the refinement engine
// behind RefineStratified. All state is dense and reused across calls: stratum
// nodes get local indices through one node-indexed slice, the current and
// next group assignments are slices, and a signature — a node's current
// group plus its sorted distinct successor groups — is mapped to a group id
// through an open-addressing table keyed by the signature's hash and
// confirmed word by word against the group's stored representative, so the
// grouping is exact whatever the hash does.
//
// Every round re-signs every node; a worklist of the nodes that saw a
// successor change group was measured and bought nothing (EXPERIMENTS.md,
// "Write path per layer").
type StratumRefiner struct {
	local     []int32 // node -> 1 + index in the stratum being refined, 0 outside it
	cur, next []int32 // stratum index -> group
	sig       []uint64

	slots []int32  // hash table: 1 + group id, 0 empty
	hash  []uint64 // group -> signature hash
	end   []int32  // group -> end of its signature in arena (it starts where the previous ends)
	arena []uint64 // representative signatures, concatenated

	labelSeed []int32 // label -> 1 + seed group of the current stratum
	labels    []graph.Label

	constHash bool // test hook: every signature hashes alike
}

// NewStratumRefiner returns a refiner for graphs of up to n nodes.
func NewStratumRefiner(n int) *StratumRefiner {
	return &StratumRefiner{local: make([]int32, n)}
}

// Refine partitions stratum — the nodes of one rank of g — into
// bisimulation classes, reading blockOf for successors outside the stratum
// (all of strictly lower rank, hence final). It returns each stratum
// index's group, numbered densely from 0 in order of first appearance, and
// the group count. The result aliases the refiner's scratch and is valid
// until the next call.
//
// Signatures include same-stratum successor groups, so the loop iterates
// to a fixpoint to handle intra-stratum cycles (NWF nodes); refinement only
// ever splits, so an unchanged group count means stable.
func (r *StratumRefiner) Refine(g *graph.Graph, stratum []graph.Node, blockOf []int32) ([]int32, int) {
	n := len(stratum)
	if cap(r.cur) < n {
		r.cur, r.next = make([]int32, n), make([]int32, n)
	}
	cur, next := r.cur[:n], r.next[:n]

	// Seed: group by label.
	if need := g.Labels().Count(); len(r.labelSeed) < need {
		r.labelSeed = make([]int32, need)
	}
	groups := 0
	for i, v := range stratum {
		l := g.Label(v)
		if r.labelSeed[l] == 0 {
			groups++
			r.labelSeed[l] = int32(groups)
			r.labels = append(r.labels, l)
		}
		cur[i] = r.labelSeed[l] - 1
	}
	for _, l := range r.labels {
		r.labelSeed[l] = 0
	}
	r.labels = r.labels[:0]
	if n == 1 {
		return cur, 1
	}

	for i, v := range stratum {
		r.local[v] = int32(i) + 1
	}
	size := 4
	for size < 2*n {
		size <<= 1
	}
	if cap(r.slots) < size {
		r.slots = make([]int32, size)
	}
	slots := r.slots[:size]
	mask := uint64(size - 1)
	for {
		clear(slots)
		r.hash, r.end, r.arena = r.hash[:0], r.end[:0], r.arena[:0]
		for i, v := range stratum {
			// Same-stratum successors contribute their current local group,
			// tagged in the low bit against colliding with the global ids of
			// lower strata.
			sig := append(r.sig[:0], uint64(cur[i]))
			for _, w := range g.Successors(v) {
				if j := r.local[w]; j != 0 {
					sig = append(sig, uint64(cur[j-1])<<1|1)
				} else {
					sig = append(sig, uint64(uint32(blockOf[w]))<<1)
				}
			}
			sortKeys(sig[1:])
			k := 1
			for _, s := range sig[1:] {
				if k == 1 || s != sig[k-1] {
					sig[k] = s
					k++
				}
			}
			sig = sig[:k]
			r.sig = sig
			next[i] = r.groupOf(sig, slots, mask)
		}
		stable := len(r.end) == groups
		groups = len(r.end)
		cur, next = next, cur
		if stable {
			break
		}
	}
	for _, v := range stratum {
		r.local[v] = 0
	}
	r.cur, r.next = cur[:cap(cur)], next[:cap(next)]
	return cur, groups
}

// groupOf returns the group of sig, creating it when no group's
// representative equals sig.
func (r *StratumRefiner) groupOf(sig []uint64, slots []int32, mask uint64) int32 {
	var h uint64
	if !r.constHash {
		h = 0x9e3779b97f4a7c15
		for _, s := range sig {
			h = (h ^ s) * 0xff51afd7ed558ccd
			h ^= h >> 32
		}
	}
	for p := h & mask; ; p = (p + 1) & mask {
		id := slots[p] - 1
		if id < 0 {
			id = int32(len(r.end))
			slots[p] = id + 1
			r.hash = append(r.hash, h)
			r.arena = append(r.arena, sig...)
			r.end = append(r.end, int32(len(r.arena)))
			return id
		}
		if r.hash[id] != h {
			continue
		}
		start := int32(0)
		if id > 0 {
			start = r.end[id-1]
		}
		rep := r.arena[start:r.end[id]]
		if len(rep) == len(sig) && equalKeys(rep, sig) {
			return id
		}
	}
}

func equalKeys(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortKeys sorts a successor-key list: insertion sort for the short lists
// nearly every node has, pdqsort beyond.
func sortKeys(s []uint64) {
	if len(s) > 12 {
		slices.Sort(s)
		return
	}
	for i := 1; i < len(s); i++ {
		x := s[i]
		j := i
		for j > 0 && s[j-1] > x {
			s[j] = s[j-1]
			j--
		}
		s[j] = x
	}
}
