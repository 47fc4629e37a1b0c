// Package gen generates synthetic graphs and pattern workloads for the
// experimental evaluation (Section 6). It provides:
//
//   - the paper's synthetic graph generator, controlled by (|V|, |E|, |L|);
//   - topology-class generators standing in for the paper's real-life
//     datasets (see DESIGN.md "Substitutions"): social networks
//     (preferential attachment, reciprocity, a large passive audience),
//     Web graphs (host hierarchies with hub links and leaf pages),
//     citation DAGs (temporal preference with boundary papers), sparse
//     P2P overlays with free riders, and tiered Internet/AS topologies;
//   - the evolution models of Exp-4: densification-law growth [17] and
//     power-law growth with preferential attachment to high-degree nodes;
//   - the paper's pattern query generator, controlled by (Vp, Ep, Lp, k).
//
// Real graphs compress under bisimulation because large populations of
// nodes are structurally interchangeable: lurkers in social networks, leaf
// pages in web sites, stub ASes, boundary papers. The generators reproduce
// exactly these populations (sink fractions, hub tiers, skewed label
// frequencies), which is what gives Tables 1 and 2 their shape.
//
// All generators are deterministic for a fixed *rand.Rand stream.
package gen

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/graph"
)

// labelName returns the i-th synthetic label name.
func labelName(i int) string { return fmt.Sprintf("L%d", i) }

// skewedLabel samples label ids with a Zipf-like skew: real label
// distributions (video categories, domains) are heavily unbalanced, which
// matters for bisimulation compressibility.
func skewedLabel(rng *rand.Rand, nlabels int) int {
	if nlabels <= 1 {
		return 0
	}
	// Repeated halving: label 0 is most common.
	i := 0
	for i < nlabels-1 && rng.Float64() < 0.55 {
		i++
	}
	if rng.Float64() < 0.25 { // uniform tail component
		return rng.Intn(nlabels)
	}
	return i
}

// builder collects a generated graph's node labels and sorted,
// duplicate-free successor rows, and builds the graph from them in one
// pass: the generators draw edges in random order, and a graph.Graph
// written edge by edge moves a row again on its first write after every
// pack of its arena.
type builder struct {
	labels *graph.Labels
	label  []graph.Label
	out    [][]graph.Node
}

// newLabeled starts a graph of n nodes labeled with a skewed distribution
// over nlabels labels.
func newLabeled(rng *rand.Rand, n, nlabels int) *builder {
	b := &builder{labels: graph.NewLabels(), label: make([]graph.Label, n), out: make([][]graph.Node, n)}
	for i := 0; i < nlabels; i++ {
		b.labels.Intern(labelName(i))
	}
	for v := range b.label {
		b.label[v] = graph.Label(skewedLabel(rng, nlabels))
	}
	return b
}

func (b *builder) NumNodes() int                        { return len(b.label) }
func (b *builder) Labels() *graph.Labels                { return b.labels }
func (b *builder) SetLabel(v graph.Node, l graph.Label) { b.label[v] = l }

// AddEdge inserts (u,v) into u's sorted row; false if it was there (E is a
// set).
func (b *builder) AddEdge(u, v graph.Node) bool {
	i, ok := slices.BinarySearch(b.out[u], v)
	if !ok {
		b.out[u] = slices.Insert(b.out[u], i, v)
	}
	return !ok
}

// build hands the rows to graph.BuildFromSortedAdj.
func (b *builder) build() *graph.Graph {
	return graph.BuildFromSortedAdj(b.labels, b.label, b.out)
}

// groupedAttachment wires the given member nodes in groups: each group of
// avgGroup±50% nodes receives one shared label and one shared out-edge
// target set of setSize nodes sampled from targets. Nodes of one group are
// trivially bisimilar (equal label, identical successor sets) — this is
// the mechanism behind the strong pattern compression of real graphs:
// fans following the same celebrities, stub ASes buying from the same
// providers, papers citing the same classics, mirrored host layouts.
// Returns the number of edges added.
func groupedAttachment(rng *rand.Rand, g *builder, members, targets []graph.Node, avgGroup, setSize int) int {
	if len(members) == 0 || len(targets) == 0 || setSize < 1 {
		return 0
	}
	nlabels := g.Labels().Count()
	added := 0
	i := 0
	for i < len(members) {
		size := avgGroup/2 + rng.Intn(avgGroup+1)
		if size < 1 {
			size = 1
		}
		if i+size > len(members) {
			size = len(members) - i
		}
		// Shared target set.
		set := make([]graph.Node, 0, setSize)
		seen := make(map[graph.Node]bool, setSize)
		for len(set) < setSize && len(set) < len(targets) {
			t := targets[rng.Intn(len(targets))]
			if !seen[t] {
				seen[t] = true
				set = append(set, t)
			}
		}
		label := graph.Label(skewedLabel(rng, nlabels))
		for k := 0; k < size; k++ {
			v := members[i+k]
			g.SetLabel(v, label)
			for _, t := range set {
				if t != v && g.AddEdge(v, t) {
					added++
				}
			}
		}
		i += size
	}
	return added
}

// ErdosRenyi generates the paper's synthetic graph: n nodes, m uniformly
// random directed edges (duplicates retried), labels drawn from a set of
// nlabels labels.
func ErdosRenyi(rng *rand.Rand, n, m, nlabels int) *graph.Graph {
	g := newLabeled(rng, n, nlabels)
	addRandomEdges(rng, g, m)
	return g.build()
}

func addRandomEdges(rng *rand.Rand, g *builder, m int) {
	addRandomEdgesWithin(rng, g, m, 0, g.NumNodes())
}

// addRandomEdgesWithin adds up to m random edges among nodes [lo, hi),
// leaving other node populations (grouped attachments, sinks) untouched.
func addRandomEdgesWithin(rng *rand.Rand, g *builder, m, lo, hi int) {
	if hi <= lo {
		return
	}
	span := hi - lo
	for added, attempts := 0, 0; added < m && attempts < 20*m+100; attempts++ {
		if g.AddEdge(graph.Node(lo+rng.Intn(span)), graph.Node(lo+rng.Intn(span))) {
			added++
		}
	}
}

// Social generates a social-network-like graph: a highly connected active
// core (preferential attachment with reciprocity — the giant SCC that
// drives the extreme reachability compression of Table 1) plus a large
// audience of fan accounts that follow shared celebrity sets in groups
// (the interchangeable population that drives the pattern compression of
// Table 2).
func Social(rng *rand.Rand, n, m, nlabels int) *graph.Graph {
	g := newLabeled(rng, n, nlabels)
	if n < 10 {
		addRandomEdges(rng, g, m)
		return g.build()
	}
	core := n / 5
	coreEdges := (m * 35) / 100
	pool := make([]graph.Node, 0, core+2*coreEdges)
	for i := 0; i < core; i++ {
		pool = append(pool, graph.Node(i))
	}
	added := 0
	for attempts := 0; added < coreEdges && attempts < 20*coreEdges+100; attempts++ {
		v := graph.Node(rng.Intn(core))
		t := pool[rng.Intn(len(pool))]
		if t == v {
			continue
		}
		if g.AddEdge(v, t) {
			added++
			pool = append(pool, t)
			// Reciprocity creates the giant SCC.
			if rng.Float64() < 0.5 && added < coreEdges && g.AddEdge(t, v) {
				added++
				pool = append(pool, v)
			}
		}
	}
	// Fans follow shared celebrity sets; celebrities are the most-followed
	// core members (approximated by the attachment pool).
	fans := make([]graph.Node, 0, n-core)
	for v := core; v < n; v++ {
		fans = append(fans, graph.Node(v))
	}
	hubs := pool[:core] // core ids, frequency-weighted sampling not needed here
	setSize := (m - added) / maxInt(1, len(fans))
	if setSize < 1 {
		setSize = 1
	}
	added += groupedAttachment(rng, g, fans, hubs, 12, setSize)
	addRandomEdgesWithin(rng, g, m-added, 0, core)
	return g.build()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Web generates a web-graph-like topology: pages grouped into hosts, a
// tree from each host's entry page, sparse back-links, and inter-host
// links emitted by index pages toward host entries (hubs). Deep leaf pages
// are sinks, the population that compresses.
func Web(rng *rand.Rand, n, m, nlabels int) *graph.Graph {
	return webGen(rng, n, m, nlabels, 0)
}

// WebCore generates a bow-tie web graph: the same templated host
// structure as Web, but pages link back to their host entry and inter-host
// links are frequently reciprocated, producing the giant strongly
// connected core of real web crawls (NotreDame). Pages inside the core
// share ancestor/descendant sets, which is what gives web graphs their
// strong reachability compression in Table 1.
func WebCore(rng *rand.Rand, n, m, nlabels int) *graph.Graph {
	return webGen(rng, n, m, nlabels, 0.5)
}

func webGen(rng *rand.Rand, n, m, nlabels int, backlink float64) *graph.Graph {
	g := newLabeled(rng, n, nlabels)
	if n < 30 {
		addRandomEdges(rng, g, m)
		return g.build()
	}
	// Hosts instantiate a small set of site templates (CMS-generated sites
	// share page structure), so same-template pages across hosts are
	// bisimilar. Entry pages carry the host-specific inter-host links.
	const hostSize = 12
	const numTemplates = 8
	type tmpl struct {
		parent [hostSize]int // parent[i] < i; parent of page i within host
		label  [hostSize]graph.Label
	}
	nl := g.Labels().Count()
	templates := make([]tmpl, numTemplates)
	for t := range templates {
		for i := 1; i < hostSize; i++ {
			templates[t].parent[i] = rng.Intn(i)
			templates[t].label[i] = graph.Label(skewedLabel(rng, nl))
		}
		templates[t].label[0] = graph.Label(skewedLabel(rng, nl))
	}
	numHosts := (n + hostSize - 1) / hostSize
	entry := func(h int) graph.Node { return graph.Node(h * hostSize) }
	added := 0
	for h := 0; h < numHosts; h++ {
		t := templates[rng.Intn(numTemplates)]
		base := h * hostSize
		for i := 0; i < hostSize && base+i < n; i++ {
			g.SetLabel(graph.Node(base+i), t.label[i])
			if i > 0 && added < m {
				if g.AddEdge(graph.Node(base+t.parent[i]), graph.Node(base+i)) {
					added++
				}
				if backlink > 0 && rng.Float64() < backlink && added < m {
					if g.AddEdge(graph.Node(base+i), graph.Node(base)) {
						added++
					}
				}
			}
		}
	}
	// Inter-host: entry pages link to other hosts' entries, hub-biased.
	for attempts := 0; added < m && attempts < 20*m+100; attempts++ {
		src := entry(rng.Intn(numHosts))
		h := rng.Intn(numHosts)
		if rng.Float64() < 0.7 {
			h = rng.Intn((numHosts + 3) / 4) // hub bias
		}
		t := entry(h)
		if int(t) >= n || int(src) >= n || t == src {
			continue
		}
		if g.AddEdge(src, t) {
			added++
			// Reciprocated inter-host links close the bow-tie core.
			if backlink > 0 && rng.Float64() < backlink && added < m && g.AddEdge(t, src) {
				added++
			}
		}
	}
	return g.build()
}

// Citation generates a citation-network-like DAG with temporal
// preferential attachment: papers cite earlier papers, preferring recent
// ones; a third of the papers have no in-dataset references (boundary
// papers), matching how real citation snapshots truncate. Acyclic by
// construction, which limits reachability compression exactly as Table 1
// observes.
func Citation(rng *rand.Rand, n, m, nlabels int) *graph.Graph {
	g := newLabeled(rng, n, nlabels)
	if n < 20 {
		return g.build()
	}
	// Classics: the oldest papers, cited by everyone, citing nothing here.
	classicCount := n / 20
	classics := make([]graph.Node, classicCount)
	for i := range classics {
		classics[i] = graph.Node(i)
	}
	added := 0
	// Subfield papers cite shared classic sets (co-citation clusters).
	var clustered []graph.Node
	var organic []graph.Node
	for v := classicCount; v < n; v++ {
		if rng.Float64() < 0.5 {
			clustered = append(clustered, graph.Node(v))
		} else {
			organic = append(organic, graph.Node(v))
		}
	}
	setSize := (m / 2) / maxInt(1, len(clustered))
	if setSize < 1 {
		setSize = 1
	}
	added += groupedAttachment(rng, g, clustered, classics, 10, setSize)
	// Organic papers cite recent work with temporal preference; a third
	// are boundary papers citing nothing inside the snapshot.
	// Organic papers cite recent organic work or classics — not clustered
	// papers, whose groups stay free of incoming noise (their members must
	// keep identical ancestor sets to merge).
	refs := (m-added)/maxInt(1, len(organic)) + 1
	for oi, vn := range organic {
		if rng.Float64() < 0.35 {
			continue // boundary paper
		}
		for k := 0; k < refs && added < m; k++ {
			var t graph.Node
			if rng.Float64() < 0.7 && oi > 0 {
				window := oi
				if window > 50 {
					window = 50
				}
				t = organic[oi-1-rng.Intn(window)]
			} else {
				t = classics[rng.Intn(classicCount)]
			}
			if g.AddEdge(vn, t) {
				added++
			}
		}
	}
	return g.build()
}

// P2P generates a sparse peer-to-peer-style overlay: a serving core with
// random neighbor links plus leecher peers that fetch from shared
// well-known seed sets in groups. Leechers attached alike are
// bisimulation-interchangeable; the serving core stays diverse.
func P2P(rng *rand.Rand, n, m, nlabels int) *graph.Graph {
	g := newLabeled(rng, n, nlabels)
	if n < 10 {
		addRandomEdges(rng, g, m)
		return g.build()
	}
	serving := n / 2
	coreEdges := (m * 2) / 5
	added := 0
	for attempts := 0; added < coreEdges && attempts < 20*coreEdges+100; attempts++ {
		v := rng.Intn(serving)
		t := rng.Intn(serving)
		if t == v {
			continue
		}
		if g.AddEdge(graph.Node(v), graph.Node(t)) {
			added++
		}
	}
	leechers := make([]graph.Node, 0, n-serving)
	for v := serving; v < n; v++ {
		leechers = append(leechers, graph.Node(v))
	}
	seeds := make([]graph.Node, serving)
	for i := range seeds {
		seeds[i] = graph.Node(i)
	}
	setSize := (m - added) / maxInt(1, len(leechers))
	if setSize < 1 {
		setSize = 1
	}
	added += groupedAttachment(rng, g, leechers, seeds, 10, setSize)
	addRandomEdgesWithin(rng, g, m-added, 0, serving)
	return g.build()
}

// Internet generates an AS-like tiered topology: a small meshed core,
// a provider tier multi-homed into the core, and a large population of
// stub ASes pointing at one or two providers. Stubs with equal labels and
// equivalent providers dominate, giving the strong pattern compression
// the paper measures on Internet (PCr ≈ 30%).
func Internet(rng *rand.Rand, n, m, nlabels int) *graph.Graph {
	g := newLabeled(rng, n, nlabels)
	if n < 10 {
		addRandomEdges(rng, g, m)
		return g.build()
	}
	core := n / 50
	if core < 3 {
		core = 3
	}
	mid := n / 8
	added := 0
	// Core mesh (bidirectional peering).
	for i := 0; i < core; i++ {
		for j := 0; j < core; j++ {
			if i != j && added < m && g.AddEdge(graph.Node(i), graph.Node(j)) {
				added++
			}
		}
	}
	// Providers: 1–2 uplinks into the core, both directions (transit).
	for v := core; v < core+mid && added < m; v++ {
		k := 1 + rng.Intn(2)
		for i := 0; i < k; i++ {
			c := graph.Node(rng.Intn(core))
			if g.AddEdge(graph.Node(v), c) {
				added++
			}
			if added < m && g.AddEdge(c, graph.Node(v)) {
				added++
			}
		}
	}
	// Provider peering: random provider-provider links diversify the
	// middle tier (real provider ASes differ in their peering mix), which
	// keeps the index from collapsing to one class per label.
	peering := (m * 15) / 100
	for attempts := 0; peering > 0 && attempts < 20*peering+100; attempts++ {
		u := graph.Node(core + rng.Intn(mid))
		w := graph.Node(core + rng.Intn(mid))
		if u != w && g.AddEdge(u, w) {
			added++
			peering--
		}
	}
	// Stubs: grouped multi-homing — many stubs buy transit from the same
	// popular provider pairs, making them structurally interchangeable.
	stubs := make([]graph.Node, 0, n-core-mid)
	for v := core + mid; v < n; v++ {
		stubs = append(stubs, graph.Node(v))
	}
	providers := make([]graph.Node, mid)
	for i := range providers {
		providers[i] = graph.Node(core + i)
	}
	setSize := (m - added) / maxInt(1, len(stubs))
	if setSize < 1 {
		setSize = 1
	}
	added += groupedAttachment(rng, g, stubs, providers, 6, setSize)
	// Remaining budget: extra provider interconnects.
	for attempts := 0; added < m && attempts < 20*m+100; attempts++ {
		u := graph.Node(rng.Intn(core + mid))
		w := graph.Node(rng.Intn(core + mid))
		if u != w && g.AddEdge(u, w) {
			added++
		}
	}
	return g.build()
}
