// Hub reach-set cache: memoized descendant bitsets for the high-out-degree
// nodes of a snapshot's reachability quotient, consumed by the hub-pruned
// topological sweep (queries.BatchReachableTopoHub). The cache lives ON the
// Snapshot and is built lazily once a snapshot has swept enough lanes to
// amortize the build — which is also the whole invalidation story: a write
// publishes a NEW snapshot, whose cache starts empty, so a cached reach-set
// never outlives its epoch. Write-heavy workloads therefore never pay a
// build they cannot amortize, and no explicit invalidation code exists to
// get wrong.
package store

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/queries"
)

const (
	// hubCacheMinNodes is the quotient size below which no cache is built:
	// tiny quotients sweep in microseconds and the rows would cost more
	// than they save. Low on purpose — a deep-DAG quotient of a few
	// hundred classes already makes the sweep the dominant batch cost,
	// and the hubCacheBuildLanes gate ensures the build is amortized.
	hubCacheMinNodes = 64
	// hubCacheBuildLanes is how many lanes a snapshot must have swept
	// before the cache is built — the amortization gate that keeps
	// write-heavy epochs from paying for a cache they barely use.
	hubCacheBuildLanes = 256
	// hubCacheMinDegree is the out-degree floor for a quotient node to be
	// cached: low-fanout nodes are cheap to expand and not worth a row.
	// Deliberately low — deep-DAG quotients (the citHepTh shape this
	// cache exists for) rarely exceed single-digit fanout, and the
	// hubCacheMaxHubs top-by-degree cap does the real selection.
	hubCacheMinDegree = 4
	// hubCacheMaxHubs bounds rows per snapshot; with it the cache costs at
	// most hubCacheMaxHubs*n/8 bytes on an n-class quotient.
	hubCacheMaxHubs = 96
)

// batchCounters accumulates a store's batch read-path events, over every
// epoch: the engine holds the one instance and each snapshot bumps it
// through a pointer. Pure metadata — the counters never affect answers.
type batchCounters struct {
	lanes      atomic.Uint64 // lanes entering BatchReachable waves
	hop2Peeled atomic.Uint64 // lanes answered by the 2-hop hybrid leaf
	hubLanes   atomic.Uint64 // lanes answered O(1) from hub rows
	hubPrunes  atomic.Uint64 // forward-sweep subtree prunes at hub rows
}

// noteLanes counts n lanes entering a snapshot's batch read path: in the
// store's counters always, and in the snapshot's own swept count until the
// hub-cache gate is open — nothing reads it after that, and a steady reader
// is spared the second atomic add per wave.
func noteLanes(total *batchCounters, swept *atomic.Uint64, n int) {
	total.lanes.Add(uint64(n))
	if swept.Load() < hubCacheBuildLanes {
		swept.Add(uint64(n))
	}
}

// hubCache implements queries.HubDesc over a fixed set of quotient nodes.
// Immutable after build.
type hubCache struct {
	rowOf []int32    // quotient node -> index into rows, -1 if uncached
	rows  [][]uint64 // nonempty-path descendant bitsets
}

// Desc returns v's cached descendant bitset, or nil when v is uncached.
func (h *hubCache) Desc(v graph.Node) []uint64 {
	r := h.rowOf[v]
	if r < 0 {
		return nil
	}
	return h.rows[r]
}

// buildHubCache memoizes the descendant bitsets of up to hubCacheMaxHubs
// highest-out-degree nodes of the topologically ordered quotient gr. Rows
// build in DESCENDING topo id order: every cached hub deeper than x is
// finished by the time x builds, so x's DFS absorbs it with a word-OR per
// row word and never re-walks its subtree (sound because descendant sets
// are transitively closed). The result is never nil; an empty-row result
// doubles as the "tried, nothing worth caching" sentinel.
func buildHubCache(gr *graph.CSR) *hubCache {
	n := gr.NumNodes()
	h := &hubCache{rowOf: make([]int32, n)}
	for i := range h.rowOf {
		h.rowOf[i] = -1
	}
	hubs := make([]graph.Node, 0, hubCacheMaxHubs)
	for v := graph.Node(0); v < graph.Node(n); v++ {
		if gr.OutDegree(v) >= hubCacheMinDegree {
			hubs = append(hubs, v)
		}
	}
	if len(hubs) > hubCacheMaxHubs {
		sort.Slice(hubs, func(a, b int) bool { return gr.OutDegree(hubs[a]) > gr.OutDegree(hubs[b]) })
		hubs = hubs[:hubCacheMaxHubs]
	}
	sort.Slice(hubs, func(a, b int) bool { return hubs[a] > hubs[b] })
	words := (n + 63) / 64
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	stack := make([]graph.Node, 0, 64)
	for hi, x := range hubs {
		row := make([]uint64, words)
		stack = append(stack[:0], gr.Successors(x)...)
		for len(stack) > 0 {
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[y] == int32(hi) {
				continue
			}
			seen[y] = int32(hi)
			row[int(y)>>6] |= 1 << uint(y&63)
			if r := h.rowOf[y]; r >= 0 {
				for w, bits := range h.rows[r] {
					row[w] |= bits
				}
				continue
			}
			stack = append(stack, gr.Successors(y)...)
		}
		h.rowOf[x] = int32(len(h.rows))
		h.rows = append(h.rows, row)
	}
	return h
}

// hubSlot is one reach quotient's lazy hub-cache cell on a snapshot. A
// fresh snapshot starts with empty slots, so a cached hub reach-set never
// outlives its epoch.
type hubSlot struct {
	once sync.Once
	hub  atomic.Pointer[hubCache]
}

// get returns the hub cache over gr for the batch sweep, building it at
// most once after the amortization gate opens, swept being the lanes the
// snapshot has swept. Before the gate (or on a quotient too small to
// profit) it returns nil and the sweep runs plain.
func (c *hubSlot) get(gr *graph.CSR, swept uint64) queries.HubDesc {
	if h := c.hub.Load(); h != nil {
		if len(h.rows) == 0 {
			return nil
		}
		return h
	}
	if gr.NumNodes() < hubCacheMinNodes || swept < hubCacheBuildLanes {
		return nil
	}
	c.once.Do(func() { c.hub.Store(buildHubCache(gr)) })
	if h := c.hub.Load(); h != nil && len(h.rows) > 0 {
		return h
	}
	return nil
}
