// Package qpgc is a Go implementation of query preserving graph
// compression (Fan, Li, Wang, Wu — SIGMOD 2012): compress a labeled
// directed graph G into a small Gr relative to a query class, such that
// every query of the class is answered on Gr by unmodified evaluation
// algorithms after an O(1) rewriting, with optional linear post-processing.
//
// Two compression schemes are provided, matching the paper:
//
//   - Reachability preserving compression (Section 3): Gr's nodes are the
//     classes of the reachability equivalence relation; a reachability
//     query QR(u,v) on G becomes QR(R(u),R(v)) on Gr. Average reduction on
//     real-life-like graphs: ~95%.
//   - Graph pattern preserving compression (Section 4): Gr is the maximum
//     bisimulation quotient; pattern queries via (bounded) simulation run
//     on Gr unchanged, and the match expands back through class members.
//     Average reduction: ~57%.
//
// Both compressed forms can be maintained incrementally under batch edge
// updates (Section 5) without recompressing from scratch, and served
// concurrently: a Store (Open) applies batches on a single writer while
// readers query immutable per-epoch CSR snapshots of G and both compressed
// graphs without ever blocking.
//
// # Quick start
//
//	g := qpgc.NewGraph()
//	a := g.AddNodeNamed("A")
//	b := g.AddNodeNamed("B")
//	g.AddEdge(a, b)
//
//	rc := qpgc.CompressReachability(g)
//	u, v := rc.Rewrite(a, b)
//	reachable := qpgc.Reachable(rc.Gr, u, v) // same BFS as on g
//
// See the examples/ directory for runnable programs, DESIGN.md for the
// system inventory and EXPERIMENTS.md for the paper-vs-measured record.
package qpgc

import (
	"repro/internal/bisim"
	"repro/internal/faultfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hop2"
	"repro/internal/incbisim"
	"repro/internal/increach"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/reach"
	"repro/internal/store"
)

// Core graph types, re-exported from the graph substrate.
type (
	// Graph is a mutable node-labeled directed graph.
	Graph = graph.Graph
	// Node identifies a graph node (dense ids from 0).
	Node = graph.Node
	// Update is one edge insertion or deletion of a batch ΔG.
	Update = graph.Update
)

// Read-optimized snapshot types.
type (
	// QueryScratch is reusable, epoch-stamped traversal state for the
	// CSR-backed point queries: with a warm scratch, repeated queries over
	// one snapshot allocate nothing.
	QueryScratch = queries.Scratch
)

// Compression results.
type (
	// ReachCompressed is the <R,F> result of reachability preserving
	// compression (no post-processing is needed).
	ReachCompressed = reach.Compressed
	// PatternCompressed is the <R,F,P> result of pattern preserving
	// compression; pattern.Expand is the post-processing P.
	PatternCompressed = bisim.Compressed
)

// Pattern query types.
type (
	// Pattern is a graph pattern query Qp = (Vp, Ep, fv, fe).
	Pattern = pattern.Pattern
	// MatchResult is the maximum match of a pattern in a graph.
	MatchResult = pattern.Result
)

// Incremental maintainers.
type (
	// ReachMaintainer maintains the reachability preserving compression
	// R(G) under edge updates (algorithm incRCM).
	ReachMaintainer = increach.Maintainer
	// PatternMaintainer maintains the pattern preserving compression — the
	// maximum bisimulation quotient of G, a different graph from the
	// reachability quotient R(G) — under edge updates (algorithm incPCM).
	PatternMaintainer = incbisim.Maintainer
)

// Concurrent serving. A Store owns the evolving graph plus both incremental
// maintainers and serves queries from immutable per-epoch CSR snapshots
// while batched updates land on a single writer goroutine; readers never
// block on writers (see internal/store for the consistency model).
type (
	// Store is the concurrent compressed-graph store.
	Store = store.Store
	// StoreOptions configures Open.
	StoreOptions = store.Options
)

// Fault injection. FaultFS is the filesystem seam threaded through the
// durable store's WAL and snapshot IO; NewFaultInject wraps a filesystem
// with a deterministic fault schedule for robustness testing.
type (
	// FaultFS is the pluggable filesystem interface (nil means the real
	// disk).
	FaultFS = faultfs.FS
	// FaultRule is one deterministic fault in an injection schedule.
	FaultRule = faultfs.Rule
	// FaultInject is a filesystem wrapper that fires FaultRules.
	FaultInject = faultfs.Inject
)

// NewFaultInject wraps fs (nil = the real disk) with a fault schedule.
func NewFaultInject(fs FaultFS, rules ...FaultRule) *FaultInject {
	return faultfs.NewInject(fs, rules...)
}

// ParseFaultPlan parses the textual fault-schedule DSL
// ("enospc@120+40,sync@300+3%wal-") used by qpgc serve -faults.
func ParseFaultPlan(spec string) ([]FaultRule, error) { return faultfs.ParsePlan(spec) }

// Open returns a running Store serving queries on both compressed forms
// while accepting batched edge updates. Pass nil opts for the defaults
// (in-memory, 2-hop indexes on); it never fails without a StoreOptions.Dir.
// With a Dir the store is durable — batches are write-ahead logged before
// acknowledgement and the epoch state checkpoints in the background — and
// Open with a nil graph recovers a previous run's state from the
// directory, serving straight from the loaded snapshot. Close it when done.
func Open(g *Graph, opts *StoreOptions) (*Store, error) { return store.Open(g, opts) }

// TwoHopIndex is a 2-hop reachability labeling; build it over G or over a
// compressed Gr (the paper's Fig. 12(d) point: indexes compose with
// compression).
type TwoHopIndex = hop2.Index

// NewGraph returns an empty graph with a fresh label table.
func NewGraph() *Graph { return graph.New(nil) }

// CompressReachability computes the reachability preserving compression
// R(G) (algorithm compressR; O(|V|(|V|+|E|))).
func CompressReachability(g *Graph) *ReachCompressed { return reach.Compress(g) }

// CompressPattern computes the graph pattern preserving compression R(G)
// (algorithm compressB via Paige–Tarjan; O(|E| log |V|)).
func CompressPattern(g *Graph) *PatternCompressed { return bisim.Compress(g) }

// Reachable answers QR(u,v) by BFS — usable identically on G and on a
// compressed Gr (after Rewrite).
func Reachable(g *Graph, u, v Node) bool { return queries.Reachable(g, u, v) }

// NewQueryScratch returns traversal scratch pre-sized for an n-node graph,
// for use with the CSR-backed query functions.
func NewQueryScratch(n int) *QueryScratch { return queries.NewScratch(n) }

// NewPattern returns an empty pattern query.
func NewPattern() *Pattern { return pattern.New() }

// Match computes the unique maximum match of p in g (bounded simulation).
func Match(g *Graph, p *Pattern) *MatchResult { return pattern.Match(g, p) }

// Expand is the post-processing function P: it converts a match computed
// on the compressed graph back to the match on the original graph.
func Expand(r *MatchResult, c *PatternCompressed) *MatchResult { return pattern.Expand(r, c) }

// NewReachMaintainer takes ownership of g and maintains its reachability
// compression incrementally (algorithm incRCM).
func NewReachMaintainer(g *Graph) *ReachMaintainer { return increach.New(g) }

// NewPatternMaintainer takes ownership of g and maintains its pattern
// compression incrementally (algorithm incPCM).
func NewPatternMaintainer(g *Graph) *PatternMaintainer { return incbisim.New(g) }

// BuildTwoHop builds a 2-hop reachability index over g (or a compressed
// graph).
func BuildTwoHop(g *Graph) *TwoHopIndex { return hop2.Build(g) }

// Insertion and Deletion construct batch updates.
func Insertion(u, v Node) Update { return graph.Insertion(u, v) }

// Deletion constructs an edge-deletion update.
func Deletion(u, v Node) Update { return graph.Deletion(u, v) }

// Dataset re-exports the synthetic dataset registry used by the
// experiments (stand-ins for the paper's real-life datasets).
type Dataset = gen.Dataset

// ReachabilityDatasets returns the Table 1 dataset registry.
func ReachabilityDatasets() []Dataset { return gen.ReachabilityDatasets() }
