// Command qpgc compresses graphs, answers queries on the compressed form,
// and hosts a compressed store behind a TCP endpoint from the command line.
//
// Usage:
//
//	qpgc compress  -in g.txt -out gr.txt [-scheme reach|pattern]
//	qpgc stats     -in g.txt
//	qpgc reach     -in g.txt -from 3 -to 17
//	qpgc gen       -kind social|web|citation|p2p|er -v 1000 -e 5000 -l 4 -out g.txt [-seed n]
//	qpgc workload  -in g.txt -ops 10000 -write 0.05 -out w.txt [-seed n]
//	qpgc serve     -listen addr [-in g.txt] [-data dir] [-sync always|none] [-faults plan] [-scrub 1s] [-metrics addr] [-slow 5ms]
//	qpgc replica   -leader addr[,addr...] -data dir [-listen addr] [-metrics addr] [-slow 5ms]
//	qpgc promote   -addr addr [-wait 10s]
//	qpgc client    -addr addr[,addr...] [-workload w.txt [-wbatch n]] [-from u -to v] [-stats] [-verify [-addrs a,b,c] [-pairs n]]
//	qpgc top       (-addr addr | -url http://host:port/metrics) [-interval 1s] [-once] [-require fam1,fam2]
//	qpgc checkpoint -data dir
//	qpgc recover    -data dir [-verify] [-pairs n]
//	qpgc scrub      -data dir [-repair]
//
// Graphs use the line-oriented text format of the library ("n id label",
// "e src dst"). "reach" answers the query twice — by BFS over G and by BFS
// over the compressed Gr after rewriting — and reports both, demonstrating
// query preservation.
//
// "serve" is a durable host and a network front, nothing else: it opens a
// concurrent store on the graph and serves it on -listen (the wire protocol
// of internal/server) until SIGINT/SIGTERM, then prints the requests
// served, the faults fired and the store's health. "client" is the one
// driver: it replays a "workload" file over the wire, and with -verify asks
// every query on G as well as on Gr and holds the two answers to each other
// at their stamped epoch, then runs the quiesced differential (below).
//
// With -data the serve store is durable: accepted batches are write-ahead
// logged before acknowledgement and the epoch state checkpoints in the
// background, so a killed run restarts warm — serve with the same -data
// recovers instead of rebuilding, "recover" inspects and verifies a
// directory (including after a crash: torn WAL tails are healed), and
// "checkpoint" folds the WAL tail into a fresh snapshot so the next start
// is a pure load.
//
// The durable store self-heals: transient write faults are retried with
// capped backoff, persistent ones degrade the store to read-only (writes
// fail fast, reads keep serving the last published epoch) until a
// background recovery loop re-arms the write path. A degraded store says so
// on the wire, and client rides through such windows, retrying the same
// batch instead of losing it and counting the stalls. "scrub" re-verifies
// every snapshot and WAL segment checksum offline, or with -repair
// quarantines corrupt files and rewrites a clean checkpoint from the
// recovered state; serve -scrub runs the same pass periodically inside the
// store. serve -faults injects a deterministic fault schedule into the
// store's filesystem (see the rule DSL in internal/faultfs:
// "enospc@120+40,sync@300+3%wal-") to demonstrate exactly that machinery.
//
// With -data the serve endpoint also ships the effect of each batch group —
// its batches and what they did to the compressed views — and images of
// its snapshot, so "replica" can follow it: a replica starts an empty -data
// from one image of the leader's snapshot, then applies one effect per
// group (logging its batches to its own WAL, each at the epoch it
// reproduces, and patching its views), and serves read queries on -listen.
// A replica the leader cannot chain is sent one image again, which
// replaces its state in place.
// Every response carries the epoch it was answered at; reads may pin a
// minimum epoch, which a lagging replica holds — so a session that writes
// to the leader and reads from a replica still reads its own writes.
// client -verify -addrs a,b,c is the quiesced differential: the first
// endpoint's batched Gr answers must equal its own point answers on G at
// its epoch, and every other endpoint must answer the same seeded query
// set identically at that epoch.
//
// The replication tier survives leader loss. Every durable directory
// carries a fsynced leader term; writes and tail polls ship it, and a
// store that observes a newer term fences itself read-only — a deposed
// leader can never silently diverge. "promote" turns a follower into the
// leader: it drains its tail (-wait bounds that; a still-lagging follower
// reports its exact lag instead), bumps and fsyncs its term, and starts
// accepting writes — the printed epoch frontier is the guarantee that no
// batch acked at or below it was lost. replica -leader takes a
// comma-separated retry list, so a surviving follower re-points to a
// promoted sibling (any follower keeps the effects it applies for
// followers of its own, and serving replicas expose them). client -addr
// likewise takes an endpoint set: on a fenced, stale-term or connection
// error it rediscovers the current leader with capped backoff and retries,
// keeping read-your-writes across the switch.
//
// serve and replica instrument every layer (store, scheduler, WAL, health,
// replication, server) through the internal/obs registry: -metrics starts
// an HTTP side-listener serving the Prometheus text exposition on /metrics
// (plus /debug/slowlog and the Go runtime's live profiles
// under /debug/pprof/), the same text answers the MsgMetrics RPC on
// -listen, and -slow records network point reads slower than the
// threshold into a ring-buffer slow-query log. "top" polls either
// surface and renders a live one-screen dashboard with poll-delta rates;
// top -once -require fam1,fam2 asserts named metric families are present
// and non-zero, which is how CI smokes the whole metrics path.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/queries"
	"repro/internal/reach"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "compress":
		cmdCompress(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	case "reach":
		cmdReach(os.Args[2:])
	case "gen":
		cmdGen(os.Args[2:])
	case "workload":
		cmdWorkload(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "replica":
		cmdReplica(os.Args[2:])
	case "promote":
		cmdPromote(os.Args[2:])
	case "client":
		cmdClient(os.Args[2:])
	case "top":
		cmdTop(os.Args[2:])
	case "checkpoint":
		cmdCheckpoint(os.Args[2:])
	case "recover":
		cmdRecover(os.Args[2:])
	case "scrub":
		cmdScrub(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: qpgc <compress|stats|reach|gen|workload|serve|replica|promote|client|top|checkpoint|recover|scrub> [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qpgc:", err)
	os.Exit(1)
}

func load(path string) *graph.Graph {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	g, err := graph.Read(f)
	if err != nil {
		fatal(err)
	}
	return g
}

func save(path string, g *graph.Graph) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := graph.Write(f, g); err != nil {
		fatal(err)
	}
}

func cmdCompress(args []string) {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("in", "", "input graph file")
	out := fs.String("out", "", "output compressed graph file")
	scheme := fs.String("scheme", "reach", "compression scheme: reach or pattern")
	fs.Parse(args)
	if *in == "" || *out == "" {
		fatal(fmt.Errorf("compress: -in and -out are required"))
	}
	g := load(*in)
	var gr *graph.Graph
	switch *scheme {
	case "reach":
		gr = reach.Compress(g).Gr
	case "pattern":
		gr = bisim.Compress(g).Gr
	default:
		fatal(fmt.Errorf("unknown scheme %q", *scheme))
	}
	save(*out, gr)
	fmt.Printf("|G| = %d (%d nodes, %d edges)\n", g.Size(), g.NumNodes(), g.NumEdges())
	fmt.Printf("|Gr| = %d (%d nodes, %d edges)\n", gr.Size(), gr.NumNodes(), gr.NumEdges())
	fmt.Printf("ratio = %.2f%%, reduction = %.2f%%\n",
		100*core.Ratio(g, gr), core.Reduction(g, gr))
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "input graph file")
	fs.Parse(args)
	if *in == "" {
		fatal(fmt.Errorf("stats: -in is required"))
	}
	g := load(*in)
	s := graph.Tarjan(g)
	rc := reach.Compress(g)
	pc := bisim.Compress(g)
	fmt.Printf("nodes: %d  edges: %d  labels: %d  SCCs: %d\n",
		g.NumNodes(), g.NumEdges(), g.Labels().Count(), s.NumComponents())
	fmt.Printf("reachability compression: %d classes, ratio %.2f%%\n",
		rc.NumClasses(), 100*core.Ratio(g, rc.Gr))
	fmt.Printf("pattern compression:      %d classes, ratio %.2f%%\n",
		pc.NumClasses(), 100*core.Ratio(g, pc.Gr))
}

func cmdReach(args []string) {
	fs := flag.NewFlagSet("reach", flag.ExitOnError)
	in := fs.String("in", "", "input graph file")
	from := fs.Int("from", -1, "source node id")
	to := fs.Int("to", -1, "target node id")
	fs.Parse(args)
	if *in == "" || *from < 0 || *to < 0 {
		fatal(fmt.Errorf("reach: -in, -from and -to are required"))
	}
	g := load(*in)
	if *from >= g.NumNodes() || *to >= g.NumNodes() {
		fatal(fmt.Errorf("node id out of range (graph has %d nodes)", g.NumNodes()))
	}
	onG := queries.Reachable(g, graph.Node(*from), graph.Node(*to))
	c := reach.Compress(g)
	u, v := c.Rewrite(graph.Node(*from), graph.Node(*to))
	onGr := queries.Reachable(c.Gr, u, v)
	fmt.Printf("QR(%d,%d) on G:  %v\n", *from, *to, onG)
	fmt.Printf("QR(%d,%d) on Gr: %v  (rewritten to QR(%d,%d), |Gr|/|G| = %.2f%%)\n",
		*from, *to, onGr, u, v, 100*core.Ratio(g, c.Gr))
	if onG != onGr {
		fatal(fmt.Errorf("BUG: compression did not preserve the query"))
	}
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "er", "social|web|citation|p2p|er")
	v := fs.Int("v", 1000, "nodes")
	e := fs.Int("e", 5000, "edges")
	l := fs.Int("l", 4, "labels")
	seed := fs.Int64("seed", 1, "seed")
	out := fs.String("out", "", "output file")
	fs.Parse(args)
	if *out == "" {
		fatal(fmt.Errorf("gen: -out is required"))
	}
	rng := rand.New(rand.NewSource(*seed))
	var g *graph.Graph
	switch *kind {
	case "social":
		g = gen.Social(rng, *v, *e, *l)
	case "web":
		g = gen.Web(rng, *v, *e, *l)
	case "citation":
		g = gen.Citation(rng, *v, *e, *l)
	case "p2p":
		g = gen.P2P(rng, *v, *e, *l)
	case "er":
		g = gen.ErdosRenyi(rng, *v, *e, *l)
	default:
		fatal(fmt.Errorf("unknown kind %q", *kind))
	}
	save(*out, g)
	fmt.Printf("wrote %s: %d nodes, %d edges\n", *out, g.NumNodes(), g.NumEdges())
}
