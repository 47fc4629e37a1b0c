package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// cmdWorkload generates a mixed read/write workload file for client.
func cmdWorkload(args []string) {
	fs := flag.NewFlagSet("workload", flag.ExitOnError)
	in := fs.String("in", "", "input graph file")
	out := fs.String("out", "", "output workload file")
	ops := fs.Int("ops", 10000, "total operations")
	write := fs.Float64("write", 0.05, "fraction of operations that are edge updates")
	insert := fs.Float64("insert", 0.5, "fraction of updates that are insertions")
	seed := fs.Int64("seed", 1, "seed")
	fs.Parse(args)
	if *in == "" || *out == "" {
		fatal(fmt.Errorf("workload: -in and -out are required"))
	}
	g := load(*in)
	w := gen.Mixed(rand.New(rand.NewSource(*seed)), g, *ops, *write, *insert)
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := gen.WriteWorkload(f, w); err != nil {
		fatal(err)
	}
	var q, u int
	for _, op := range w {
		if op.Kind == gen.OpQuery {
			q++
		} else {
			u++
		}
	}
	fmt.Printf("wrote %s: %d ops (%d queries, %d updates)\n", *out, len(w), q, u)
}

// serveFlags are serve's options: the durable host (-in, -data, -sync,
// -faults, -scrub) and the network front (-listen, -metrics, -slow).
type serveFlags struct {
	in, data, sync, faults string
	listen, metrics        string
	scrub, slow            time.Duration
}

// check rejects a nonsensical combination before any work: a graph is
// neither loaded nor recovered until every flag is known to be usable.
func (f serveFlags) check() error {
	switch {
	case f.listen == "":
		return errors.New("serve: -listen is required (drive the store with qpgc client)")
	case f.sync != "always" && f.sync != "none":
		return fmt.Errorf("serve: unknown -sync %q (want always or none)", f.sync)
	case f.scrub < 0:
		return fmt.Errorf("serve: -scrub must be >= 0, got %v", f.scrub)
	case f.faults != "" && f.data == "":
		return errors.New("serve: -faults injects into the durable filesystem and requires -data")
	case f.scrub > 0 && f.data == "":
		return errors.New("serve: -scrub verifies durable state and requires -data")
	}
	return nil
}

// cmdServe hosts a store and fronts it over TCP until SIGINT/SIGTERM. With
// -data the store is durable: batches are write-ahead logged before
// acknowledgement, the epoch state checkpoints in the background, the
// endpoint ships snapshots and WAL segments to replicas, and a directory
// left by a previous run is recovered instead of rebuilding from -in. On a
// signal it prints the requests served, the faults fired and, for a durable
// store, its health and last scrub.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var f serveFlags
	fs.StringVar(&f.in, "in", "", "input graph file (not read when -data recovers)")
	fs.StringVar(&f.data, "data", "", "durable directory (snapshot checkpoints + WAL); existing state is recovered")
	fs.StringVar(&f.sync, "sync", "always", "WAL fsync policy with -data: always|none")
	fs.StringVar(&f.faults, "faults", "", "fault-injection plan for the durable filesystem (e.g. \"enospc@120+40,sync@300+3%wal-\")")
	fs.DurationVar(&f.scrub, "scrub", 0, "background integrity-scrub interval with -data (0 = off)")
	fs.StringVar(&f.listen, "listen", "", "serve the store over TCP on this address (required; with -data, replicas may tail it)")
	fs.StringVar(&f.metrics, "metrics", "", "HTTP side-listener address (/metrics, /debug/slowlog, /debug/pprof/)")
	fs.DurationVar(&f.slow, "slow", 0, "slow-query log threshold for network point reads (0 = off)")
	fs.Parse(args)
	if err := f.check(); err != nil {
		fatal(err)
	}

	// One registry instruments every layer of this process. Faults fired by
	// the injection plan are counted by kind.
	reg := obs.NewRegistry()
	o := store.DefaultOptions()
	o.Dir, o.ScrubInterval, o.Obs = f.data, f.scrub, reg
	if f.sync == "none" {
		o.Sync = store.SyncNone
	}
	var inject *faultfs.Inject
	if f.faults != "" {
		rules, err := faultfs.ParsePlan(f.faults)
		if err != nil {
			fatal(err)
		}
		inject = faultfs.NewInject(faultfs.Disk, rules...)
		inject.Observe(func(kind string) {
			reg.Counter(obs.Label("qpgc_faults_fired_total", "kind", kind)).Inc()
		})
		o.FS = inject
		fmt.Printf("fault injection armed: %s\n", f.faults)
	}
	st := openServed(f, o)
	defer st.Close()
	if f.metrics != "" {
		ms, err := obs.ListenAndServe(f.metrics, reg)
		if err != nil {
			fatal(err)
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s/metrics\n", ms.Addr())
	}
	srv, err := server.Start(f.listen, server.Options{
		Backend: server.NewStoreBackend(st), ReplDir: f.data,
		Obs: reg, SlowQuery: f.slow,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	repl := "off"
	if f.data != "" {
		repl = "on"
	}
	fmt.Printf("listening on %s (replication %s)\n", srv.Addr(), repl)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop()
	fmt.Printf("server: %d requests served\n", srv.Requests())
	if inject != nil {
		fmt.Printf("faults: %d of the armed schedule fired\n", inject.Fired())
	}
	if f.data != "" {
		printHealth(st.Health())
	}
}

// openServed opens the store serve fronts. A -data directory with state is
// recovered, so -in is neither required nor parsed then — skipping that
// cost is the point of a warm restart. Otherwise -in is loaded.
func openServed(f serveFlags, o store.Options) *store.Store {
	var g *graph.Graph
	if f.data != "" && store.HasState(o.FS, f.data) {
		info, err := store.Inspect(f.data)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("recovering store from %s (checkpoint epoch %d, WAL %d bytes in %d segment(s))\n",
			f.data, info.Epoch, info.WALBytes, info.WALSegments)
	} else if f.in == "" {
		fatal(errors.New("serve: -in is required (no recoverable state in -data)"))
	} else {
		g = load(f.in)
	}
	s, err := store.Open(g, &o)
	if err != nil {
		fatal(err)
	}
	return s
}

// printHealth reports a durable store's write-path state, its fault
// counters and the last background scrub.
func printHealth(h store.Health) {
	fmt.Printf("health: %s", h.State)
	if h.Reason != "" {
		fmt.Printf(" (%s)", h.Reason)
	}
	fmt.Printf("  write retries %d  degradations %d  recoveries %d\n",
		h.Retries, h.Degradations, h.Recoveries)
	if h.CheckpointError != "" {
		fmt.Printf("health: unresolved checkpoint error: %s\n", h.CheckpointError)
	}
	if ls := h.LastScrub; ls.Checked > 0 || len(ls.Quarantined) > 0 {
		fmt.Printf("scrubber: last pass verified %d file(s), %d bytes", ls.Checked, ls.Bytes)
		if len(ls.Quarantined) > 0 {
			fmt.Printf("; quarantined %v (repaired: %v)", ls.Quarantined, ls.Repaired)
		}
		fmt.Println()
	}
}
