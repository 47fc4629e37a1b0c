package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/server"
)

// cmdReplica runs a read replica: bootstrap from the leader's snapshot
// (or recover a previous run's directory), tail the leader's WAL, and —
// with -listen — serve read queries from the replicated state. It runs
// until SIGINT/SIGTERM and prints the replication counters on exit.
func cmdReplica(args []string) {
	fs := flag.NewFlagSet("replica", flag.ExitOnError)
	leader := fs.String("leader", "", "replication source retry list, comma-separated (leader first; siblings after, for failover chaining)")
	data := fs.String("data", "", "replica durable directory (bootstrapped if empty, recovered otherwise)")
	listen := fs.String("listen", "", "serve replicated reads over TCP on this address")
	maxqps := fs.Int("maxqps", 0, "network read admission cap, queries/s (0 = uncapped)")
	metricsAddr := fs.String("metrics", "", "HTTP metrics side-listener address (/metrics, /debug/vars, /debug/slowlog)")
	slowQuery := fs.Duration("slow", 0, "slow-query log threshold for network point reads (0 = off)")
	fs.Parse(args)
	if *leader == "" || *data == "" {
		fatal(fmt.Errorf("replica: -leader and -data are required"))
	}
	var reg *obs.Registry
	if *metricsAddr != "" || *listen != "" {
		reg = obs.NewRegistry()
	}
	f, err := replica.Start(replica.Options{
		Dir: *data, Leader: *leader, Obs: reg,
	})
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	fmt.Printf("replica: following %s from %s (epoch %d)\n", *leader, *data, f.Epoch())
	if *metricsAddr != "" {
		ms, err := obs.ListenAndServe(*metricsAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s/metrics\n", ms.Addr())
	}
	if err := f.WaitCaughtUp(30 * time.Second); err != nil {
		fmt.Printf("replica: still catching up: %v\n", err)
	} else {
		fmt.Printf("replica: caught up at epoch %d\n", f.Epoch())
	}
	if *listen != "" {
		// ReplDir makes the follower itself a replication source (its own
		// WAL is valid shipping state), so siblings can chain off it and a
		// promotion target can be tailed the moment it takes over. The
		// endpoint also accepts MsgPromote, which turns this follower into
		// the leader (see "qpgc promote").
		srv, err := server.Start(*listen, server.Options{
			Backend: f, ReplDir: *data, MaxQPS: *maxqps, Obs: reg, SlowQuery: *slowQuery,
		})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("listening on %s (read-only until promoted)\n", srv.Addr())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop()
	st := f.Status()
	fmt.Printf("replica: epoch %d, leader %d, lag %d, caught up %v, term %d, promoted %v\n",
		st.Epoch, st.LeaderEpoch, st.Lag, st.CaughtUp, st.Term, st.Promoted)
	fmt.Printf("replica: %d quarantine(s), %d reconnect(s), %d resync(s)\n",
		st.Quarantines, st.Reconnects, st.Resyncs)
}

// cmdPromote asks a follower endpoint to become the leader: with -wait it
// first lets the tail drain (a follower that is still behind reports its
// exact lag instead of promoting), then the follower bumps and fsyncs its
// leader term and starts accepting writes. The printed epoch frontier is
// the durability guarantee: every batch the old leader acked at or below
// it survived the failover.
func cmdPromote(args []string) {
	fs := flag.NewFlagSet("promote", flag.ExitOnError)
	addr := fs.String("addr", "", "follower endpoint to promote")
	wait := fs.Duration("wait", 10*time.Second, "max time to let the tail drain before promoting (0 = promote immediately)")
	fs.Parse(args)
	if *addr == "" {
		fatal(fmt.Errorf("promote: -addr is required"))
	}
	cli, err := server.Dial(*addr)
	if err != nil {
		fatal(err)
	}
	defer cli.Close()
	// The RPC blocks server-side while the tail drains; keep the wire
	// deadline comfortably past the drain budget.
	cli.SetTimeout(*wait + 15*time.Second)
	epoch, term, err := cli.Promote(*wait)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("promoted %s: leader at term %d, epoch frontier %d\n", *addr, term, epoch)
	fmt.Printf("every batch acked at or below epoch %d survived the failover\n", epoch)
}

// endpoint is the client surface cmdClient drives; both the plain Client
// and the FailoverClient satisfy it, so a comma-separated -addr upgrades
// every mode to failover-aware transparently.
type endpoint interface {
	Close() error
	Stats() (server.Info, error)
	Reachable(u, v graph.Node, minEpoch uint64, onG bool) (bool, uint64, error)
	Apply(batch []graph.Update) (uint64, error)
	LastEpoch() uint64
}

// dialEndpoint connects to addr; a comma-separated addr becomes a
// FailoverClient over the whole endpoint set (leader rediscovery with
// capped backoff on fenced/stale/connection errors, read-your-writes
// preserved across the switch).
func dialEndpoint(addr string) (endpoint, error) {
	if strings.Contains(addr, ",") {
		return server.DialFailover(server.FailoverOptions{
			Endpoints: strings.Split(addr, ","),
		})
	}
	return server.Dial(addr)
}

// cmdClient drives a serving endpoint over the wire: one-shot reachability
// (-from/-to), stats (-stats), a workload file (-workload; updates go to
// -addr, which must be the leader), or a quiesced differential across
// several endpoints (-verify -addrs): every endpoint must answer a seeded
// query set identically at the leader's final epoch. A comma-separated
// -addr lists the leader and its followers; the client then survives a
// failover mid-workload by rediscovering the promoted leader.
func cmdClient(args []string) {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	addr := fs.String("addr", "", "server address, or a comma-separated endpoint set for failover")
	addrs := fs.String("addrs", "", "comma-separated endpoints for -verify (first is the reference; default -addr)")
	workload := fs.String("workload", "", "workload file to drive (updates require a writable endpoint)")
	wbatch := fs.Int("wbatch", 64, "updates per Apply batch")
	from := fs.Int("from", -1, "one-shot reachability source")
	to := fs.Int("to", -1, "one-shot reachability target")
	stats := fs.Bool("stats", false, "print the endpoint's stats")
	verify := fs.Bool("verify", false, "quiesced differential: all -addrs answer identically at the leader's epoch")
	pairs := fs.Int("pairs", 500, "query pairs per endpoint for -verify")
	seed := fs.Int64("seed", 1, "seed for the -verify query set")
	fs.Parse(args)
	if *addr == "" {
		fatal(fmt.Errorf("client: -addr is required"))
	}
	cli, err := dialEndpoint(*addr)
	if err != nil {
		fatal(err)
	}
	defer cli.Close()

	did := false
	if *stats {
		did = true
		in, err := cli.Stats()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %s store, epoch %d, |V|=%d |E|=%d, %d shard(s)\n",
			*addr, in.Kind, in.Epoch, in.Nodes, in.Edges, in.Shards)
		fmt.Printf("%s: %d batches, %d updates, %d reads served\n",
			*addr, in.Batches, in.Updates, in.Reads)
	}
	if *from >= 0 || *to >= 0 {
		did = true
		if *from < 0 || *to < 0 {
			fatal(fmt.Errorf("client: -from and -to go together"))
		}
		got, epoch, err := cli.Reachable(graph.Node(*from), graph.Node(*to), 0, false)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("QR(%d,%d) = %v (epoch %d)\n", *from, *to, got, epoch)
	}
	if *workload != "" {
		did = true
		driveWorkload(cli, *workload, *wbatch)
	}
	if *verify {
		did = true
		list := *addrs
		if list == "" {
			list = *addr
		}
		verifyEndpoints(strings.Split(list, ","), *pairs, *seed)
	}
	if !did {
		fatal(fmt.Errorf("client: nothing to do (want -stats, -from/-to, -workload or -verify)"))
	}
}

// driveWorkload replays a workload file over the wire: updates are applied
// in batches (each ack's epoch advances the session's read-your-writes
// token), queries read at that token — so every answer reflects all of the
// session's own prior writes.
func driveWorkload(cli endpoint, path string, wbatch int) {
	wf, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	ops, err := gen.ReadWorkload(wf)
	wf.Close()
	if err != nil {
		fatal(err)
	}
	var pending []graph.Update
	flush := func() {
		if len(pending) == 0 {
			return
		}
		if _, err := cli.Apply(pending); err != nil {
			fatal(fmt.Errorf("apply: %w", err))
		}
		pending = pending[:0]
	}
	var queries, reached, batches int
	start := time.Now()
	for _, op := range ops {
		switch op.Kind {
		case gen.OpQuery:
			got, _, err := cli.Reachable(op.U, op.V, cli.LastEpoch(), false)
			if err != nil {
				fatal(fmt.Errorf("reach: %w", err))
			}
			queries++
			if got {
				reached++
			}
		case gen.OpInsert:
			pending = append(pending, graph.Insertion(op.U, op.V))
		case gen.OpDelete:
			pending = append(pending, graph.Deletion(op.U, op.V))
		}
		if len(pending) >= wbatch {
			flush()
			batches++
		}
	}
	if len(pending) > 0 {
		flush()
		batches++
	}
	elapsed := time.Since(start)
	fmt.Printf("drove %d queries, %d update batches in %v (%.0f q/s), session epoch %d\n",
		queries, batches, elapsed.Round(time.Millisecond),
		float64(queries)/elapsed.Seconds(), cli.LastEpoch())
	fmt.Printf("reachable answers: %d/%d\n", reached, queries)
}

// verifyEndpoints is the quiesced cross-endpoint differential: the first
// endpoint's epoch becomes the pin, and every endpoint must answer the
// same seeded query set with identical results at (or after) that epoch —
// a replica that lags must hold the reads, not serve stale answers.
func verifyEndpoints(addrs []string, pairs int, seed int64) {
	ref, err := server.Dial(strings.TrimSpace(addrs[0]))
	if err != nil {
		fatal(err)
	}
	defer ref.Close()
	pin, err := ref.Ping()
	if err != nil {
		fatal(err)
	}
	info, err := ref.Stats()
	if err != nil {
		fatal(err)
	}
	if info.Nodes == 0 {
		fatal(fmt.Errorf("verify: reference endpoint serves an empty graph"))
	}
	rng := rand.New(rand.NewSource(seed))
	us := make([]graph.Node, pairs)
	vs := make([]graph.Node, pairs)
	for i := range us {
		us[i] = graph.Node(rng.Intn(info.Nodes))
		vs[i] = graph.Node(rng.Intn(info.Nodes))
	}
	want, _, err := ref.BatchReachable(us, vs, pin)
	if err != nil {
		fatal(err)
	}
	mismatches := 0
	for _, a := range addrs[1:] {
		a = strings.TrimSpace(a)
		cli, err := server.Dial(a)
		if err != nil {
			fatal(fmt.Errorf("verify %s: %w", a, err))
		}
		got, at, err := cli.BatchReachable(us, vs, pin)
		cli.Close()
		if err != nil {
			fatal(fmt.Errorf("verify %s: %w", a, err))
		}
		if at < pin {
			fatal(fmt.Errorf("verify %s: answered at epoch %d, below the pin %d", a, at, pin))
		}
		bad := 0
		for i := range got {
			if got[i] != want[i] {
				bad++
			}
		}
		if bad > 0 {
			fmt.Printf("verify %s: %d/%d answers diverge from %s at epoch %d\n",
				a, bad, pairs, addrs[0], pin)
			mismatches += bad
		} else {
			fmt.Printf("verify %s: %d answers match %s at epoch %d\n", a, pairs, addrs[0], pin)
		}
	}
	if mismatches > 0 {
		fatal(fmt.Errorf("verify: %d diverging answers across %d endpoint(s)", mismatches, len(addrs)-1))
	}
	fmt.Printf("verify: %d endpoint(s) agree on %d queries at epoch %d\n", len(addrs), pairs, pin)
}
