package main

import (
	"context"
	"errors"
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
	metricsAddr := fs.String("metrics", "", "HTTP side-listener address (/metrics, /debug/vars, /debug/slowlog, /debug/pprof/)")
	slowQuery := fs.Duration("slow", 0, "slow-query log threshold for network point reads (0 = off)")
	fs.Parse(args)
	if *leader == "" || *data == "" {
		fatal(fmt.Errorf("replica: -leader and -data are required"))
	}
	if *maxqps < 0 {
		fatal(fmt.Errorf("replica: -maxqps must be >= 0 (0 = uncapped), got %d", *maxqps))
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
// -addr, which must be the leader), and -verify. With -workload, -verify
// asks every query on G as well as on Gr and holds the two to each other
// at their stamped epoch; then, quiesced, the first of -addrs must answer a
// seeded query set batched on Gr as it answers it point by point on G, and
// every other endpoint must answer it identically at that epoch. A
// comma-separated -addr lists the leader and its followers; the client then
// survives a failover mid-workload by rediscovering the promoted leader.
func cmdClient(args []string) {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	addr := fs.String("addr", "", "server address, or a comma-separated endpoint set for failover")
	addrs := fs.String("addrs", "", "comma-separated endpoints for -verify (first is the reference; default -addr)")
	workload := fs.String("workload", "", "workload file to drive (updates require a writable endpoint)")
	wbatch := fs.Int("wbatch", 64, "updates per Apply batch")
	from := fs.Int("from", -1, "one-shot reachability source")
	to := fs.Int("to", -1, "one-shot reachability target")
	stats := fs.Bool("stats", false, "print the endpoint's stats")
	verify := fs.Bool("verify", false, "check G against Gr on every workload query, then the quiesced differential over -addrs")
	pairs := fs.Int("pairs", 500, "query pairs per endpoint for -verify")
	seed := fs.Int64("seed", 1, "seed for the -verify query set")
	fs.Parse(args)
	if *addr == "" {
		fatal(fmt.Errorf("client: -addr is required"))
	}
	if *wbatch < 1 || *pairs < 1 {
		fatal(fmt.Errorf("client: -wbatch and -pairs must be >= 1, got %d and %d", *wbatch, *pairs))
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
		fmt.Printf("%s: epoch %d, |V|=%d |E|=%d\n", *addr, in.Epoch, in.Nodes, in.Edges)
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
		wf, err := os.Open(*workload)
		if err != nil {
			fatal(err)
		}
		ops, err := gen.ReadWorkload(wf)
		wf.Close()
		if err != nil {
			fatal(err)
		}
		if err := driveWorkload(cli, ops, *wbatch, *verify); err != nil {
			fatal(err)
		}
	}
	if *verify {
		did = true
		list := *addrs
		if list == "" {
			list = *addr
		}
		if err := verifyEndpoints(strings.Split(list, ","), *pairs, *seed); err != nil {
			fatal(err)
		}
	}
	if !did {
		fatal(fmt.Errorf("client: nothing to do (want -stats, -from/-to, -workload or -verify)"))
	}
}

// driveWorkload replays a workload over the wire: updates are applied in
// batches of wbatch (each ack's epoch advances the session's
// read-your-writes token), queries read at that token — so every answer
// reflects all of the session's own prior writes. A batch the endpoint
// rejects because its write path is degraded was not logged, and the store
// re-arms itself, so the driver stalls and retries that same batch; any
// other error ends the drive. With verify each query is asked on G too, and
// the two answers must agree whenever they are stamped with one epoch.
func driveWorkload(cli endpoint, ops []gen.Op, wbatch int, verify bool) error {
	var pending []graph.Update
	var queries, reached, batches, stalls, compared, mismatches int
	flush := func() error {
		for {
			_, err := cli.Apply(pending)
			if err == nil {
				break
			}
			if !errors.Is(err, server.ErrDegraded) {
				return fmt.Errorf("apply: %w", err)
			}
			stalls++
			time.Sleep(10 * time.Millisecond)
		}
		pending = pending[:0]
		batches++
		return nil
	}
	start := time.Now()
	for _, op := range ops {
		switch op.Kind {
		case gen.OpQuery:
			got, epoch, err := cli.Reachable(op.U, op.V, cli.LastEpoch(), false)
			if err != nil {
				return fmt.Errorf("reach: %w", err)
			}
			queries++
			if got {
				reached++
			}
			if !verify {
				break
			}
			onG, epochG, err := cli.Reachable(op.U, op.V, epoch, true)
			if err != nil {
				return fmt.Errorf("reach on G: %w", err)
			}
			if epochG == epoch { // else a write landed between the two reads
				compared++
				if onG != got {
					mismatches++
					fmt.Printf("MISMATCH QR(%d,%d) at epoch %d: Gr %v, G %v\n", op.U, op.V, epoch, got, onG)
				}
			}
		case gen.OpInsert:
			pending = append(pending, graph.Insertion(op.U, op.V))
		case gen.OpDelete:
			pending = append(pending, graph.Deletion(op.U, op.V))
		}
		if len(pending) >= wbatch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if len(pending) > 0 {
		if err := flush(); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("drove %d queries, %d update batches in %v (%.0f q/s), session epoch %d\n",
		queries, batches, elapsed.Round(time.Millisecond),
		float64(queries)/elapsed.Seconds(), cli.LastEpoch())
	fmt.Printf("reachable answers: %d/%d\n", reached, queries)
	fmt.Printf("writer: stalled %d time(s) on a degraded store; every stalled batch was retried, none lost\n", stalls)
	if !verify {
		return nil
	}
	if mismatches > 0 {
		return fmt.Errorf("BUG: %d of %d answers diverged between G and Gr at their stamped epoch", mismatches, compared)
	}
	if compared == 0 && queries > 0 {
		return errors.New("verify: no query was answered on G and Gr at one epoch, so nothing was compared")
	}
	fmt.Printf("verify: G and Gr agree on all %d queries answered at one stamped epoch (%d straddled a write)\n", compared, queries-compared)
	return nil
}

// verifyEndpoints is the quiesced differential. The first endpoint's epoch
// becomes the pin, and its batched answers on Gr (the scheduler's waves)
// must equal its point answers on G at the same epoch — with one endpoint,
// that is the whole check. Every other endpoint must answer the same seeded
// query set identically at (or after) the pin: a replica that lags must
// hold the reads, not serve stale answers.
func verifyEndpoints(addrs []string, pairs int, seed int64) error {
	refAddr := strings.TrimSpace(addrs[0])
	ref, err := server.Dial(refAddr)
	if err != nil {
		return fmt.Errorf("verify %s: %w", refAddr, err)
	}
	defer ref.Close()
	pin, err := ref.Ping()
	if err != nil {
		return fmt.Errorf("verify %s: %w", refAddr, err)
	}
	info, err := ref.Stats()
	if err != nil {
		return fmt.Errorf("verify %s: %w", refAddr, err)
	}
	if info.Nodes == 0 {
		return errors.New("verify: reference endpoint serves an empty graph")
	}
	rng := rand.New(rand.NewSource(seed))
	us := make([]graph.Node, pairs)
	vs := make([]graph.Node, pairs)
	for i := range us {
		us[i] = graph.Node(rng.Intn(info.Nodes))
		vs[i] = graph.Node(rng.Intn(info.Nodes))
	}
	want, at, err := ref.BatchReachable(us, vs, pin)
	if err != nil {
		return fmt.Errorf("verify %s: %w", refAddr, err)
	}
	bad := 0
	for i := range us {
		onG, epoch, err := ref.Reachable(us[i], vs[i], at, true)
		if err != nil {
			return fmt.Errorf("verify %s: %w", refAddr, err)
		}
		if epoch != at {
			return fmt.Errorf("verify %s: epoch moved %d -> %d during a quiesced verify", refAddr, at, epoch)
		}
		if onG != want[i] {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("verify %s: %d/%d batched Gr answers diverge from G at epoch %d", refAddr, bad, pairs, at)
	}
	fmt.Printf("verify %s: %d batched Gr answers match G at epoch %d\n", refAddr, pairs, at)
	mismatches := 0
	for _, a := range addrs[1:] {
		a = strings.TrimSpace(a)
		cli, err := server.Dial(a)
		if err != nil {
			return fmt.Errorf("verify %s: %w", a, err)
		}
		got, epoch, err := cli.BatchReachable(us, vs, pin)
		cli.Close()
		if err != nil {
			return fmt.Errorf("verify %s: %w", a, err)
		}
		if epoch < pin {
			return fmt.Errorf("verify %s: answered at epoch %d, below the pin %d", a, epoch, pin)
		}
		bad := 0
		for i := range got {
			if got[i] != want[i] {
				bad++
			}
		}
		if bad > 0 {
			fmt.Printf("verify %s: %d/%d answers diverge from %s at epoch %d\n", a, bad, pairs, refAddr, pin)
			mismatches += bad
		} else {
			fmt.Printf("verify %s: %d answers match %s at epoch %d\n", a, pairs, refAddr, pin)
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("verify: %d diverging answers across %d endpoint(s)", mismatches, len(addrs)-1)
	}
	fmt.Printf("verify: %d endpoint(s) agree on %d queries at epoch %d\n", len(addrs), pairs, pin)
	return nil
}
