package replica

// Multi-process replication tests. The test binary re-execs itself as
// leader and follower helper processes (selected by QPGC_HELPER), so kills
// here are real SIGKILLs of real processes with their own page caches and
// file descriptors — not goroutine shutdowns dressed up as crashes.

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/store"
)

func TestMain(m *testing.M) {
	switch os.Getenv("QPGC_HELPER") {
	case "leader":
		runLeaderHelper()
		return
	case "follower":
		runFollowerHelper()
		return
	}
	os.Exit(m.Run())
}

// runLeaderHelper opens the durable store at QPGC_DIR (already seeded by
// the parent), serves it with replication enabled, prints the address,
// and blocks until killed.
func runLeaderHelper() {
	dir := os.Getenv("QPGC_DIR")
	s, err := store.Open(nil, &store.Options{Dir: dir, Sync: store.SyncNone, WALSegmentBytes: 512})
	if err != nil {
		fmt.Fprintln(os.Stderr, "leader:", err)
		os.Exit(1)
	}
	srv, err := server.Start("127.0.0.1:0", server.Options{
		Backend: server.NewStoreBackend(s),
		ReplDir: dir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "leader:", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR %s\n", srv.Addr())
	select {}
}

// runFollowerHelper starts a follower at QPGC_DIR replicating from
// QPGC_LEADER (a retry list), fronts it with its own server — replication
// enabled, so siblings can chain from it and it can be promoted — prints
// the address, and blocks until killed.
func runFollowerHelper() {
	dir := os.Getenv("QPGC_DIR")
	f, err := Start(Options{
		Dir:              dir,
		Leader:           os.Getenv("QPGC_LEADER"),
		ReconnectBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "follower:", err)
		os.Exit(1)
	}
	srv, err := server.Start("127.0.0.1:0", server.Options{Backend: f, ReplDir: dir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "follower:", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR %s\n", srv.Addr())
	select {}
}

// proc is one spawned helper: its process and published serving address.
type proc struct {
	cmd  *exec.Cmd
	addr string
}

// spawnHelper re-execs the test binary as the given role and waits for it
// to print its serving address.
func spawnHelper(t *testing.T, role, dir, leader string) *proc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"QPGC_HELPER="+role, "QPGC_DIR="+dir, "QPGC_LEADER="+leader)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
				addrCh <- a
				return
			}
		}
		close(addrCh)
	}()
	select {
	case a, ok := <-addrCh:
		if !ok {
			t.Fatalf("%s helper exited before publishing an address", role)
		}
		return &proc{cmd: cmd, addr: a}
	case <-time.After(15 * time.Second):
		t.Fatalf("%s helper never published an address", role)
	}
	panic("unreachable")
}

// seedLeaderDir creates a durable store on g and closes it; helper
// processes reopen the directory.
func seedLeaderDir(t *testing.T, g *graph.Graph) string {
	t.Helper()
	dir := t.TempDir()
	s, err := store.Open(g.Clone(), &store.Options{Dir: dir, Sync: store.SyncNone, WALSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// dialHelper connects a client to a spawned helper.
func dialHelper(t *testing.T, p *proc) *server.Client {
	t.Helper()
	cli, err := server.Dial(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// diffProcEndpoints compares every endpoint's answers at exactly minEpoch
// against a fresh reference store on mirror. The minEpoch pin is what
// makes "at every epoch" honest: followers must hold the read until they
// have replicated that far, then answer as if they were the single store.
func diffProcEndpoints(t *testing.T, name string, epoch uint64, mirror *graph.Graph, clients map[string]*server.Client) {
	t.Helper()
	ref, err := store.Open(mirror.Clone(), &store.Options{Indexes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	n := mirror.NumNodes()
	rng := rand.New(rand.NewSource(int64(epoch)))
	pairs := make([][2]graph.Node, 120)
	for i := range pairs {
		pairs[i] = [2]graph.Node{graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))}
	}
	refMatch := ref.Match(testPattern())
	for label, cli := range clients {
		for _, p := range pairs {
			got, at, err := cli.Reachable(p[0], p[1], epoch, false)
			if err != nil {
				t.Fatalf("%s/%s@%d: reach: %v", name, label, epoch, err)
			}
			if at < epoch {
				t.Fatalf("%s/%s: answered at epoch %d below pin %d", name, label, at, epoch)
			}
			if want := ref.Reachable(p[0], p[1]); got != want {
				t.Fatalf("%s/%s@%d: QR(%d,%d) = %v, reference %v", name, label, epoch, p[0], p[1], got, want)
			}
		}
		got, _, err := cli.Match(testPattern(), epoch)
		if err != nil {
			t.Fatalf("%s/%s@%d: match: %v", name, label, epoch, err)
		}
		if got.OK != refMatch.OK || len(got.Sets) != len(refMatch.Sets) {
			t.Fatalf("%s/%s@%d: match shape diverged", name, label, epoch)
		}
		for i := range got.Sets {
			if len(got.Sets[i]) != len(refMatch.Sets[i]) {
				t.Fatalf("%s/%s@%d: match set %d diverged", name, label, epoch, i)
			}
		}
	}
}

// TestMultiProcessDifferential is the flagship differential: a leader
// process and two follower processes, driven over the wire by a mixed
// workload, must answer exactly like a single uninterrupted store at
// every epoch, on every matrix topology.
func TestMultiProcessDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	for name, g := range matrixTopologies(41) {
		t.Run(name, func(t *testing.T) {
			dir := seedLeaderDir(t, g)
			leader := spawnHelper(t, "leader", dir, "")
			f1 := spawnHelper(t, "follower", t.TempDir(), leader.addr)
			f2 := spawnHelper(t, "follower", t.TempDir(), leader.addr)
			lcli := dialHelper(t, leader)
			clients := map[string]*server.Client{
				"leader": lcli, "f1": dialHelper(t, f1), "f2": dialHelper(t, f2),
			}

			mirror := g.Clone()
			rng := rand.New(rand.NewSource(17))
			for i := 0; i < 8; i++ {
				batch := gen.RandomBatch(rng, mirror, 12, 0.6)
				mirror.Apply(batch)
				epoch, err := lcli.Apply(batch)
				if err != nil {
					t.Fatalf("apply %d: %v", i, err)
				}
				if epoch != uint64(i+1) {
					t.Fatalf("apply %d assigned epoch %d", i, epoch)
				}
				diffProcEndpoints(t, name, epoch, mirror, clients)
			}
		})
	}
}

// TestSIGKILLFollowerMidCatchup kills a follower process with SIGKILL
// while it is still catching up, restarts it on the same directory, and
// pins the two crash-safety properties: the served epoch never moves
// backward across the kill, and post-recovery answers are exact.
func TestSIGKILLFollowerMidCatchup(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	g := matrixTopologies(42)["social"]
	dir := seedLeaderDir(t, g)
	leader := spawnHelper(t, "leader", dir, "")
	lcli := dialHelper(t, leader)

	// Build a long catch-up runway before the follower exists.
	mirror := g.Clone()
	rng := rand.New(rand.NewSource(18))
	var token uint64
	applyBatches := func(k int) {
		for i := 0; i < k; i++ {
			batch := gen.RandomBatch(rng, mirror, 15, 0.6)
			mirror.Apply(batch)
			epoch, err := lcli.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			token = epoch
		}
	}
	applyBatches(20)

	fdir := t.TempDir()
	f := spawnHelper(t, "follower", fdir, leader.addr)
	fcli := dialHelper(t, f)
	// Observe some served epoch (whatever it has reached), then SIGKILL
	// mid-catchup while more writes land.
	_, served, err := fcli.Reachable(1, 2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	applyBatches(10)
	if err := f.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	f.cmd.Wait()

	f2 := spawnHelper(t, "follower", fdir, leader.addr)
	f2cli := dialHelper(t, f2)
	_, recovered, err := f2cli.Reachable(1, 2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if recovered < served {
		t.Fatalf("restarted follower serves epoch %d, below pre-kill %d: RYW token moved backward", recovered, served)
	}
	// It must finish catch-up and answer exactly at the final epoch.
	diffProcEndpoints(t, "sigkill", token, mirror, map[string]*server.Client{"restarted": f2cli})
}

// TestSIGKILLLeaderPromoteFailover is the headline failover differential,
// with real processes: SIGKILL the leader mid-deployment, promote a
// follower over the wire, let the surviving follower chain to the promoted
// sibling through its retry list, keep writing — then restart the old
// leader on its own directory and confirm the first new-term contact
// fences it. Every acked epoch must answer exactly like an uninterrupted
// store throughout.
func TestSIGKILLLeaderPromoteFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	g := matrixTopologies(43)["web"]
	dir := seedLeaderDir(t, g)
	leader := spawnHelper(t, "leader", dir, "")
	f1 := spawnHelper(t, "follower", t.TempDir(), leader.addr)
	// f2's retry list names the sibling; that list is the failover plan.
	f2 := spawnHelper(t, "follower", t.TempDir(), leader.addr+","+f1.addr)
	lcli := dialHelper(t, leader)
	f1cli := dialHelper(t, f1)
	f2cli := dialHelper(t, f2)

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(19))
	var token uint64
	applyBatches := func(cli *server.Client, k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			batch := gen.RandomBatch(rng, mirror, 12, 0.6)
			mirror.Apply(batch)
			epoch, err := cli.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			token = epoch
		}
	}
	applyBatches(lcli, 10)
	// The pinned diff doubles as a catch-up barrier: both followers have
	// replicated every acked epoch before the leader dies.
	diffProcEndpoints(t, "pre-kill", token, mirror, map[string]*server.Client{
		"f1": f1cli, "f2": f2cli,
	})

	if err := leader.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	leader.cmd.Wait()

	frontier, term, err := f1cli.Promote(10 * time.Second)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if frontier < token {
		t.Fatalf("promotion frontier %d below acked token %d: acked batches lost", frontier, token)
	}
	if term == 0 {
		t.Fatal("promotion did not move the term")
	}

	// Writes continue against the promoted follower; the survivor re-points
	// to it and keeps replicating.
	applyBatches(f1cli, 6)
	diffProcEndpoints(t, "post-promote", token, mirror, map[string]*server.Client{
		"promoted": f1cli, "survivor": f2cli,
	})

	// The old leader comes back from the dead on its own directory. Its
	// store recovers every epoch it acked — and the first contact carrying
	// the new term fences it for good.
	old := spawnHelper(t, "leader", dir, "")
	ocli := dialHelper(t, old)
	ocli.SetTerm(term)
	if _, err := ocli.Apply([]graph.Update{graph.Insertion(0, 1)}); !errors.Is(err, server.ErrFenced) {
		t.Fatalf("restarted stale leader accepted a term-%d write: %v", term, err)
	}
	info, err := ocli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if info.Writable || info.Term != term {
		t.Fatalf("restarted stale leader reports %+v, want fenced at term %d", info, term)
	}
}
