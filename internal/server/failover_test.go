package server

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
)

// role wraps a shared backend with a mutable leadership state, so a test
// can depose one endpoint and elect another without the full replication
// stack (which cannot be imported here). Both roles front the SAME store:
// epochs stay consistent across the failover, exactly as they do when a
// caught-up follower is promoted.
type role struct {
	Backend
	mu       sync.Mutex
	term     uint64
	writable bool
}

func (r *role) set(writable bool, term uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writable, r.term = writable, term
}

func (r *role) Apply(batch []graph.Update) (uint64, error) {
	r.mu.Lock()
	w := r.writable
	r.mu.Unlock()
	if !w {
		return 0, store.ErrFenced
	}
	return r.Backend.Apply(batch)
}

func (r *role) Term() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.term
}

// ObserveTerm fences the role — not the shared store — when it sees a
// newer term, mirroring what a real leader-acting backend does.
func (r *role) ObserveTerm(t uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t > r.term {
		r.term, r.writable = t, false
	}
	return nil
}

func (r *role) Writable() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.writable
}

func (r *role) Fenced() bool { return !r.Writable() }

func (r *role) Info() Info {
	i := r.Backend.Info()
	r.mu.Lock()
	defer r.mu.Unlock()
	i.Term, i.Writable = r.term, r.writable
	return i
}

// TestFailoverClientSwitchesLeader walks a FailoverClient through a full
// leader change: it must start on the writable endpoint, survive the
// deposition mid-stream by rediscovering the new leader, and never let its
// read-your-writes epoch regress across the switch.
func TestFailoverClientSwitchesLeader(t *testing.T) {
	g := testGraph(31)
	s, err := store.Open(g, &store.Options{Indexes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	shared := NewStoreBackend(s)
	a := &role{Backend: shared, term: 1, writable: true}
	b := &role{Backend: shared, term: 1, writable: false}
	srvA, err := Start("127.0.0.1:0", Options{Backend: a})
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB, err := Start("127.0.0.1:0", Options{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	cli, err := DialFailover(FailoverOptions{
		Endpoints:      []string{srvB.Addr(), srvA.Addr()}, // leader listed second: discovery, not order
		RequestTimeout: 5 * time.Second,
		MaxBackoff:     20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.Endpoint() != srvA.Addr() {
		t.Fatalf("client picked %s, want the writable endpoint %s", cli.Endpoint(), srvA.Addr())
	}

	mirror := g.Clone()
	rng := rand.New(rand.NewSource(32))
	apply := func(k int) uint64 {
		t.Helper()
		var epoch uint64
		for i := 0; i < k; i++ {
			batch := gen.RandomBatch(rng, mirror, 10, 0.6)
			mirror.Apply(batch)
			e, err := cli.Apply(batch)
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			if e < epoch {
				t.Fatalf("epoch regressed %d -> %d", epoch, e)
			}
			epoch = e
		}
		return epoch
	}
	before := apply(5)

	// Leadership changes under the client's feet: A is deposed at term 2,
	// B is elected. The next write must land on B with no caller-visible
	// failure and the epoch stream intact.
	a.set(false, 2)
	b.set(true, 2)
	after := apply(5)
	if after <= before {
		t.Fatalf("post-failover epoch %d did not advance past %d", after, before)
	}
	if cli.Endpoint() != srvB.Addr() {
		t.Fatalf("client on %s after failover, want %s", cli.Endpoint(), srvB.Addr())
	}
	if cli.Failovers() == 0 {
		t.Fatal("failover happened but Failovers() is 0")
	}
	if cli.LastTerm() != 2 {
		t.Fatalf("client term %d, want 2", cli.LastTerm())
	}
	if cli.LastEpoch() < after {
		t.Fatalf("LastEpoch %d below last ack %d", cli.LastEpoch(), after)
	}

	// Reads after the switch hold the session's RYW pin.
	ok, epoch, err := cli.Reachable(0, 1, after, false)
	if err != nil {
		t.Fatalf("read after failover: %v", err)
	}
	if epoch < after {
		t.Fatalf("read answered at epoch %d, below pin %d", epoch, after)
	}
	if want := s.Reachable(0, 1); ok != want {
		t.Fatalf("read after failover = %v, store says %v", ok, want)
	}
	info, err := cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !info.Writable || info.Term != 2 {
		t.Fatalf("stats after failover = %+v, want writable at term 2", info)
	}
}

// countingProxy forwards every connection it accepts to a target address
// and counts the accepts.
type countingProxy struct {
	addr    string
	accepts atomic.Int64
}

func startCountingProxy(t *testing.T, target string) *countingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &countingProxy{addr: ln.Addr().String()}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.accepts.Add(1)
			go func() {
				defer c.Close()
				up, err := net.Dial("tcp", target)
				if err != nil {
					return
				}
				go func() {
					io.Copy(up, c)
					up.Close()
				}()
				io.Copy(c, up)
			}()
		}
	}()
	return p
}

// TestRediscoveryDialsEachEndpointOnce counts the connections a
// FailoverClient opens: each discovery, the first and the one a leader
// change forces, connects once to every endpoint.
func TestRediscoveryDialsEachEndpointOnce(t *testing.T) {
	s, err := store.Open(testGraph(34), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	shared := NewStoreBackend(s)
	a := &role{Backend: shared, term: 1, writable: true}
	b := &role{Backend: shared, term: 1}
	var proxies []*countingProxy
	for _, r := range []*role{a, b} {
		srv, err := Start("127.0.0.1:0", Options{Backend: r})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		proxies = append(proxies, startCountingProxy(t, srv.Addr()))
	}
	accepts := func(want int64) {
		t.Helper()
		for i, p := range proxies {
			if got := p.accepts.Load(); got != want {
				t.Fatalf("endpoint %d accepted %d connection(s), want %d", i, got, want)
			}
		}
	}

	cli, err := DialFailover(FailoverOptions{
		Endpoints:  []string{proxies[1].addr, proxies[0].addr},
		MaxBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	accepts(1)

	a.set(false, 2)
	b.set(true, 2)
	if _, err := cli.Apply([]graph.Update{graph.Insertion(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if cli.Failovers() != 1 || cli.Endpoint() != proxies[1].addr {
		t.Fatalf("after the leader change: %d failover(s) to %s, want 1 to %s", cli.Failovers(), cli.Endpoint(), proxies[1].addr)
	}
	accepts(2)
}

// TestFailoverClientExhaustsAttempts: when no endpoint will ever take the
// write, the client must give up with the real error, not spin forever.
func TestFailoverClientExhaustsAttempts(t *testing.T) {
	s, err := store.Open(testGraph(33), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := &role{Backend: NewStoreBackend(s), term: 3, writable: false}
	srv, err := Start("127.0.0.1:0", Options{Backend: a})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := DialFailover(FailoverOptions{
		Endpoints:  []string{srv.Addr()},
		MaxBackoff: time.Millisecond,
		Attempts:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Apply([]graph.Update{graph.Insertion(0, 1)})
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("apply against an all-fenced set: %v, want ErrFenced after retries", err)
	}
}

// TestRetryable pins which failures are worth a rediscovery: leadership
// errors and dead transports are, a server's final answer is not.
func TestRetryable(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{&WireError{Code: ErrCodeReadOnly, Msg: "read-only"}, true},
		{&WireError{Code: ErrCodeFenced, Msg: "fenced"}, true},
		{&WireError{Code: ErrCodeStaleTerm, Msg: "stale"}, true},
		{&WireError{Code: ErrCodeGeneric, Msg: "node 9999 out of range"}, false},
		{&WireError{Code: ErrCodeDegraded, Msg: "write path degraded"}, false},
		{io.EOF, true},
		{errors.New("dial tcp: connection refused"), true},
	} {
		if got := retryable(tc.err); got != tc.want {
			t.Errorf("retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
