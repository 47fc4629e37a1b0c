package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
)

// FailoverOptions configures a FailoverClient.
type FailoverOptions struct {
	// Endpoints are the candidate server addresses: the leader and its
	// followers, in any order. Required (at least one).
	Endpoints []string
	// RequestTimeout bounds each request (and each frame of a streaming
	// one) on the underlying connection. 0 means 5s.
	RequestTimeout time.Duration
	// MaxBackoff caps the delay between retry attempts (the backoff starts
	// small and doubles). 0 means 2s.
	MaxBackoff time.Duration
	// Attempts bounds how many times one operation is tried across
	// reconnects and rediscoveries before its last error surfaces. 0
	// means 8.
	Attempts int
}

// FailoverClient is a client over an endpoint set that survives leader
// failover: on a connection error, a fenced endpoint, or a stale-term
// rejection it rediscovers the current leader (the writable endpoint with
// the highest term) with capped backoff and retries. Reads keep
// read-your-writes across the switch — the client pins every read to the
// largest epoch any of its own operations returned, so a lagging
// replacement endpoint holds the read until it has caught up. It also
// carries the largest term it has seen, so contacting a deposed leader
// fences it rather than risking divergence.
//
// Retrying Apply after an ambiguous failure (connection dropped after the
// request was sent) may deliver the batch twice; graph updates are
// idempotent in content (an edge set reaches the same state), so the
// differential suites accept this, but epoch arithmetic must use the
// returned epoch, not a count of calls.
type FailoverClient struct {
	opts FailoverOptions

	mu   sync.Mutex
	cli  *Client // nil between failures and rediscovery
	addr string

	epoch     uint64 // RYW token carried across endpoints
	term      uint64 // highest leader term observed
	failovers uint64
}

// DialFailover connects to the best endpoint of the set. Unlike Dial it
// succeeds as long as any endpoint is reachable.
func DialFailover(opts FailoverOptions) (*FailoverClient, error) {
	if len(opts.Endpoints) == 0 {
		return nil, errors.New("server: failover client needs at least one endpoint")
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = 5 * time.Second
	}
	if opts.MaxBackoff == 0 {
		opts.MaxBackoff = 2 * time.Second
	}
	if opts.Attempts == 0 {
		opts.Attempts = 8
	}
	f := &FailoverClient{opts: opts}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.rediscoverLocked(); err != nil {
		return nil, err
	}
	return f, nil
}

// Close drops the current connection.
func (f *FailoverClient) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cli != nil {
		err := f.cli.Close()
		f.cli = nil
		return err
	}
	return nil
}

// Endpoint is the address currently connected (after the last successful
// operation or rediscovery).
func (f *FailoverClient) Endpoint() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.addr
}

// LastEpoch is the session's read-your-writes token: the largest epoch
// any operation returned, preserved across failover.
func (f *FailoverClient) LastEpoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// LastTerm is the highest leader term the session has observed.
func (f *FailoverClient) LastTerm() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.term
}

// Failovers counts endpoint switches forced by errors.
func (f *FailoverClient) Failovers() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failovers
}

// retryable reports whether err should trigger rediscovery: transport
// failures (the endpoint died) and the failover-class wire errors (the
// endpoint is no longer, or not yet, the leader). Other wire errors —
// malformed input, epoch-wait timeouts — surface immediately; no other
// endpoint would answer differently.
func retryable(err error) bool {
	var we *WireError
	if errors.As(err, &we) {
		return we.Code == ErrCodeReadOnly || we.Code == ErrCodeFenced || we.Code == ErrCodeStaleTerm
	}
	return true // transport-level: dial, deadline, reset, EOF
}

// do runs op with retry: on a retryable failure it drops the connection,
// backs off (capped), rediscovers the leader and tries again, up to
// Attempts. Callers hold no locks; op must not retain the client.
func (f *FailoverClient) do(op func(*Client) error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	backoff := 25 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt < f.opts.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > f.opts.MaxBackoff {
				backoff = f.opts.MaxBackoff
			}
		}
		if f.cli == nil {
			if err := f.rediscoverLocked(); err != nil {
				lastErr = err
				continue
			}
			f.failovers++
		}
		err := op(f.cli)
		if err == nil {
			f.noteLocked()
			return nil
		}
		lastErr = err
		if !retryable(err) {
			f.noteLocked()
			return err
		}
		f.cli.Close()
		f.cli = nil
	}
	return fmt.Errorf("server: all %d failover attempts failed: %w", f.opts.Attempts, lastErr)
}

// noteLocked folds the connection's tokens into the session's (monotonic
// in both epoch and term).
func (f *FailoverClient) noteLocked() {
	if f.cli == nil {
		return
	}
	if e := f.cli.LastEpoch(); e > f.epoch {
		f.epoch = e
	}
	if t := f.cli.LastTerm(); t > f.term {
		f.term = t
	}
}

// rediscoverLocked probes every endpoint and connects to the best one:
// the writable endpoint with the highest (term, epoch) — the current
// leader — or, if none is writable, the highest-epoch reachable endpoint
// so reads keep serving during the failover window. The kept connection
// is seeded with the session's term.
func (f *FailoverClient) rediscoverLocked() error {
	type candidate struct {
		cli  *Client
		addr string
		info Info
	}
	var best *candidate
	better := func(a, b candidate) bool {
		if a.info.Writable != b.info.Writable {
			return a.info.Writable
		}
		if a.info.Term != b.info.Term {
			return a.info.Term > b.info.Term
		}
		return a.info.Epoch > b.info.Epoch
	}
	var lastErr error
	for _, addr := range f.opts.Endpoints {
		cli, err := dial(addr, f.opts.RequestTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		cli.SetTimeout(f.opts.RequestTimeout)
		info, err := cli.Stats()
		if err != nil {
			cli.Close()
			lastErr = err
			continue
		}
		c := candidate{cli: cli, addr: addr, info: info}
		if best == nil {
			best = &c
			continue
		}
		if better(c, *best) {
			best.cli.Close()
			best = &c
		} else {
			c.cli.Close()
		}
	}
	if best == nil {
		return fmt.Errorf("server: no endpoint of %v reachable: %w", f.opts.Endpoints, lastErr)
	}
	best.cli.SetTerm(f.term)
	f.cli = best.cli
	f.addr = best.addr
	if best.info.Term > f.term {
		f.term = best.info.Term
	}
	return nil
}

// Apply submits one update batch to the current leader, following a
// failover if one happens mid-stream. The returned epoch is the RYW
// token; subsequent reads through this client are pinned to it
// automatically.
func (f *FailoverClient) Apply(batch []graph.Update) (uint64, error) {
	var epoch uint64
	err := f.do(func(c *Client) error {
		e, err := c.Apply(batch)
		epoch = e
		return err
	})
	return epoch, err
}

// Reachable asks one reachability query, pinned to at least the session's
// own writes: the effective minEpoch is the larger of the caller's and
// the session token, so read-your-writes holds across failover.
func (f *FailoverClient) Reachable(u, v graph.Node, minEpoch uint64, onG bool) (bool, uint64, error) {
	if t := f.LastEpoch(); t > minEpoch {
		minEpoch = t
	}
	var ans bool
	var epoch uint64
	err := f.do(func(c *Client) error {
		a, e, err := c.Reachable(u, v, minEpoch, onG)
		ans, epoch = a, e
		return err
	})
	return ans, epoch, err
}

// Stats fetches the current endpoint's store summary (with failover).
func (f *FailoverClient) Stats() (Info, error) {
	var info Info
	err := f.do(func(c *Client) error {
		in, err := c.Stats()
		info = in
		return err
	})
	return info, err
}
