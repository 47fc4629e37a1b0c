package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/store"
)

// conn is one client's way to the system: the store itself or a
// connection to a server. Reach holds until the endpoint has published
// minEpoch.
type conn interface {
	Reach(u, v graph.Node, minEpoch uint64) (bool, error)
	BatchReach(us, vs []graph.Node) ([]bool, error)
	Match(p *pattern.Pattern) (*pattern.Result, error)
	Apply(batch []graph.Update) (uint64, error)
}

// storeAPI is the part of the two store kinds the benchmark drives. A
// store is its own in-process conn: ApplyBatch returns once its epoch is
// published, so the caller's next read sees it and minEpoch needs no wait.
type storeAPI interface {
	conn
	Epoch() uint64
	Checkpoint() error
	SchedStats() store.SchedStats
	Close() error
}

type monoStore struct{ *store.Store }

func (m monoStore) Epoch() uint64 { return m.Snapshot().Epoch }
func (m monoStore) Reach(u, v graph.Node, _ uint64) (bool, error) {
	return m.Reachable(u, v), nil
}
func (m monoStore) BatchReach(us, vs []graph.Node) ([]bool, error) {
	return m.BatchReachable(us, vs), nil
}
func (m monoStore) Match(p *pattern.Pattern) (*pattern.Result, error) {
	return m.Store.Match(p), nil
}
func (m monoStore) Apply(b []graph.Update) (uint64, error) {
	r, err := m.ApplyBatch(b)
	return r.Epoch, err
}

type shardedStore struct{ *store.ShardedStore }

func (s shardedStore) Epoch() uint64 { return s.Snapshot().Epoch }
func (s shardedStore) Reach(u, v graph.Node, _ uint64) (bool, error) {
	return s.Reachable(u, v), nil
}
func (s shardedStore) BatchReach(us, vs []graph.Node) ([]bool, error) {
	return s.BatchReachable(us, vs), nil
}
func (s shardedStore) Match(p *pattern.Pattern) (*pattern.Result, error) {
	return s.ShardedStore.Match(p), nil
}
func (s shardedStore) Apply(b []graph.Update) (uint64, error) {
	r, err := s.ApplyBatch(b)
	return r.Epoch, err
}

// storeConfig is how a workload's store is opened.
type storeConfig struct {
	sharded   bool
	dir       string // "" = in memory
	ckptEvery int
	fs        *countFS
	obs       *obs.Registry
}

// openStore opens (g != nil) or recovers (g == nil) a store. It takes
// ownership of g.
func openStore(g *graph.Graph, c storeConfig) (storeAPI, error) {
	if c.sharded {
		o := &store.ShardedOptions{Shards: shardCount, Indexes: true, Dir: c.dir, Sync: store.SyncAlways,
			CheckpointBatches: c.ckptEvery, CheckpointBytes: -1, Obs: c.obs}
		if c.fs != nil {
			o.FS = c.fs
		}
		s, err := store.OpenSharded(g, o)
		if err != nil {
			return nil, err
		}
		return shardedStore{s}, nil
	}
	o := &store.Options{Indexes: true, Dir: c.dir, Sync: store.SyncAlways,
		CheckpointBatches: c.ckptEvery, CheckpointBytes: -1, Obs: c.obs}
	if c.fs != nil {
		o.FS = c.fs
	}
	s, err := store.Open(g, o)
	if err != nil {
		return nil, err
	}
	return monoStore{s}, nil
}

// wireConn is one server.Client connection.
type wireConn struct{ c *server.Client }

func (w wireConn) Reach(u, v graph.Node, minEpoch uint64) (bool, error) {
	ok, _, err := w.c.Reachable(u, v, minEpoch, false)
	return ok, err
}
func (w wireConn) BatchReach(us, vs []graph.Node) ([]bool, error) {
	out, _, err := w.c.BatchReachable(us, vs, 0)
	return out, err
}
func (w wireConn) Match(p *pattern.Pattern) (*pattern.Result, error) {
	r, _, err := w.c.Match(p, 0)
	return r, err
}
func (w wireConn) Apply(b []graph.Update) (uint64, error) { return w.c.Apply(b) }

// system is one workload's topology, opened and ready for clients.
type system struct {
	cfg   storeConfig
	st    storeAPI          // the store that takes writes (the leader in repl)
	srv   *server.Server    // its server; nil in-process
	fol   *replica.Follower // repl only
	fsrv  *server.Server
	conns []*server.Client
}

// openSystem builds the workload's topology over g under dir: the store,
// and for repl a loopback server in front of it, a follower bootstrapped
// from that server and a server of the follower's own. It returns once
// every tier answers.
func openSystem(w workload, g *graph.Graph, dir string, ckptEvery int, fs *countFS) (_ *system, err error) {
	sys := &system{cfg: storeConfig{sharded: w.sharded, dir: filepath.Join(dir, "leader"), ckptEvery: ckptEvery, fs: fs}}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	if sys.st, err = openStore(g, sys.cfg); err != nil || w.transport == inproc {
		return sys, err
	}
	ms, ok := sys.st.(monoStore)
	if !ok {
		return nil, errors.New("the repl workloads serve the monolithic store")
	}
	if sys.srv, err = server.Start("127.0.0.1:0", server.Options{Backend: server.NewStoreBackend(ms.Store), ReplDir: sys.cfg.dir}); err != nil {
		return nil, err
	}
	if sys.fol, err = replica.Start(replica.Options{Dir: filepath.Join(dir, "follower"), Leader: sys.srv.Addr()}); err != nil {
		return nil, err
	}
	if err = sys.waitFollower(); err != nil {
		return nil, err
	}
	sys.fsrv, err = server.Start("127.0.0.1:0", server.Options{Backend: sys.fol})
	return sys, err
}

// caughtUp returns once f has published leader's epoch.
func caughtUp(f *replica.Follower, leader storeAPI) error {
	deadline := time.Now().Add(30 * time.Second)
	for f.Epoch() < leader.Epoch() {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at epoch %d, leader at %d after 30s", f.Epoch(), leader.Epoch())
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func (s *system) waitFollower() error { return caughtUp(s.fol, s.st) }

func (s *system) connect(srv *server.Server) (conn, error) {
	if srv == nil {
		return s.st, nil
	}
	c, err := server.Dial(srv.Addr())
	if err != nil {
		return nil, err
	}
	c.SetTimeout(30 * time.Second)
	s.conns = append(s.conns, c)
	return wireConn{c}, nil
}

// writer returns a client of the endpoint that takes writes.
func (s *system) writer() (conn, error) { return s.connect(s.srv) }

// reader returns a client of the endpoint that serves reads: the follower
// in repl, the writer's endpoint otherwise.
func (s *system) reader() (conn, error) {
	if s.fsrv != nil {
		return s.connect(s.fsrv)
	}
	return s.connect(s.srv)
}

// close stops every tier, clients first, and returns the first error.
// Closing twice is harmless.
func (s *system) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range s.conns {
		keep(c.Close())
	}
	if s.fsrv != nil {
		keep(s.fsrv.Close())
	}
	if s.fol != nil {
		keep(s.fol.Close())
	}
	if s.srv != nil {
		keep(s.srv.Close())
	}
	if s.st != nil {
		keep(s.st.Close())
	}
	s.conns, s.fsrv, s.fol, s.srv, s.st = nil, nil, nil, nil, nil
	return first
}
