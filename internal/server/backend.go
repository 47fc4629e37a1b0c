package server

import (
	"errors"
	"time"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/store"
)

// ErrReadOnly is returned by Apply on backends that cannot accept writes
// (followers). The server relays it as a MsgErr so clients can redirect
// writes to the leader.
var ErrReadOnly = errors.New("server: read-only replica")

// Backend is what the server needs from a store: snapshot-consistent reads,
// batch writes returning the visibility epoch, and enough metadata to
// validate wire input before it reaches the store. A Store (through
// NewStoreBackend) and a replica follower satisfy it, and so does a wrapper
// that embeds either.
type Backend interface {
	// Epoch is the latest published snapshot epoch; reads carrying a
	// larger minEpoch are held until it catches up.
	Epoch() uint64
	// AwaitEpoch parks until the published epoch reaches min, timeout
	// passes, cancel is closed or the backend is fenced, and returns the
	// epoch then current. The epoch swap wakes it: read-your-writes holds
	// and parked tail rounds both hang on it.
	AwaitEpoch(min uint64, timeout time.Duration, cancel <-chan struct{}) uint64
	// NumNodes bounds the node ids wire requests may name.
	NumNodes() int
	// The read paths each answer on one pinned snapshot and return the
	// epoch of that snapshot — the stamp a response carries, exact and not
	// a lower bound. Reachable answers one reachability query (onG: on the
	// uncompressed graph instead of the quotient), BatchReachable n of them,
	// Match a pattern query.
	Reachable(u, v graph.Node, onG bool) (bool, uint64)
	BatchReachable(us, vs []graph.Node) ([]bool, uint64)
	Match(p *pattern.Pattern) (*pattern.Result, uint64)
	// Apply submits one batch and returns its visibility epoch (the RYW
	// token); read-only backends return ErrReadOnly.
	Apply(batch []graph.Update) (uint64, error)
	// Term is the backend's current leader term (0 before any failover,
	// and always 0 for in-memory stores).
	Term() uint64
	// ObserveTerm reacts to a term carried by a request. A leader-acting
	// backend fences itself when t exceeds its own term; a follower adopts
	// the term without fencing. Equal or lower terms are no-ops.
	ObserveTerm(t uint64) error
	// Fenced reports whether the backend has fenced itself after observing
	// a newer term; the tail handler ships it so that followers tell a
	// deposed source (frozen history) from a healthy one.
	Fenced() bool
	// Effects is what a tail round ships a follower holding the views at
	// (lineage, epoch) (store.Store.Effects): the recorded diffs that chain
	// from there, each after its frames, or else an image, alone.
	Effects(lineage, epoch uint64) []store.Effect
	// Info summarizes the store for MsgStats.
	Info() Info
}

// Promoter is the optional promotion surface a Backend may implement —
// replica followers do. Promote stops tailing (after waiting up to wait
// for the tail to drain when wait > 0), bumps and fsyncs the term, and
// starts serving Apply; it returns the follower's epoch frontier (no
// acked batch at or below it was lost) and the new term.
type Promoter interface {
	Promote(wait time.Duration) (epoch, term uint64, err error)
}

// storeBackend fronts a local store.
type storeBackend struct{ s *store.Store }

// NewStoreBackend adapts a Store to the serving interface.
func NewStoreBackend(s *store.Store) Backend { return storeBackend{s} }

func (b storeBackend) Epoch() uint64 { return b.s.Epoch() }

func (b storeBackend) AwaitEpoch(min uint64, timeout time.Duration, cancel <-chan struct{}) uint64 {
	return b.s.AwaitEpoch(min, timeout, cancel)
}

func (b storeBackend) NumNodes() int { return b.s.NumNodes() }

func (b storeBackend) Reachable(u, v graph.Node, onG bool) (bool, uint64) {
	vw := b.s.View()
	if onG {
		return vw.ReachableOnG(u, v), vw.Epoch()
	}
	return vw.Reachable(u, v), vw.Epoch()
}

func (b storeBackend) BatchReachable(us, vs []graph.Node) ([]bool, uint64) {
	vw := b.s.View()
	return vw.BatchReachable(us, vs), vw.Epoch()
}

func (b storeBackend) Match(p *pattern.Pattern) (*pattern.Result, uint64) {
	vw := b.s.View()
	return vw.Match(p), vw.Epoch()
}

func (b storeBackend) Effects(lineage, epoch uint64) []store.Effect {
	return b.s.Effects(lineage, epoch)
}

func (b storeBackend) Apply(batch []graph.Update) (uint64, error) { return b.s.Apply(batch) }

func (b storeBackend) Term() uint64 { return b.s.Term() }

func (b storeBackend) Fenced() bool { return b.s.Fenced() }

func (b storeBackend) ObserveTerm(t uint64) error { return b.s.ObserveTerm(t) }

func (b storeBackend) Info() Info {
	st := b.s.Stats()
	return Info{
		Epoch: st.Epoch, Batches: st.Batches, Updates: st.Updates, Reads: st.Reads,
		Nodes: st.Nodes, Edges: st.Edges,
		Term: b.s.Term(), Writable: !b.s.Fenced(),
	}
}
