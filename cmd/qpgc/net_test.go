package main

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/store"
)

// flipBackend answers one Gr read wrong — the first point read on Gr or
// lane 0 of the first batch, whichever comes first — and every other read
// right, the way a quotient bug confined to one class would.
type flipBackend struct {
	server.Backend
	flipped atomic.Bool
}

func (b *flipBackend) Reachable(u, v graph.Node, onG bool) (bool, uint64) {
	got, epoch := b.Backend.Reachable(u, v, onG)
	if !onG && b.flipped.CompareAndSwap(false, true) {
		got = !got
	}
	return got, epoch
}

func (b *flipBackend) BatchReachable(us, vs []graph.Node) ([]bool, uint64) {
	got, epoch := b.Backend.BatchReachable(us, vs)
	if b.flipped.CompareAndSwap(false, true) {
		got[0] = !got[0]
	}
	return got, epoch
}

// serveTestStore serves an in-memory store on a free port, through flip's
// backend when flip is set, and returns the address and a workload over
// its graph.
func serveTestStore(t *testing.T, flip bool) (string, []gen.Op) {
	t.Helper()
	g := gen.Social(rand.New(rand.NewSource(3)), 300, 1200, 4)
	ops := gen.Mixed(rand.New(rand.NewSource(4)), g, 400, 0.2, 0.5)
	s, err := store.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	b := server.NewStoreBackend(s)
	if flip {
		b = &flipBackend{Backend: b}
	}
	srv, err := server.Start("127.0.0.1:0", server.Options{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr(), ops
}

// TestClientVerifyOneEndpoint runs the client's two checks against a single
// served store: both pass on an honest backend, and each fails when the
// backend answers one Gr read wrong. With one endpoint the quiesced verify
// used to compare the reference with nobody and report agreement.
func TestClientVerifyOneEndpoint(t *testing.T) {
	for _, flip := range []bool{false, true} {
		addr, ops := serveTestStore(t, flip)
		if err := verifyEndpoints([]string{addr}, 200, 5); (err != nil) != flip {
			t.Errorf("verifyEndpoints with one Gr answer flipped=%v: %v", flip, err)
		}

		addr, ops = serveTestStore(t, flip)
		cli, err := server.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		err = driveWorkload(cli, ops, 16, true)
		cli.Close()
		if (err != nil) != flip {
			t.Errorf("driveWorkload -verify with one Gr answer flipped=%v: %v", flip, err)
		}
	}
}
