package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// termGraph is a small deterministic graph for the term tests.
func termGraph() *graph.Graph {
	return gen.ErdosRenyi(rand.New(rand.NewSource(7)), 200, 800, 3)
}

func TestTermCodecRoundtrip(t *testing.T) {
	for _, tc := range []struct {
		term   uint64
		fenced bool
	}{
		{0, false}, {1, false}, {1, true}, {1 << 40, false}, {^uint64(0), true},
	} {
		b := encodeTerm(tc.term, tc.fenced)
		if len(b) != termSize {
			t.Fatalf("encodeTerm(%d,%v): %d bytes, want %d", tc.term, tc.fenced, len(b), termSize)
		}
		term, fenced, err := decodeTerm(b)
		if err != nil {
			t.Fatalf("decodeTerm(%d,%v): %v", tc.term, tc.fenced, err)
		}
		if term != tc.term || fenced != tc.fenced {
			t.Fatalf("roundtrip (%d,%v) -> (%d,%v)", tc.term, tc.fenced, term, fenced)
		}
	}
}

func TestTermCodecRejectsForgery(t *testing.T) {
	valid := encodeTerm(42, true)
	// Any single bit flip must be rejected: magic, version, term, flag and
	// CRC are all covered.
	for i := 0; i < len(valid)*8; i++ {
		mut := bytes.Clone(valid)
		mut[i/8] ^= 1 << (i % 8)
		if _, _, err := decodeTerm(mut); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	for _, b := range [][]byte{nil, {}, valid[:termSize-1], append(bytes.Clone(valid), 0)} {
		if _, _, err := decodeTerm(b); err == nil {
			t.Fatalf("length %d accepted", len(b))
		}
	}
}

// TestTermDurability pins the recovery behavior: a bumped term survives a
// reopen, and a missing TERM file means term 0, unfenced.
func TestTermDurability(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, termGraph(), &Options{Dir: dir, Sync: SyncNone})
	if s.Term() != 0 || s.Fenced() {
		t.Fatalf("fresh store: term %d fenced %v, want 0 unfenced", s.Term(), s.Fenced())
	}
	term, err := s.BumpTerm(6)
	if err != nil {
		t.Fatalf("BumpTerm: %v", err)
	}
	if term != 7 {
		t.Fatalf("BumpTerm(6) = %d, want 7 (past both own term and min)", term)
	}
	if _, err := s.ApplyBatch([]graph.Update{graph.Insertion(0, 1)}); err != nil {
		t.Fatalf("ApplyBatch after bump: %v", err)
	}
	s.Close()

	s = mustOpen(t, nil, &Options{Dir: dir, Sync: SyncNone})
	defer s.Close()
	if s.Term() != 7 || s.Fenced() {
		t.Fatalf("reopened: term %d fenced %v, want 7 unfenced", s.Term(), s.Fenced())
	}
}

// TestObserveTermFences is the stale-leader kernel: observing a newer term
// makes every subsequent write fail ErrFenced while reads keep serving,
// the fence survives a crash-reopen, and only a term bump clears it.
func TestObserveTermFences(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		dir := t.TempDir()
		s := openKind(t, kind, termGraph(), Options{Dir: dir, Sync: SyncNone})
		if _, err := s.Apply([]graph.Update{graph.Insertion(0, 1)}); err != nil {
			t.Fatalf("ApplyBatch: %v", err)
		}
		epoch := s.Epoch()

		if err := s.ObserveTerm(3); err != nil {
			t.Fatalf("ObserveTerm: %v", err)
		}
		if !s.Fenced() || s.Term() != 3 {
			t.Fatalf("after observe: term %d fenced %v, want 3 fenced", s.Term(), s.Fenced())
		}
		if h := s.Health(); h.State != Fenced || h.Term != 3 {
			t.Fatalf("health = %+v, want Fenced at term 3", h)
		}
		_, err := s.Apply([]graph.Update{graph.Insertion(1, 2)})
		if !errors.Is(err, ErrFenced) || errors.Is(err, ErrDegraded) {
			t.Fatalf("write on fenced store: %v, want ErrFenced and not ErrDegraded", err)
		}
		// Reads still serve the last published epoch.
		s.Reachable(0, 1)
		if got := s.Epoch(); got != epoch {
			t.Fatalf("fenced epoch moved: %d -> %d", epoch, got)
		}
		// Lower and equal terms are no-ops either way.
		if err := s.ObserveTerm(2); err != nil {
			t.Fatalf("ObserveTerm(lower): %v", err)
		}
		if s.Term() != 3 {
			t.Fatalf("term regressed to %d", s.Term())
		}
		s.Close()

		// The fence is durable: a restarted stale leader stays read-only.
		s = openKind(t, kind, nil, Options{Dir: dir, Sync: SyncNone, RecoveryInterval: 5 * time.Millisecond})
		if !s.Fenced() || s.Term() != 3 {
			t.Fatalf("reopened: term %d fenced %v, want 3 fenced", s.Term(), s.Fenced())
		}
		if _, err := s.Apply([]graph.Update{graph.Insertion(1, 2)}); !errors.Is(err, ErrFenced) {
			t.Fatalf("write on reopened fenced store: %v, want ErrFenced", err)
		}
		// The background recovery loop must never re-arm a fence: it repairs
		// faults, and a fence is not a fault.
		time.Sleep(50 * time.Millisecond)
		if !s.Fenced() {
			t.Fatal("recovery loop cleared a fence")
		}
		// Promotion (a term bump) is the only way back to writable.
		term, err := s.BumpTerm(0)
		if err != nil {
			t.Fatalf("BumpTerm: %v", err)
		}
		if term != 4 || s.Fenced() {
			t.Fatalf("after bump: term %d fenced %v, want 4 unfenced", term, s.Fenced())
		}
		if _, err := s.Apply([]graph.Update{graph.Insertion(1, 2)}); err != nil {
			t.Fatalf("write after bump: %v", err)
		}
		s.Close()
	})
}

// TestAdoptTerm pins the follower-side rule: adoption raises the term
// without fencing (a follower must keep applying its leader's frames) and
// never regresses.
func TestAdoptTerm(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		dir := t.TempDir()
		s := openKind(t, kind, termGraph(), Options{Dir: dir, Sync: SyncNone})
		if err := s.AdoptTerm(5); err != nil {
			t.Fatalf("AdoptTerm: %v", err)
		}
		if s.Term() != 5 || s.Fenced() {
			t.Fatalf("after adopt: term %d fenced %v, want 5 unfenced", s.Term(), s.Fenced())
		}
		if _, err := s.Apply([]graph.Update{graph.Insertion(0, 1)}); err != nil {
			t.Fatalf("write after adopt: %v", err)
		}
		if err := s.AdoptTerm(3); err != nil {
			t.Fatalf("AdoptTerm(lower): %v", err)
		}
		if s.Term() != 5 {
			t.Fatalf("adoption regressed the term to %d", s.Term())
		}
		s.Close()
		s = openKind(t, kind, nil, Options{Dir: dir, Sync: SyncNone})
		defer s.Close()
		if s.Term() != 5 || s.Fenced() {
			t.Fatalf("reopened: term %d fenced %v, want 5 unfenced", s.Term(), s.Fenced())
		}
	})
}

// TestCorruptTermFileFailsOpen: a TERM file that does not decode is a
// refused open, not a silent term reset — resetting would let a deposed
// leader shed its fence by scribbling on one file.
func TestCorruptTermFileFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, termGraph(), &Options{Dir: dir, Sync: SyncNone})
	if err := s.AdoptTerm(4); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, termName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // break the CRC
	if err := os.WriteFile(path, b, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(nil, &Options{Dir: dir, Sync: SyncNone}); err == nil {
		t.Fatal("corrupt TERM file accepted on open")
	}
}

// FuzzTermMetadata throws arbitrary bytes at the TERM decoder: it must
// never panic, and anything it does accept must be the canonical encoding
// of what it decoded — so a forged or bit-flipped file can never regress
// or invent a term.
func FuzzTermMetadata(f *testing.F) {
	f.Add(encodeTerm(0, false))
	f.Add(encodeTerm(42, true))
	f.Add(encodeTerm(^uint64(0), false))
	f.Add([]byte("qpgcTERM"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		term, fenced, err := decodeTerm(b)
		if err != nil {
			return
		}
		if got := encodeTerm(term, fenced); !bytes.Equal(got, b) {
			t.Fatalf("decodeTerm accepted a non-canonical encoding: %x -> (%d,%v) -> %x", b, term, fenced, got)
		}
	})
}
