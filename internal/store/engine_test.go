package store

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/graph"
	"repro/internal/snapfile"
)

// fakePipeline records what the engine asks of a store kind; its view is a
// bare epoch number.
type fakePipeline struct {
	applied   []uint64 // epochs handed to apply, in order
	published []uint64
	eng       *engine[uint64]
}

func (f *fakePipeline) materialize([][]graph.Update) {}
func (f *fakePipeline) apply(epoch uint64, _ []graph.Update) uint64 {
	f.applied = append(f.applied, epoch)
	return epoch
}
func (f *fakePipeline) publish(epoch uint64) {
	f.published = append(f.published, epoch)
}
func (f *fakePipeline) image() (uint64, func(string) error) {
	return f.eng.Epoch(), func(string) error { return errors.New("fake pipeline writes no snapshot") }
}
func (f *fakePipeline) edges() int { return 0 }
func (f *fakePipeline) stop()      {}

// TestEngineFailedAppendLeavesNoGap pins the writer loop's contract with no
// store kind in the way: a group whose WAL append fails is acked to its
// caller with the error, reaches neither apply nor publish, and the next
// accepted group continues the epoch sequence with no gap.
func TestEngineFailedAppendLeavesNoGap(t *testing.T) {
	in := faultfs.NewInject(faultfs.Disk)
	f := &fakePipeline{}
	e := &engine[uint64]{}
	f.eng = e
	e.init(f, snapfile.KindStore, Options{
		Dir: t.TempDir(), FS: in,
		WriteRetries: -1, RecoveryInterval: -1, CheckpointBatches: -1, CheckpointBytes: -1,
	}, 1)
	defer e.Close()
	d, err := newDurable(e.cfg, e.kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.openLog(1); err != nil {
		t.Fatal(err)
	}
	e.dur = d
	e.advance(0)

	batch := []graph.Update{graph.Insertion(0, 1)}
	for want := uint64(1); want <= 2; want++ {
		if got, err := e.ApplyBatch(batch); err != nil || got != want {
			t.Fatalf("ApplyBatch = (%d, %v), want epoch %d", got, err, want)
		}
	}

	in.AddRule(faultfs.Rule{Op: faultfs.OpWrite | faultfs.OpSync, Path: "wal-", Count: 1})
	if _, err := e.Apply(batch); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Apply under a WAL fault = %v, want the injected error", err)
	}
	if got := e.Epoch(); got != 2 {
		t.Fatalf("a failed group moved the epoch to %d", got)
	}
	if e.Health().State != Degraded {
		t.Fatalf("health after exhausted retries: %+v", e.Health())
	}

	// Re-arm by hand what the (disabled) recovery loop would: the fault
	// window is over, so the probe passes and the WAL resets past epoch 2.
	d.lastCkpt.Store(2)
	if !d.recoverOnce(func(bool) error { return nil }) {
		t.Fatal("recoverOnce did not re-arm the write path")
	}
	if got, err := e.Apply(batch); err != nil || got != 3 {
		t.Fatalf("first Apply after the failure = (%d, %v), want epoch 3 (no gap)", got, err)
	}
	if want := []uint64{1, 2, 3}; !slices.Equal(f.applied, want) {
		t.Fatalf("applied epochs %v, want %v (the failed group must apply nothing)", f.applied, want)
	}
	if want := []uint64{0, 1, 2, 3}; !slices.Equal(f.published, want) {
		t.Fatalf("published epochs %v, want %v", f.published, want)
	}
}
