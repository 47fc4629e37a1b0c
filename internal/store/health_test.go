package store

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

// faultTopologies is the injection matrix's graph zoo: three structurally
// distinct families (cyclic social, DAG-heavy citation, sparse p2p).
func faultTopologies(seed int64) map[string]*graph.Graph {
	all := shardedTopologies(seed)
	return map[string]*graph.Graph{
		"social":   all["social"],
		"citation": all["citation"],
		"p2p":      all["p2p"],
	}
}

// TestInjectedFaultDifferential is the robustness acceptance matrix: every
// fault schedule × three topologies × both store kinds. Under each
// schedule the store must keep every acked batch (differential equality
// with an uninterrupted reference, live and after reopen), return to
// Healthy once the faults stop, and keep the epoch sequence gapless —
// acked ⇒ durable, errored ⇒ absent, faults ⇒ recover.
func TestInjectedFaultDifferential(t *testing.T) {
	// mode "write": the schedule breaks the WAL write path — expect
	// retry, degradation and background recovery. mode "ckpt": the
	// schedule breaks checkpointing — the write path must not notice.
	// mode "scrub": the schedule corrupts scrub reads of sealed segments —
	// expect quarantine and checkpoint repair.
	schedules := []struct {
		name  string
		mode  string
		rules []faultfs.Rule
	}{
		{"fsync-error", "write",
			[]faultfs.Rule{{Op: faultfs.OpSync, Path: "wal-", After: 2, Count: 5}}},
		{"short-write", "write",
			[]faultfs.Rule{{Op: faultfs.OpWrite, Path: "wal-", After: 4, Count: 5, ShortBy: -1}}},
		{"enospc", "write",
			[]faultfs.Rule{{Op: faultfs.OpWrite, Path: "wal-", After: 4, Count: 5, Err: faultfs.ErrNoSpace, ShortBy: -1}}},
		{"torn-rename", "ckpt",
			[]faultfs.Rule{{Op: faultfs.OpRename, Path: manifestName, After: 1, Count: 2}}},
		{"segment-bit-flip", "scrub",
			[]faultfs.Rule{{Op: faultfs.OpRead, Path: "wal-", Flip: true, Count: 3}}},
	}
	for topo, g0 := range faultTopologies(31) {
		for _, kind := range []string{"mono", "sharded"} {
			for _, sched := range schedules {
				t.Run(topo+"/"+kind+"/"+sched.name, func(t *testing.T) {
					g := g0.Clone()
					mirror := g.Clone()
					dir := t.TempDir()
					in := faultfs.NewInject(faultfs.Disk, sched.rules...)
					o := Options{
						Indexes: true, Dir: dir, FS: in,
						WriteRetries: 1, RetryBackoff: time.Millisecond,
						RecoveryInterval:  4 * time.Millisecond,
						CheckpointBatches: -1, CheckpointBytes: -1,
					}
					if sched.mode == "ckpt" {
						o.CheckpointBatches = 3
					}
					if sched.mode == "scrub" {
						// A segment of three or so records, so that the
						// stream seals some for the scrub to read.
						o.WALSegmentBytes = 128
					}
					ts := openKind(t, kind, g, o)

					rng := rand.New(rand.NewSource(7))
					acked := 0
					sawErr := false
					deadline := time.Now().Add(30 * time.Second)
					okRun := 0
					for i := 0; i < 400; i++ {
						// Streams drain the fault window and then confirm
						// sustained health; the scrub schedule's window only
						// drains under ScrubNow below.
						if okRun >= 5 && (sched.mode == "scrub" || !in.Armed()) {
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("fault window never drained: fired %d", in.Fired())
						}
						batch := gen.RandomBatch(rng, mirror, 12, 0.5)
						if _, err := ts.Apply(batch); err != nil {
							sawErr = true
							okRun = 0
							time.Sleep(2 * time.Millisecond)
							continue
						}
						mirror.Apply(batch)
						acked++
						okRun++
					}
					drained := ts.Epoch()

					if sched.mode == "scrub" {
						rep, err := ts.ScrubNow()
						if err != nil {
							t.Fatalf("ScrubNow: %v", err)
						}
						if len(rep.Quarantined) == 0 || !rep.Repaired {
							t.Fatalf("scrub under bit-flips: quarantined %v, repaired %v (err %q)", rep.Quarantined, rep.Repaired, rep.Err)
						}
						if got := ts.Health().LastScrub; !got.Repaired {
							t.Fatal("Health does not carry the scrub report")
						}
					}
					if in.Fired() == 0 {
						t.Fatal("schedule never fired — the test exercised nothing")
					}
					if sched.mode == "write" && !sawErr {
						t.Fatal("write-path schedule produced no apply error")
					}

					waitFor(t, 5*time.Second, "store to return to Healthy", func() bool {
						return ts.Health().State == Healthy
					})
					// The store must take writes again once faults stop.
					for i := 0; i < 5; i++ {
						batch := gen.RandomBatch(rng, mirror, 12, 0.5)
						if _, err := ts.Apply(batch); err != nil {
							t.Fatalf("post-fault apply %d: %v", i, err)
						}
						mirror.Apply(batch)
						acked++
					}
					if sched.mode == "ckpt" {
						// One checkpoint runs at a time, and the one that met
						// the last fault may still be in flight while the
						// writes above cross the threshold, so they start
						// none. Write on until a checkpoint newer than the
						// fault window lands: it clears the sticky failure
						// Close would otherwise return.
						deadline := time.Now().Add(5 * time.Second)
						for {
							m, err := readManifest(faultfs.Disk, dir)
							if err != nil {
								t.Fatal(err)
							}
							if m.epoch > drained {
								break
							}
							if time.Now().After(deadline) {
								t.Fatalf("no checkpoint after the fault window: manifest at epoch %d, faults drained at %d", m.epoch, drained)
							}
							batch := gen.RandomBatch(rng, mirror, 12, 0.5)
							if _, err := ts.Apply(batch); err != nil {
								t.Fatalf("post-fault apply: %v", err)
							}
							mirror.Apply(batch)
							acked++
							time.Sleep(time.Millisecond)
						}
					}
					h := ts.Health()
					if sched.mode == "write" {
						if h.Degradations == 0 || h.Recoveries != h.Degradations {
							t.Fatalf("health counters: %d degradations, %d recoveries", h.Degradations, h.Recoveries)
						}
					}
					// Epoch sequence gapless: epoch counts exactly the acked
					// batches, with failed ones leaving no hole.
					if got := ts.Epoch(); got != uint64(acked) {
						t.Fatalf("epoch %d after %d acked batches", got, acked)
					}
					diffVsReference(t, "live", ts, mirror)
					if err := ts.Close(); err != nil {
						t.Fatalf("Close: %v", err)
					}

					// Reopen on a clean disk: every acked batch must be there.
					reopened := openKind(t, kind, nil, Options{Dir: dir})
					defer reopened.Close()
					if got := reopened.Epoch(); got != uint64(acked) {
						t.Fatalf("reopened at epoch %d, %d batches acked", got, acked)
					}
					diffVsReference(t, "reopened", reopened, mirror)
				})
			}
		}
	}
}

// TestDegradedFailFast pins the state machine's degraded mode: under a
// persistent unfiltered fault (probe fails too, so recovery cannot re-arm)
// the store fails writes fast with the degradation cause, keeps serving
// reads at the last published epoch, and re-arms only when the disk heals.
// The store is opened with a metrics registry, and what an operator would
// scrape — the qpgc_health_* series — must tell the same story as Health()
// while degraded and after the heal.
func TestDegradedFailFast(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		g := faultTopologies(33)["social"]
		mirror := g.Clone()
		in := faultfs.NewInject(faultfs.Disk) // no rules yet: open cleanly
		reg := obs.NewRegistry()
		in.Observe(func(kind string) {
			reg.Counter(obs.Label("qpgc_faults_fired_total", "kind", kind)).Inc()
		})
		s := openKind(t, kind, g.Clone(), Options{
			Indexes: true, Dir: t.TempDir(), FS: in, Obs: reg,
			WriteRetries: 1, RetryBackoff: time.Millisecond,
			RecoveryInterval:  3 * time.Millisecond,
			CheckpointBatches: -1, CheckpointBytes: -1,
		})
		defer s.Close()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 3; i++ {
			batch := gen.RandomBatch(rng, mirror, 15, 0.5)
			mirror.Apply(batch)
			if _, err := s.Apply(batch); err != nil {
				t.Fatal(err)
			}
		}
		epochBefore := s.Epoch()

		// The disk fills: every write and fsync — including the recovery
		// probe's — fails until further notice.
		in.AddRule(faultfs.Rule{Op: faultfs.OpWrite | faultfs.OpSync, Err: faultfs.ErrNoSpace})
		lost := gen.RandomBatch(rng, mirror, 15, 0.5)
		if _, err := s.Apply(lost); !errors.Is(err, faultfs.ErrNoSpace) {
			t.Fatalf("apply on full disk = %v, want ENOSPC after retries", err)
		}
		h := s.Health()
		if h.State != Degraded || h.Reason == "" {
			t.Fatalf("after ENOSPC: %+v", h)
		}
		// Fail-fast: a degraded store rejects without touching the log, and
		// says so apart from the fault.
		if _, err := s.Apply(lost); !errors.Is(err, faultfs.ErrNoSpace) || !errors.Is(err, ErrDegraded) || errors.Is(err, ErrFenced) {
			t.Fatalf("degraded apply = %v, want ErrDegraded wrapping ENOSPC", err)
		}
		// Reads hold the last published epoch and keep answering.
		if got := s.Epoch(); got != epochBefore {
			t.Fatalf("degraded store moved epoch %d -> %d", epochBefore, got)
		}
		diffVsReference(t, "degraded", s, mirror)
		text := reg.PrometheusText()
		if got := scrapeValue(t, text, "qpgc_health_state"); got != float64(Degraded) {
			t.Fatalf("scraped qpgc_health_state = %v while degraded, want %d", got, Degraded)
		}
		if got := scrapeValue(t, text, "qpgc_health_degradations_total"); got != 1 {
			t.Fatalf("scraped qpgc_health_degradations_total = %v while degraded, want 1", got)
		}

		// The disk heals; the recovery loop must re-arm on its own.
		in.Disarm()
		waitFor(t, 5*time.Second, "recovery to re-arm the write path", func() bool {
			return s.Health().State == Healthy
		})
		for i := 0; i < 3; i++ {
			batch := gen.RandomBatch(rng, mirror, 15, 0.5)
			mirror.Apply(batch)
			if _, err := s.Apply(batch); err != nil {
				t.Fatalf("post-recovery apply: %v", err)
			}
		}
		h = s.Health()
		if h.State != Healthy || h.Degradations != 1 || h.Recoveries != 1 {
			t.Fatalf("after recovery: %+v", h)
		}
		if got, want := s.Epoch(), epochBefore+3; got != want {
			t.Fatalf("epoch %d after recovery, want %d (no gap, no resurrection)", got, want)
		}
		diffVsReference(t, "recovered", s, mirror)

		// The scrape after the heal: state back to healthy, the counters
		// equal to the store's own report, the degraded window accounted
		// for, and every injected fault counted by kind.
		text = reg.PrometheusText()
		if got := scrapeValue(t, text, "qpgc_health_state"); got != float64(Healthy) {
			t.Fatalf("scraped qpgc_health_state = %v after recovery, want %d", got, Healthy)
		}
		if got := scrapeValue(t, text, "qpgc_health_degradations_total"); got != float64(h.Degradations) {
			t.Fatalf("scraped degradations %v, Health() reports %d", got, h.Degradations)
		}
		if got := scrapeValue(t, text, "qpgc_health_recoveries_total"); got != float64(h.Recoveries) {
			t.Fatalf("scraped recoveries %v, Health() reports %d", got, h.Recoveries)
		}
		if got := scrapeValue(t, text, "qpgc_health_retries_total"); got != float64(h.Retries) {
			t.Fatalf("scraped retries %v, Health() reports %d", got, h.Retries)
		}
		if got := scrapeValue(t, text, "qpgc_health_degraded_seconds_total"); got <= 0 {
			t.Fatalf("scraped degraded seconds %v after a degraded window", got)
		}
		var fired float64
		for _, k := range []string{"write", "sync"} {
			if series := obs.Label("qpgc_faults_fired_total", "kind", k); strings.Contains(text, series+" ") {
				fired += scrapeValue(t, text, series)
			}
		}
		if fired != float64(in.Fired()) || fired == 0 {
			t.Fatalf("scrape counts %v fired faults by kind, the injector fired %d", fired, in.Fired())
		}
	})
}

// scrapeValue extracts one series' value from a Prometheus text exposition;
// an absent series fails the test.
func scrapeValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s has unparseable value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("scrape lacks series %s:\n%s", series, text)
	return 0
}

// TestCloseReturnsStickyCheckpointError pins the Checkpoint error plumbing:
// background checkpoint failures are retried with backoff, and one still
// outstanding at Close surfaces there — while the WAL keeps every acked
// batch recoverable regardless.
func TestCloseReturnsStickyCheckpointError(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		g := faultTopologies(35)["citation"]
		mirror := g.Clone()
		dir := t.TempDir()
		in := faultfs.NewInject(faultfs.Disk)
		s := openKind(t, kind, g.Clone(), Options{
			Indexes: true, Dir: dir, FS: in,
			WriteRetries: 2, RetryBackoff: time.Millisecond,
			CheckpointBatches: 2, CheckpointBytes: -1,
		})
		rng := rand.New(rand.NewSource(11))
		// Every manifest swap fails from here on: background checkpoints
		// exhaust their retries and record a sticky error.
		in.AddRule(faultfs.Rule{Op: faultfs.OpRename, Path: manifestName})
		for i := 0; i < 6; i++ {
			batch := gen.RandomBatch(rng, mirror, 15, 0.5)
			mirror.Apply(batch)
			if _, err := s.Apply(batch); err != nil {
				t.Fatalf("apply %d (checkpoint faults must not break the write path): %v", i, err)
			}
		}
		waitFor(t, 5*time.Second, "background checkpoint to fail through its retries", func() bool {
			return s.Health().CheckpointError != ""
		})
		if err := s.Close(); err == nil || !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("Close = %v, want the sticky checkpoint failure", err)
		}
		// The checkpoint never landed but the WAL did: reopen recovers all.
		r := openKind(t, kind, nil, Options{Dir: dir})
		defer r.Close()
		if got := r.Epoch(); got != 6 {
			t.Fatalf("reopened at epoch %d, want 6", got)
		}
		diffVsReference(t, "reopened", r, mirror)
	})
}

// TestScrubRepairsCorruptSnapshot pins snapshot scrubbing: a bit flipped
// in the manifest's current checkpoint is caught by checksum, the file is
// quarantined, and a forced checkpoint restores a loadable on-disk state.
func TestScrubRepairsCorruptSnapshot(t *testing.T) {
	g := faultTopologies(37)["p2p"]
	mirror := g.Clone()
	dir := t.TempDir()
	s, err := Open(g.Clone(), &Options{Indexes: true, Dir: dir, CheckpointBatches: -1, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 4; i++ {
		batch := gen.RandomBatch(rng, mirror, 15, 0.5)
		mirror.Apply(batch)
		if _, err := s.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.qps"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot files (%v)", err)
	}
	sort.Strings(snaps)
	current := snaps[len(snaps)-1]
	flipFileBit(t, current, 100)

	rep, err := s.ScrubNow()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != filepath.Base(current) || !rep.Repaired {
		t.Fatalf("scrub of flipped snapshot: %+v", rep)
	}
	if _, err := os.Stat(current + ".quarantine"); err != nil {
		t.Fatal("quarantined snapshot not preserved as evidence")
	}
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Quarantined) != 1 {
		t.Fatalf("Inspect.Quarantined = %v", info.Quarantined)
	}
	// The forced checkpoint rewrote the current snapshot: a fresh process
	// recovers from it.
	s.Close()
	r, err := Open(nil, &Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after repair: %v", err)
	}
	defer r.Close()
	diffVsReference(t, "repaired", r, mirror)
}

// TestScrubDirOffline pins the offline integrity check behind `qpgc
// scrub`: a clean directory reports clean, a bit-flipped sealed segment is
// corrupt, and a torn final segment is torn (healable), not corrupt.
func TestScrubDirOffline(t *testing.T) {
	g := faultTopologies(39)["social"]
	mirror := g.Clone()
	dir := t.TempDir()
	s, err := Open(g.Clone(), &Options{
		Indexes: true, Dir: dir,
		CheckpointBatches: -1, CheckpointBytes: -1, WALSegmentBytes: 384,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20; i++ {
		batch := gen.RandomBatch(rng, mirror, 12, 0.5)
		mirror.Apply(batch)
		if _, err := s.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	clean, err := ScrubDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Corrupt) != 0 || clean.Torn != "" || clean.Checked < 3 {
		t.Fatalf("clean directory scrub: %+v", clean)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d (%v)", len(segs), err)
	}
	sort.Strings(segs)
	flipFileBit(t, segs[0], 50)
	tearWAL(t, dir)

	got, err := ScrubDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Corrupt) != 1 || got.Corrupt[0] != filepath.Base(segs[0]) {
		t.Fatalf("corrupt sealed segment not flagged: %+v", got)
	}
	if got.Torn != filepath.Base(segs[len(segs)-1]) {
		t.Fatalf("torn tail flagged as %q, want %q", got.Torn, filepath.Base(segs[len(segs)-1]))
	}
	if !strings.HasPrefix(got.Torn, "wal-") {
		t.Fatalf("torn name %q", got.Torn)
	}
}

// flipFileBit flips one bit at a byte offset (clamped into the file).
func flipFileBit(t *testing.T, path string, off int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("%s is empty", path)
	}
	if off >= len(data) {
		off = len(data) / 2
	}
	data[off] ^= 0x20
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
}
