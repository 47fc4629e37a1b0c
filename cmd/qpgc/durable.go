package main

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/faultfs"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/wal"
)

// openRecovered opens the durable directory for the recover/checkpoint/scrub
// subcommands; info is the directory as it was before the open.
func openRecovered(dir string) (s *store.Store, info store.DirInfo) {
	if !store.HasState(nil, dir) {
		fatal(fmt.Errorf("%s holds no durable store state (no MANIFEST)", dir))
	}
	info, err := store.Inspect(dir)
	if err != nil {
		fatal(err)
	}
	o := store.DefaultOptions()
	o.Dir = dir
	if s, err = store.Open(nil, &o); err != nil {
		fatal(err)
	}
	return s, info
}

// cmdCheckpoint forces a synchronous checkpoint of a durable directory:
// the WAL tail is folded into a fresh snapshot file and truncated, so the
// next open is a pure snapshot load.
func cmdCheckpoint(args []string) {
	fs := flag.NewFlagSet("checkpoint", flag.ExitOnError)
	data := fs.String("data", "", "durable store directory")
	fs.Parse(args)
	if *data == "" {
		fatal(fmt.Errorf("checkpoint: -data is required"))
	}
	r, info := openRecovered(*data)
	defer r.Close()
	fmt.Printf("recovered store at epoch %d (checkpoint was epoch %d, WAL %d bytes)\n",
		r.Epoch(), info.Epoch, info.WALBytes)
	if err := r.Checkpoint(); err != nil {
		fatal(err)
	}
	after, err := store.Inspect(*data)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("checkpointed: %s (epoch %d, %d bytes; WAL now %d bytes in %d segment(s))\n",
		after.Snapshot, after.Epoch, after.SnapshotBytes, after.WALBytes, after.WALSegments)
}

// cmdRecover opens a durable directory, reports what was recovered and how
// long the warm start took, and with -verify cross-checks sampled
// reachability answers between the compressed path and the uncompressed
// baseline on the recovered snapshot.
func cmdRecover(args []string) {
	fs := flag.NewFlagSet("recover", flag.ExitOnError)
	data := fs.String("data", "", "durable store directory")
	verify := fs.Bool("verify", false, "cross-check sampled answers between Gr and G on the recovered snapshot")
	pairs := fs.Int("pairs", 500, "sampled query pairs for -verify")
	seed := fs.Int64("seed", 1, "sampling seed")
	fs.Parse(args)
	if *data == "" {
		fatal(fmt.Errorf("recover: -data is required"))
	}
	if !store.HasState(nil, *data) {
		fatal(fmt.Errorf("%s holds no durable store state (no MANIFEST)", *data))
	}
	info, err := store.Inspect(*data)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("manifest: checkpoint %s (epoch %d, %d bytes), WAL %d bytes in %d segment(s)\n",
		info.Snapshot, info.Epoch, info.SnapshotBytes, info.WALBytes, info.WALSegments)
	for _, q := range info.Quarantined {
		fmt.Printf("quarantined (corrupt, preserved by a prior scrub): %s\n", q)
	}
	start := time.Now()
	r, _ := openRecovered(*data)
	defer r.Close()
	loadTime := time.Since(start)
	epoch, nodes := r.Epoch(), r.NumNodes()
	fmt.Printf("recovered in %v: epoch %d (%d batches replayed from the WAL tail)\n",
		loadTime.Round(time.Microsecond), epoch, epoch-info.Epoch)
	st := r.Stats()
	fmt.Printf("state: epoch %d  |V|=%d |E|=%d  Gr-reach %d classes (ratio %.2f%%)  Gr-pattern %d classes (ratio %.2f%%)\n",
		st.Epoch, st.Nodes, st.Edges, st.ReachClasses, 100*st.ReachRatio, st.PatternClasses, 100*st.PatternRatio)
	if !*verify {
		return
	}
	rng := rand.New(rand.NewSource(*seed))
	mismatches := 0
	for i := 0; i < *pairs; i++ {
		u := graph.Node(rng.Intn(nodes))
		v := graph.Node(rng.Intn(nodes))
		// Nothing writes to the recovered store, so both answers are on the
		// one snapshot it holds.
		got, want := r.Reachable(u, v), r.ReachableOnG(u, v)
		if got != want {
			mismatches++
			fmt.Printf("MISMATCH QR(%d,%d): compressed %v, baseline %v\n", u, v, got, want)
		}
	}
	if mismatches > 0 {
		fatal(fmt.Errorf("verify: %d of %d sampled answers diverged on the recovered snapshot", mismatches, *pairs))
	}
	fmt.Printf("verify: %d sampled answers agree between the compressed and baseline paths\n", *pairs)
}

// cmdScrub verifies a durable directory's integrity. The default is an
// offline walk: every snapshot and WAL segment is re-read and checked
// against its stored CRC-32C sums without opening the store. A torn tail —
// damage at the end of the newest segment with no intact record after it,
// or a zeroed sector before the next one, all a crash can leave — is
// healable and reported apart. Any other damage,
// in a sealed segment or in the newest one ahead of intact records, is
// corruption: acked batches are lost and the store refuses to open. With
// -repair corrupt WAL segments are quarantined as *.quarantine — together
// with every later segment, since replay must stop at the first hole — the
// surviving prefix is recovered and folded into a fresh checkpoint, and the
// lost suffix is reported explicitly. A corrupt current checkpoint is
// beyond offline repair (the WAL before it was already truncated): the
// in-memory copy the live scrubber repairs from no longer exists, so the
// command refuses and points at a replica or backup.
func cmdScrub(args []string) {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	data := fs.String("data", "", "durable store directory")
	repair := fs.Bool("repair", false, "quarantine corrupt files, recover what survives, rewrite a clean checkpoint")
	fs.Parse(args)
	if *data == "" {
		fatal(fmt.Errorf("scrub: -data is required"))
	}
	if !store.HasState(nil, *data) {
		fatal(fmt.Errorf("%s holds no durable store state (no MANIFEST)", *data))
	}
	rep, err := store.ScrubDir(*data)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("checked %d file(s), %d bytes\n", rep.Checked, rep.Bytes)
	if rep.Torn != "" {
		fmt.Printf("torn WAL tail in %s: healable — the next open replays up to the tear and truncates it\n", rep.Torn)
	}
	for _, c := range rep.Corrupt {
		fmt.Printf("CORRUPT: %s\n", c)
	}
	if !*repair {
		if len(rep.Corrupt) > 0 {
			fatal(fmt.Errorf("scrub: %d corrupt file(s); run qpgc scrub -repair -data %s to quarantine and re-checkpoint", len(rep.Corrupt), *data))
		}
		fmt.Println("clean: every checksum verified")
		return
	}
	if len(rep.Corrupt) > 0 {
		info, err := store.Inspect(*data)
		if err != nil {
			fatal(err)
		}
		if slices.Contains(rep.Corrupt, info.Snapshot) {
			fatal(fmt.Errorf("the current checkpoint %s is corrupt and the WAL behind it was already truncated: no local copy of that state remains — restore %s from a replica or backup (the live scrubber, qpgc serve -scrub, repairs this case from memory before it is fatal)", info.Snapshot, *data))
		}
		segs, err := wal.QuarantineFrom(faultfs.Disk, *data, rep.Corrupt)
		if err != nil {
			fatal(err)
		}
		for _, seg := range segs {
			fmt.Printf("quarantined: %s (preserved as %s.quarantine)\n", seg.Name, seg.Name)
		}
	}
	r, _ := openRecovered(*data)
	defer r.Close()
	epoch := r.Epoch()
	if err := r.Checkpoint(); err != nil {
		fatal(err)
	}
	if len(rep.Corrupt) == 0 {
		fmt.Printf("clean: nothing to quarantine; state re-checkpointed at epoch %d\n", epoch)
		return
	}
	fmt.Printf("repaired: recovered the surviving prefix and checkpointed it at epoch %d\n", epoch)
	fmt.Printf("batches after epoch %d, if any were acked, are lost with the quarantined segments\n", epoch)
}
