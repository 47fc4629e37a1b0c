package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/replica"
	"repro/internal/store"
)

const (
	setupRepeats   = 9   // set-ups per run; setup_s is their median
	recoverRepeats = 5   // restarts per run; recover_s is their median
	readRounds     = 12  // slices per read kind, the kinds taking turns
	warmShare      = 0.1 // of a slice, run before its timing starts
	verifyStride   = 64  // every 64th pair of the read list is checked against the oracle
	// pointBlock is how many point reads make one latency sample: a read
	// can be shorter than a clock reading is exact, and a block of reads
	// mixes reachable and unreachable pairs the way the whole list does.
	pointBlock = 256
	// refEvery is how long a read slice trusts a speedometer reading.
	refEvery = 4 * time.Millisecond
	// followerPoll is replica.Options.PollInterval's default.
	followerPoll = 25 * time.Millisecond
	// minSamples is how many measured calls a slice makes at least, also
	// past its time: a short run still has a median to report.
	minSamples = 3

	// The recorder's tracks: one goroutine issues every operation, the
	// reads on one track and the writes on another; the traced pass's
	// layer replay has the third.
	readTrack, writeTrack, layerTrack, numTracks = 0, 1, 2, 3
)

// run is one benchmark run: a workload's inputs, the system under test,
// and what the phases measured. One goroutine drives it from start to end.
type run struct {
	w       workload
	seconds float64
	in      *inputs
	dir     string
	fs      *countFS
	sys     *system
	rec     *recorder // nil unless tracing
	speed   *speedometer
	pause   *rand.Rand // seeded; see writePhase

	attempted, failed int64
	notes             []string

	// What the phases measured.
	setup, recover      []sample // seconds, one per repeat
	ws                  writes
	point, batch, match *readOp
	sched               store.SchedStats
	disk                diskCounts // device traffic of the write phase
	heapMB              float64
	follower            replica.Status // repl only, read before the follower stops

	// Answers, checked against the oracle once timing is over: 0
	// unanswered, 1 false, 2 true; and per pattern a digest of the match.
	// The read phases run before the first write; the final ones are the
	// untimed reads after the last, on the read endpoint and, in repl,
	// also on the leader.
	pointGot, batchGot  []int8
	matchDigest         []uint64
	finalGot, leaderGot []int8
	finalDigest         []uint64
	recoverGot          []bool

	// The track and root span of the read call in progress.
	track *track
	root  int64
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.note("FAILED: "+format, args...)
}

// phase is what one closed-loop slice measured.
type phase struct {
	ops    int64    // operations completed in the timed window
	rate   float64  // operations per second
	lat    []sample // ns per operation
	traced bool     // spans were recorded
}

// readOp is one kind of read the run issues in a closed loop: the next
// call goes out when the previous one returned. A run cycles through its
// read kinds in readRounds rounds of short slices, so that a slow stretch
// of the host falls on every kind alike.
type readOp struct {
	name string
	// per is how many operations one latency sample is divided over: a
	// block of point reads yields a per-read latency.
	per int
	// do performs the iter-th call and returns the operations it carried;
	// after, when not nil, runs untimed after each measured call.
	do    func(iter int) (int, error)
	after func()
	// next is the next iteration: a slice carries on through the read
	// list where the last one stopped.
	next   int
	slices []phase
}

// summary is a read kind's slices reduced to what is reported.
type summary struct {
	p50, tail    float64 // ns at the reference speed, over the samples of every slice
	used         float64 // the tail percentile the sample count supports
	rate         float64 // operations per second as the clock saw them, the median slice's
	ops, samples int64
}

// summarize pools the samples of op's slices. Slices that recorded spans
// are left out: they carry the recorder's cost.
func (op *readOp) summarize(want float64) summary {
	var s summary
	var rates []float64
	var all []sample
	for _, p := range op.slices {
		if p.ops == 0 || p.traced {
			continue
		}
		rates = append(rates, p.rate)
		all = append(all, p.lat...)
		s.ops += p.ops
	}
	lat := atRefSpeed(all)
	s.samples = int64(lat.n())
	s.p50, s.rate = lat.p50(), median(rates)
	s.tail, s.used = lat.tail(want)
	return s
}

// slice runs op in a closed loop for d. Calls that start within the first
// warmShare of d are made but not measured. A traced run records spans in
// every other slice of a read kind only, so that the slices between them
// give the cost of recording.
func (r *run) slice(op *readOp, d time.Duration) {
	r.track = r.rec.track(readTrack)
	if len(op.slices)%2 == 1 {
		r.track = nil
	}
	p := phase{traced: r.track != nil}
	start := time.Now()
	warm, deadline := seconds(d.Seconds()*warmShare), start.Add(d)
	ref, refAt := r.speed.read(), time.Now()
	var busy time.Duration
	iter := op.next
	for ; ; iter++ {
		t0 := time.Now()
		if !t0.Before(deadline) && len(p.lat) >= minSamples {
			break
		}
		if t0.Sub(refAt) > refEvery {
			ref = r.speed.read()
			refAt = time.Now()
			t0 = refAt
		}
		measured := t0.Sub(start) >= warm || !t0.Before(deadline)
		r.root = 0
		if measured {
			r.root = r.track.begin(op.name, 0, int64(iter))
		}
		ops, err := op.do(iter)
		t1 := time.Now()
		r.track.end(r.root)
		if err != nil {
			r.attempted++
			r.fail("%s: %v", op.name, err)
			break
		}
		if !measured {
			continue
		}
		p.ops += int64(ops)
		busy += t1.Sub(t0)
		p.lat = append(p.lat, sample{float64(t1.Sub(t0)) / float64(op.per), ref})
		if op.after != nil {
			op.after()
		}
	}
	op.next = iter
	if p.ops > 0 {
		p.rate = float64(p.ops) / busy.Seconds()
	}
	r.attempted += p.ops
	op.slices = append(op.slices, p)
}

// child opens a span under the read call in progress; it records nothing
// during warm-up, when the call has no root span.
func (r *run) child(name string) int64 {
	if r.root == 0 {
		return 0
	}
	return r.track.begin(name, r.root, 0)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func answer(ok bool) int8 {
	if ok {
		return 2
	}
	return 1
}

// pointOp issues single reachability reads over the read list, timed in
// blocks of pointBlock.
func (r *run) pointOp(c conn) *readOp {
	n := len(r.in.pairs)
	return &readOp{name: "point", per: pointBlock, do: func(iter int) (int, error) {
		base := iter * pointBlock % n
		sp := r.child("conn.Reach")
		for j := base; j < base+pointBlock; j++ {
			ok, err := c.Reach(r.in.pairs[j][0], r.in.pairs[j][1], 0)
			if err != nil {
				return 0, err
			}
			r.pointGot[j] = answer(ok)
		}
		r.track.end(sp)
		return pointBlock, nil
	}}
}

// batchOp issues BatchReachable calls of w.batchPairs consecutive pairs
// of the read list.
func (r *run) batchOp(c conn) *readOp {
	k, n := r.w.batchPairs, len(r.in.pairs)
	us, vs := make([]graph.Node, k), make([]graph.Node, k)
	return &readOp{name: "batch", per: 1, do: func(iter int) (int, error) {
		base := iter * k % n
		for j := range us {
			us[j], vs[j] = r.in.pairs[base+j][0], r.in.pairs[base+j][1]
		}
		sp := r.child("conn.BatchReach")
		out, err := c.BatchReach(us, vs)
		r.track.end(sp)
		if err != nil {
			return 0, err
		}
		if len(out) != k {
			return 0, fmt.Errorf("batch of %d pairs got %d answers", k, len(out))
		}
		for j, ok := range out {
			r.batchGot[base+j] = answer(ok)
		}
		return k, nil
	}}
}

// matchOp runs the whole pattern list in one timed call, from a seeded
// offset: the patterns' costs differ by orders of magnitude, so a sample
// that holds them all repeats where a single Match does not. Every result
// is digested (untimed) and must equal the earlier results for the same
// pattern; the digests are checked against the oracle after timing.
func (r *run) matchOp(c conn) *readOp {
	n := len(r.in.pats)
	r.matchDigest = make([]uint64, n)
	last := make([]*pattern.Result, n)
	return &readOp{name: "match", per: n, do: func(iter int) (int, error) {
		sp := r.child("conn.Match")
		defer r.track.end(sp)
		for j := 0; j < n; j++ {
			pi := (r.in.patStart + j) % n
			res, err := c.Match(r.in.pats[pi])
			if err != nil {
				return 0, err
			}
			last[pi] = res
		}
		return n, nil
	}, after: func() {
		for pi, res := range last {
			d, seen := digest(res), &r.matchDigest[pi]
			if *seen != 0 && *seen != d {
				r.fail("match: pattern %d answered differently at one epoch", pi)
			}
			*seen = d
		}
	}}
}

// digest hashes a match result; it is never 0.
func digest(res *pattern.Result) uint64 {
	h := fnv.New64a()
	if res != nil && res.OK {
		var buf [4]byte
		for _, set := range res.Sets {
			for _, v := range set {
				buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
				h.Write(buf[:])
			}
			h.Write([]byte{0xff})
		}
	}
	return h.Sum64() | 1
}

// writes is what the write phase measured.
type writes struct {
	acked   int
	elapsed time.Duration
	write   []sample  // ns, submit → ack
	visible []sample  // ns, submit → a read that must see the batch returns
	lag     []float64 // repl only: leader epoch − follower epoch at each ack
}

// writePhase applies the batch list in a closed loop. After each ack it
// reads, on the read endpoint and pinned at the acked epoch, an edge the
// batch inserted; the next batch goes out when that read returned.
func (r *run) writePhase(wc, rc conn) writes {
	var ws writes
	tr := r.rec.track(writeTrack)
	start := time.Now()
	r.speed.read()
	for i, b := range r.in.batches {
		if r.sys.fol != nil {
			// Without this pause the loop falls in step with the follower's
			// poll timer, and a whole run's writes then either all overlap
			// the follower's apply of the same batch on the one processor or
			// all miss it: acks at 90 ms in one run, at 112 ms in the next.
			time.Sleep(time.Duration(r.pause.Int63n(int64(followerPoll))))
		}
		sent := time.Now()
		root := tr.begin("write", 0, int64(i))
		sp := tr.begin("conn.Apply", root, int64(i))
		epoch, err := wc.Apply(b)
		tr.end(sp)
		acked := time.Now()
		r.attempted++
		if err != nil {
			r.fail("apply batch %d: %v", i, err)
			tr.end(root)
			break
		}
		if epoch != uint64(i+1) {
			r.fail("batch %d acked at epoch %d", i, epoch)
		}
		if r.sys.fol != nil {
			ws.lag = append(ws.lag, float64(epoch)-float64(r.sys.fol.Epoch()))
		}
		e := r.in.visible[i]
		sp = tr.begin("conn.Reach.pinned", root, int64(i))
		ok, err := rc.Reach(e[0], e[1], epoch)
		tr.end(sp)
		seen := time.Now()
		tr.end(root)
		r.attempted++
		if err != nil {
			r.fail("pinned read after batch %d: %v", i, err)
		} else if ok != r.in.visWant[i] {
			r.fail("pinned read after batch %d: got %v", i, ok)
		}
		ws.acked++
		r.speed.read()
		ref := r.speed.during(sent, seen)
		ws.write = append(ws.write, sample{float64(acked.Sub(sent)), ref})
		ws.visible = append(ws.visible, sample{float64(seen.Sub(sent)), ref})
	}
	ws.elapsed = time.Since(start)
	return ws
}

// heapLiveMB is the live heap with every store open.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timed runs fn and returns its time in seconds with the speedometer's
// readings during it.
func (r *run) timed(fn func() error) (sample, error) {
	runtime.GC() // every repeat starts from the same collector state
	r.speed.read()
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	r.speed.read()
	return sample{t1.Sub(t0).Seconds(), r.speed.during(t0, t1)}, err
}

// setUp opens the system repeats times over fresh copies of the graph and
// keeps the last.
func (r *run) setUp(repeats int) error {
	for i := 0; i < repeats; i++ {
		if r.sys != nil {
			if err := r.sys.close(); err != nil {
				return err
			}
		}
		g := r.in.g0.Clone()
		dir := fmt.Sprintf("%s/sys%d", r.dir, i)
		r.fs = newCountFS()
		s, err := r.timed(func() (err error) {
			// One background checkpoint, walTail batches before the list ends.
			r.sys, err = openSystem(r.w, g, dir, max(1, len(r.in.batches)-walTail), r.fs)
			return err
		})
		if err != nil {
			return err
		}
		r.setup = append(r.setup, s)
		r.attempted++
	}
	return nil
}

// measure runs the phases on the system set up: read, write, restart.
// The timed reads come first, on the graph as opened, so that what they
// cost does not depend on which updates the seed drew; the structures as
// maintained through the write list are read untimed, for the oracle.
func (r *run) measure() error {
	// One client: it reads, writes and reads what it wrote.
	wc, err := r.sys.writer()
	if err != nil {
		return err
	}
	rc, err := r.sys.reader()
	if err != nil {
		return err
	}
	n := len(r.in.pairs)
	r.pointGot, r.batchGot = make([]int8, n), make([]int8, n)
	r.point, r.batch, r.match = r.pointOp(rc), r.batchOp(rc), r.matchOp(rc)
	for round := 0; round < readRounds; round++ {
		for _, ph := range []struct {
			op    *readOp
			share float64
		}{{r.point, r.w.point}, {r.batch, r.w.batch}, {r.match, r.w.match}} {
			r.slice(ph.op, seconds(r.seconds*ph.share/readRounds))
		}
	}
	r.sched = r.sys.st.SchedStats()

	runtime.GC()
	before := r.fs.counts()
	r.ws = r.writePhase(wc, rc)
	if r.sys.fol != nil {
		if err := r.sys.waitFollower(); err != nil {
			return err
		}
		r.leaderGot = r.finalReads(wc)
	}
	r.finalGot = r.finalReads(rc)
	r.finalDigest = make([]uint64, len(r.in.pats))
	for pi, p := range r.in.pats {
		res, err := rc.Match(p)
		r.attempted++
		if err != nil {
			r.fail("final match %d: %v", pi, err)
			continue
		}
		r.finalDigest[pi] = digest(res)
	}
	r.heapMB = heapLiveMB()
	if r.sys.fol != nil {
		r.follower = r.sys.fol.Status()
	}

	// Close before reading the device counts: Close waits for a checkpoint
	// still running in the background.
	if err := r.sys.close(); err != nil {
		return err
	}
	r.disk = r.fs.counts().sub(before)
	err = r.recoverPhase()
	r.speed.stop() // nothing is timed after this
	return err
}

// finalReads reads every verifyStride-th pair of the read list on c, once
// the write list is applied everywhere.
func (r *run) finalReads(c conn) []int8 {
	got := make([]int8, len(r.in.pairs))
	for i := 0; i < len(got); i += verifyStride {
		ok, err := c.Reach(r.in.pairs[i][0], r.in.pairs[i][1], 0)
		r.attempted++
		if err != nil {
			r.fail("final read %d: %v", i, err)
			continue
		}
		got[i] = answer(ok)
	}
	return got
}

// recoverPhase restarts the closed store recoverRepeats times: open its
// directory, answer one read, close. Each restart replays the same WAL
// tail, because recovery does not checkpoint.
func (r *run) recoverPhase() error {
	p := r.in.pairs[0]
	for i := 0; i < recoverRepeats; i++ {
		var st storeAPI
		s, err := r.timed(func() (err error) {
			if st, err = openStore(nil, r.sys.cfg); err != nil {
				return err
			}
			ok, err := st.Reach(p[0], p[1], 0)
			r.recoverGot = append(r.recoverGot, ok)
			return err
		})
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		r.recover = append(r.recover, s)
		r.attempted++
		if e := st.Epoch(); e != uint64(r.ws.acked) {
			r.fail("recovered at epoch %d after %d acked batches", e, r.ws.acked)
		}
		if err := st.Close(); err != nil {
			return fmt.Errorf("recover: %w", err)
		}
	}
	return nil
}

// verify checks the recorded answers against a BFS and MatchCSR oracle:
// the timed reads on the graph as opened, the final reads and the first
// read after each restart on the mirror graph, which holds every batch of
// the write list; a batch that was not acked has already been counted as
// failed.
func (r *run) verify() {
	checked, matched := 0, 0
	check := func(g *graph.Graph, reads [][]int8, restarts []bool, digests []uint64) {
		csr := g.Freeze()
		sc := queries.NewScratch(csr.NumNodes())
		oracle := func(i int) int8 {
			return answer(queries.ReachableCSR(csr, sc, r.in.pairs[i][0], r.in.pairs[i][1]))
		}
		for i := 0; i < len(r.in.pairs); i += verifyStride {
			want := oracle(i)
			for _, got := range reads {
				if got == nil || got[i] == 0 {
					continue
				}
				checked++
				if got[i] != want {
					r.fail("pair %d answered %d, oracle %d", i, got[i], want)
				}
			}
		}
		for _, ok := range restarts {
			checked++
			if answer(ok) != oracle(0) {
				r.fail("first read after restart disagrees with the oracle")
			}
		}
		for pi, seen := range digests {
			if seen == 0 {
				continue
			}
			matched++
			if seen != digest(pattern.MatchCSR(csr, r.in.pats[pi])) {
				r.fail("pattern %d disagrees with MatchCSR", pi)
			}
		}
	}
	check(r.in.g0, [][]int8{r.pointGot, r.batchGot}, nil, r.matchDigest)
	check(r.in.mirror, [][]int8{r.finalGot, r.leaderGot}, r.recoverGot, r.finalDigest)
	if checked == 0 || matched == 0 {
		r.fail("verification did not run: %d reads, %d matches checked", checked, matched)
	}
	r.note("verified %d sampled reads and %d pattern results against the oracle", checked, matched)
}

// endToEnd turns what the phases measured into the end-to-end metrics,
// and under client.* the rates and tails a single run cannot repeat
// within a bound on a shared host; those are reported with the layers.
// Every time is at the reference speed (see speed.go), except the
// client.*_per_s and client.*_qps rates, which are operations over the
// clock's time.
func (r *run) endToEnd() map[string]float64 {
	point, batch, match := r.point.summarize(0.99), r.batch.summarize(0.5), r.match.summarize(0.5)
	write, visible := atRefSpeed(r.ws.write), atRefSpeed(r.ws.visible)
	w90, wUsed := write.tail(0.9)
	v90, _ := visible.tail(0.9)
	setup, recover := atRefSpeed(r.setup), atRefSpeed(r.recover)

	refs := newLatencies(append([]float64(nil), r.speed.readings...))
	r.note("speedometer: %d readings, fastest %.1f us, median %.1f us, p90 %.1f us; the reference speed is %.1f us", refs.n(), refs.sorted[0]/1e3, refs.p50()/1e3, percentile(refs.sorted, 0.9)/1e3, refNominal/1e3)
	for _, op := range []*readOp{r.point, r.batch, r.match} {
		var p50s, slow []float64
		for _, p := range op.slices {
			var t, ref []float64
			for _, s := range p.lat {
				t, ref = append(t, s.t), append(ref, s.ref)
			}
			p50s, slow = append(p50s, median(t)), append(slow, median(ref)/refNominal)
		}
		r.note("%s slices: p50s as measured %.4g ns, host speed %.2f of the reference's time", op.name, p50s, slow)
	}
	r.note("point: %d reads in %d samples of %d, tail percentile %.4f", point.ops, point.samples, pointBlock, point.used)
	r.note("batch: %d pairs in %d calls of %d", batch.ops, batch.samples, r.w.batchPairs)
	r.note("match: %d passes over %d patterns", match.samples, len(r.in.pats))
	r.note("write: %d of %d batches acked, tail percentile %.4f", r.ws.acked, len(r.in.batches), wUsed)
	r.note("set-ups %.4g s, restarts %.4g s at the reference speed", setup.sorted, recover.sorted)
	r.note("disk: %d writes, %d bytes, %d syncs (%.1f ms) in the write phase", r.disk.Writes, r.disk.Bytes,
		r.disk.Syncs, r.disk.SyncTime.Seconds()*1e3)
	return map[string]float64{
		"setup_s":               setup.p50(),
		"point_p50_us":          point.p50 / 1e3,
		"batch_qps":             float64(r.w.batchPairs) / (batch.p50 / 1e9), // pairs a second at the median call
		"match_p50_ms":          match.p50 / 1e6,
		"write_p50_ms":          write.p50() / 1e6,
		"visible_p50_ms":        visible.p50() / 1e6,
		"recover_s":             recover.p50(),
		"disk_bytes_per_update": float64(r.disk.Bytes) / float64(max(1, r.ws.acked*batchSize)),
		"heap_live_mb":          r.heapMB,

		"client.point_qps":           point.rate,
		"client.point_p99_us":        point.tail / 1e3,
		"client.batch_qps":           batch.rate,
		"client.match_per_s":         match.rate,
		"client.write_batches_per_s": float64(r.ws.acked) / r.ws.elapsed.Seconds(),
		"client.write_p90_ms":        w90 / 1e6,
		"client.visible_p90_ms":      v90 / 1e6,
	}
}

// newRun draws the inputs of a run of secs seconds and makes its scratch
// directory under outDir; the caller removes r.dir.
func newRun(w workload, seed int64, secs float64, outDir string, rec *recorder) (*run, error) {
	// One processor. With two, the runtime's own second thread (collector
	// workers, wake-ups across cores) slows stretches of a run by 1.3 to
	// 2.5 times at random on a sandbox's few shared cores; with one, the
	// slices of a run repeat within a few per cent, and the speedometer
	// reads the core the work runs on.
	runtime.GOMAXPROCS(1)
	r := &run{w: w, seconds: secs, rec: rec, speed: newSpeedometer(), pause: rand.New(rand.NewSource(seed))}
	r.in = makeInputs(w.graph, seed, w.numWrites(secs))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	r.dir = dir
	r.speed.start()
	return r, nil
}

// done closes whatever is still open and removes the scratch directory.
func (r *run) done() {
	r.speed.stop()
	if r.sys != nil {
		r.sys.close()
	}
	os.RemoveAll(r.dir)
}

// execute performs one untraced run and returns its end-to-end metrics.
func execute(w workload, seed int64, secs float64, outDir string) (*run, map[string]float64, error) {
	r, err := newRun(w, seed, secs, outDir, nil)
	if err != nil {
		return nil, nil, err
	}
	defer r.done()
	if err := r.setUp(setupRepeats); err != nil {
		return r, nil, err
	}
	if err := r.measure(); err != nil {
		return r, nil, err
	}
	r.verify()
	return r, r.endToEnd(), nil
}
