package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bisim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hop2"
	"repro/internal/incbisim"
	"repro/internal/increach"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/reach"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/snapfile"
	"repro/internal/store"
	"repro/internal/wal"
)

const (
	// traceScale shortens the lifecycle of the traced pass.
	traceScale = 0.3
	// spareBatches follow the replayed ones in the layers' write list: four
	// for the pinned reads behind a server, four for the WAL tail that a
	// restart replays and a follower catches up on.
	spareBatches = 8
	growthFactor = 4 // |G| multiplier for the *_growth metrics
	layerReads   = 1 << 14
)

// layers times each layer alone, by public calls on the workload's own
// graph, write list, read list and patterns, each call under a span.
type layers struct {
	r  *run // the traced lifecycle: workload, scratch directory, what it measured
	in *inputs
	k  int // batches replayed through each layer
	tr *track
	m  map[string]float64

	seed   int64
	window time.Duration // length of one fixed-duration read loop
}

// executeTraced is the traced pass. It runs the lifecycle once at
// traceScale, recording spans, and then replays the inputs through every
// layer on the workload's path. It returns the per-layer metrics and
// writes the spans to outDir.
func executeTraced(w workload, seed int64, secs float64, outDir string) (*run, map[string]float64, error) {
	rec := newRecorder(numTracks)
	r, err := newRun(w, seed, secs*traceScale, outDir, rec)
	if err != nil {
		return nil, nil, err
	}
	defer r.done()
	if err := r.setUp(1); err != nil {
		return r, nil, err
	}
	if err := r.measure(); err != nil {
		return r, nil, err
	}
	r.verify()
	m := make(map[string]float64)
	for name, v := range r.endToEnd() {
		if strings.HasPrefix(name, "client.") {
			m[name] = v
		}
	}
	// Slices are compared in units of the reference kernel's time around
	// them, so that a slow stretch of the host is not read as overhead.
	var with, without []float64
	for _, p := range r.point.slices {
		var rel []float64
		for _, s := range p.lat {
			rel = append(rel, s.t/s.ref)
		}
		if p.traced {
			with = append(with, median(rel))
		} else {
			without = append(without, median(rel))
		}
	}
	if len(with) > 0 && len(without) > 0 {
		m["trace.overhead_pct"] = (median(with)/median(without) - 1) * 100
	}
	spans, _ := rec.all()
	m["trace.unattributed_share"] = unattributedShare(spans)

	l := &layers{r: r, k: w.replay, tr: rec.track(layerTrack), m: m, seed: seed, window: seconds(secs / 60)}
	l.in = makeInputs(w.graph, seed, l.k+spareBatches)
	l.fromLifecycle()
	steps := []func() error{l.graphLayer, l.compressLayers, l.maintainers, l.memStore, l.durableStore, l.walLayer, l.growth}
	if w.sharded {
		steps = append(steps, l.shardedStore)
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return r, nil, err
		}
	}
	if err := rec.flush(outDir, w.name, seed); err != nil {
		return r, nil, err
	}
	return r, m, nil
}

// ms times fn under a span and returns milliseconds.
func (l *layers) ms(name string, fn func()) float64 {
	return l.tr.timed(name, 0, 0, fn).Seconds() * 1e3
}

// medianMs is the median of reps timings of fn.
func (l *layers) medianMs(name string, reps int, fn func()) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		xs = append(xs, l.ms(name, fn))
	}
	return median(xs)
}

// nsPerOp times n calls of fn(i) under one span.
func (l *layers) nsPerOp(name string, n int, fn func(i int)) float64 {
	d := l.tr.timed(name, 0, 0, func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	})
	return float64(d) / float64(n)
}

// fromLifecycle takes the per-layer numbers the traced lifecycle itself
// observed: scheduler and leaf counters, replication lag, follower health.
func (l *layers) fromLifecycle() {
	r := l.r
	l.m["store.sched_mean_wave"] = r.sched.MeanWaveSize
	l.m["store.sched_cluster_hit"] = r.sched.ClusterHitRate
	l.m["store.hubcache_hit"] = r.sched.HubCacheHitRate
	if r.sched.BatchLanes > 0 {
		l.m["hop2.peeled_share"] = float64(r.sched.Hop2Peeled) / float64(r.sched.BatchLanes)
	}
	if len(r.ws.lag) > 0 {
		lag := newLatencies(append([]float64(nil), r.ws.lag...))
		l.m["replica.lag_epochs_p50"] = lag.p50()
		l.m["replica.lag_epochs_max"] = lag.sorted[lag.n()-1]
		l.m["replica.resyncs"] = float64(r.follower.Resyncs)
		l.m["replica.quarantines"] = float64(r.follower.Quarantines)
	}
}

func (l *layers) graphLayer() error {
	var csr *graph.CSR
	l.m["graph.freeze_ms"] = l.medianMs("graph.Freeze", 3, func() { csr = l.in.g0.Freeze() })
	l.m["graph.reorder_ms"] = l.medianMs("graph.Reorder", 3, func() { graph.Reorder(csr) })
	l.m["graph.scc_ms"] = l.medianMs("graph.TarjanCSR", 3, func() { graph.TarjanCSR(csr) })
	return nil
}

func (l *layers) compressLayers() error {
	var rc *reach.Compressed
	l.m["reach.compress_ms"] = l.medianMs("reach.Compress", 3, func() { rc = reach.Compress(l.in.g0) })
	l.m["reach.rc_ratio"] = rc.Ratio(l.in.g0)
	var bc *bisim.Compressed
	l.m["bisim.compress_ms"] = l.medianMs("bisim.Compress", 3, func() { bc = bisim.Compress(l.in.g0) })
	l.m["bisim.pc_ratio"] = bc.Ratio(l.in.g0)
	return nil
}

// maintainers replays the first k batches through each incremental
// maintainer alone.
func (l *layers) maintainers() error {
	rm := increach.New(l.in.g0.Clone())
	var rt []float64
	var aff, eff, redundant int
	for _, b := range l.in.batches[:l.k] {
		var st increach.Stats
		rt = append(rt, l.ms("increach.Apply", func() { st = rm.Apply(b) }))
		aff += st.AffComponents
		eff += st.EffectiveUpdates
		redundant += st.RedundantUpdates
	}
	var total float64
	for _, t := range rt {
		total += t
	}
	l.m["increach.apply_ms"] = median(rt)
	l.m["increach.aff_per_batch"] = float64(aff) / float64(l.k)
	l.m["increach.us_per_aff"] = total * 1e3 / float64(max(1, aff))
	l.m["increach.redundant_share"] = float64(redundant) / float64(max(1, eff))

	bm := incbisim.New(l.in.g0.Clone())
	var bt []float64
	var dirty, changed int
	for _, b := range l.in.batches[:l.k] {
		var st incbisim.Stats
		bt = append(bt, l.ms("incbisim.Apply", func() { st = bm.Apply(b) }))
		dirty += st.DirtyNodes
		changed += st.ChangedBlocks
	}
	l.m["incbisim.apply_ms"] = median(bt)
	l.m["incbisim.dirty_per_batch"] = float64(dirty) / float64(l.k)
	l.m["incbisim.changed_blocks_per_batch"] = float64(changed) / float64(l.k)
	return nil
}

// applyAll applies batches one by one and returns each call's milliseconds.
func (l *layers) applyAll(name string, st storeAPI, batches [][]graph.Update) ([]float64, error) {
	var ts []float64
	for _, b := range batches {
		var err error
		ts = append(ts, l.ms(name, func() { _, err = st.Apply(b) }))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return ts, nil
}

// readLoop drives fn from one goroutine for d and returns calls per second.
func readLoop(d time.Duration, fn func(i int)) float64 {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < d {
		for j := 0; j < 16; j++ {
			fn(n)
			n++
		}
	}
	return float64(n) / time.Since(t0).Seconds()
}

// memStore opens the monolithic store in memory, replays k batches, and
// times its read paths and the snapshot's own views: the quotient CSRs,
// their 2-hop index, the pattern quotient. On a workload that goes over
// loopback it also times what the wire adds.
func (l *layers) memStore() error {
	var st storeAPI
	var err error
	l.m["store.open_ms"] = l.ms("store.Open", func() { st, err = openStore(l.in.g0.Clone(), storeConfig{}) })
	if err != nil {
		return err
	}
	defer st.Close()
	ts, err := l.applyAll("store.ApplyBatch.mem", st, l.in.batches[:l.k])
	if err != nil {
		return err
	}
	mem := median(ts)
	l.m["store.apply_mem_ms"] = mem
	l.m["store.publish_self_ms"] = mem - l.m["increach.apply_ms"] - l.m["incbisim.apply_ms"]

	mono := st.(monoStore).Store
	pairs := l.in.pairs
	l.m["store.point_ns"] = l.nsPerOp("store.Reachable", 4*layerReads, func(i int) { mono.Reachable(pairs[i%layerReads][0], pairs[i%layerReads][1]) })
	onG := l.nsPerOp("store.ReachableOnG", layerReads/8, func(i int) { mono.ReachableOnG(pairs[i][0], pairs[i][1]) })
	l.m["store.gr_speedup"] = onG / l.m["store.point_ns"]

	// Batch reads: one caller, then one per core.
	k := l.r.w.batchPairs
	us, vs := make([]graph.Node, k), make([]graph.Node, k)
	fill := func(us, vs []graph.Node, i int) {
		base := i * k % (numPairs - k)
		for j := range us {
			us[j], vs[j] = pairs[base+j][0], pairs[base+j][1]
		}
	}
	var bt []float64
	for i := 0; i < 200; i++ {
		fill(us, vs, i)
		bt = append(bt, l.ms("store.BatchReachable", func() { mono.BatchReachable(us, vs) }))
	}
	batchCallUs := median(bt) * 1e3
	l.allCores(mono, func() {
		single := l.parallelBatch(mono, 1)
		l.m["store.batch_scaling"] = l.parallelBatch(mono, runtime.NumCPU()) / single
	})

	// The layers under the store, on this epoch's own views.
	sn := mono.Snapshot()
	cu, cv := make([]graph.Node, layerReads), make([]graph.Node, layerReads)
	for i := range cu {
		cu[i], cv[i] = sn.Reach.Compressed.Rewrite(pairs[i][0], pairs[i][1])
	}
	var idx *hop2.Index
	l.m["hop2.build_gr_ms"] = l.medianMs("hop2.BuildCSR", 3, func() { idx = hop2.BuildCSR(sn.Reach.Gr) })
	l.m["hop2.entries"] = float64(idx.Entries())
	l.m["hop2.mem_mb"] = float64(idx.MemoryBytes()) / (1 << 20)
	l.m["hop2.probe_ns"] = l.nsPerOp("hop2.Reachable", 4*layerReads, func(i int) { idx.Reachable(cu[i%layerReads], cv[i%layerReads]) })

	sc := queries.NewScratch(sn.G.NumNodes())
	l.m["queries.bibfs_gr_ns"] = l.nsPerOp("queries.ReachableBiCSR.Gr", layerReads, func(i int) { queries.ReachableBiCSR(sn.Reach.Gr, sc, cu[i], cv[i]) })
	l.m["queries.bibfs_g_ns"] = l.nsPerOp("queries.ReachableBiCSR.G", layerReads/8, func(i int) { queries.ReachableBiCSR(sn.G, sc, pairs[i][0], pairs[i][1]) })
	bs := queries.NewBatchScratch(sn.Reach.Gr.NumNodes())
	out := make([]bool, 64)
	l.m["queries.batch_gr_ns_per_pair"] = l.nsPerOp("queries.BatchReachable.Gr", layerReads/64, func(i int) {
		queries.BatchReachable(sn.Reach.Gr, bs, cu[i*64:i*64+64], cv[i*64:i*64+64], out)
	}) / 64

	var onGr, expand, direct []float64
	for _, p := range l.in.pats {
		var res *pattern.Result
		onGr = append(onGr, l.ms("pattern.MatchCSR.Gr", func() { res = pattern.MatchCSR(sn.Pattern.Gr, p) }))
		expand = append(expand, l.ms("pattern.Expand", func() { pattern.Expand(res, sn.Pattern.Compressed) }))
		direct = append(direct, l.ms("pattern.MatchCSR.G", func() { pattern.MatchCSR(sn.G, p) }))
	}
	var sumGr, sumG float64
	for i := range onGr {
		sumGr += onGr[i] + expand[i]
		sumG += direct[i]
	}
	l.m["pattern.match_gr_ms"] = median(onGr)
	l.m["pattern.expand_ms"] = median(expand)
	l.m["pattern.match_g_ms"] = median(direct)
	l.m["pattern.gr_speedup"] = sumG / sumGr

	if err := l.obsOverhead(mono, fill); err != nil {
		return err
	}
	if l.r.w.transport != inproc {
		return l.wireCosts(st, batchCallUs)
	}
	return nil
}

// parallelRate runs fn from n goroutines for d and returns their calls per
// second in total.
func parallelRate(n int, d time.Duration, fn func(worker, i int)) float64 {
	rates := make(chan float64, n)
	for w := 0; w < n; w++ {
		go func(w int) { rates <- readLoop(d, func(i int) { fn(w, i) }) }(w)
	}
	var total float64
	for w := 0; w < n; w++ {
		total += <-rates
	}
	return total
}

// allCores runs fn with a processor and a scheduler worker of st's per
// core of the machine. Everything else runs on one (see main): only the
// two *_scaling metrics ask what a second core adds.
func (l *layers) allCores(st *store.Store, fn func()) {
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	st.SetSchedWorkers(runtime.NumCPU())
	defer func() {
		st.SetSchedWorkers(prev)
		runtime.GOMAXPROCS(prev)
	}()
	fn()
}

// parallelBatch returns pairs per second of n callers of BatchReachable.
func (l *layers) parallelBatch(st *store.Store, n int) float64 {
	k := l.r.w.batchPairs
	bufs := make([][2][]graph.Node, n)
	for i := range bufs {
		bufs[i] = [2][]graph.Node{make([]graph.Node, k), make([]graph.Node, k)}
	}
	return float64(k) * parallelRate(n, l.window, func(w, i int) {
		us, vs := bufs[w][0], bufs[w][1]
		base := (w*7919 + i) * k % (numPairs - k)
		for j := range us {
			us[j], vs[j] = l.in.pairs[base+j][0], l.in.pairs[base+j][1]
		}
		st.BatchReachable(us, vs)
	})
}

// obsOverhead compares batch reads on a store with a metrics registry
// against the bare one, in alternating windows.
func (l *layers) obsOverhead(bare *store.Store, fill func(us, vs []graph.Node, i int)) error {
	g := l.in.g0.Clone()
	g.Apply(flatten(l.in.batches[:l.k]))
	inst, err := store.Open(g, &store.Options{Indexes: true, Obs: obs.NewRegistry()})
	if err != nil {
		return err
	}
	defer inst.Close()
	k := l.r.w.batchPairs
	us, vs := make([]graph.Node, k), make([]graph.Node, k)
	var with, without []float64
	for round := 0; round < 4; round++ {
		for _, side := range []struct {
			st  *store.Store
			out *[]float64
		}{{bare, &without}, {inst, &with}} {
			*side.out = append(*side.out, readLoop(l.window/2, func(i int) {
				fill(us, vs, i)
				side.st.BatchReachable(us, vs)
			}))
		}
	}
	l.m["obs.overhead_pct"] = (median(without)/median(with) - 1) * 100
	return nil
}

func flatten(batches [][]graph.Update) []graph.Update {
	var out []graph.Update
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

// wireCosts puts a loopback server in front of st and times what the wire
// adds to a ping, a point read, a batch read and a pinned read after a
// write, and how reads scale with connections.
func (l *layers) wireCosts(st storeAPI, batchCallUs float64) error {
	srv, err := server.Start("127.0.0.1:0", server.Options{Backend: server.NewStoreBackend(st.(monoStore).Store)})
	if err != nil {
		return err
	}
	defer srv.Close()
	var cs []*server.Client
	defer func() {
		for _, c := range cs {
			c.Close()
		}
	}()
	for i := 0; i < runtime.NumCPU(); i++ {
		c, err := server.Dial(srv.Addr())
		if err != nil {
			return err
		}
		cs = append(cs, c)
	}
	c := cs[0]
	var pings []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if _, err := c.Ping(); err != nil {
			return err
		}
		pings = append(pings, float64(time.Since(t0)))
	}
	l.m["server.ping_us"] = median(pings) / 1e3
	l.m["server.point_overhead_us"] = l.r.point.summarize(0.99).p50/1e3 - l.m["store.point_ns"]/1e3
	l.m["server.batch_overhead_us"] = l.r.batch.summarize(0.5).p50/1e3 - batchCallUs

	var failed atomic.Bool
	rate := func(n int) float64 {
		return parallelRate(n, l.window, func(w, i int) {
			p := l.in.pairs[(w*7919+i)%numPairs]
			if _, _, err := cs[w].Reachable(p[0], p[1], 0, false); err != nil {
				failed.Store(true)
			}
		})
	}
	l.allCores(st.(monoStore).Store, func() {
		one := rate(1)
		l.m["server.conn_scaling"] = rate(runtime.NumCPU()) / one
	})
	if failed.Load() {
		return errors.New("layers: a read through the server failed")
	}

	var ryw []float64
	for _, b := range l.in.batches[l.k : l.k+4] {
		epoch, err := c.Apply(b)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, _, err := c.Reachable(b[0].From, b[0].To, epoch, false); err != nil {
			return err
		}
		ryw = append(ryw, float64(time.Since(t0)))
	}
	l.m["server.ryw_leader_us"] = median(ryw) / 1e3
	return l.applyOverhead()
}

// applyOverhead times what the wire adds to an apply. That is far below
// the spread of apply times on the workload's graph, so it is measured on
// a graph small enough for it to show: two stores over the same small
// graph take the same batches, one by call, one through a server.
func (l *layers) applyOverhead() error {
	d := gen.Dataset{Name: "small", V: 256, E: 1024, Labels: 4, Kind: gen.KindRandom}
	direct, err := store.Open(d.Build(graphSeed), &store.Options{Indexes: true})
	if err != nil {
		return err
	}
	defer direct.Close()
	served, err := store.Open(d.Build(graphSeed), &store.Options{Indexes: true})
	if err != nil {
		return err
	}
	defer served.Close()
	srv, err := server.Start("127.0.0.1:0", server.Options{Backend: server.NewStoreBackend(served)})
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := server.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer c.Close()
	mirror, rng := d.Build(graphSeed), rand.New(rand.NewSource(graphSeed))
	var extra []float64
	for i := 0; i < 64; i++ {
		b := gen.RandomBatch(rng, mirror, batchSize, insertShare)
		mirror.Apply(b)
		byCall := func() (err error) { _, err = direct.ApplyBatch(b); return }
		byWire := func() (err error) { _, err = c.Apply(b); return }
		first, second := byCall, byWire
		if i%2 == 1 { // whichever goes second finds the batch in cache
			first, second = byWire, byCall
		}
		t0 := time.Now()
		if err := first(); err != nil {
			return err
		}
		t1 := time.Now()
		if err := second(); err != nil {
			return err
		}
		d := (time.Since(t1) - t1.Sub(t0)).Seconds() * 1e3 // second − first
		if i%2 == 1 {
			d = -d
		}
		extra = append(extra, d)
	}
	l.m["server.apply_overhead_ms"] = median(extra)
	return nil
}

// durableStore opens the workload's own store kind on disk through a
// counting FS and replays k batches; then it times a checkpoint, a restart
// from the checkpoint alone, a restart that also replays a four-batch WAL
// tail, and the snapshot codec on the checkpoint file. On repl a follower
// bootstraps from the store before the checkpoint and, restarted after the
// tail was written, catches up on it.
func (l *layers) durableStore() error {
	fs := newCountFS()
	cfg := storeConfig{sharded: l.r.w.sharded, dir: filepath.Join(l.r.dir, "layer-store"), ckptEvery: -1, fs: fs}
	st, err := openStore(l.in.g0.Clone(), cfg)
	if err != nil {
		return err
	}
	defer func() { st.Close() }()
	before := fs.counts()
	t0 := time.Now()
	_, err = l.applyAll("store.ApplyBatch.durable", st, l.in.batches[:l.k])
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	d := fs.counts().sub(before)
	l.m["disk.writes_per_batch"] = float64(d.Writes) / float64(l.k)
	l.m["disk.bytes_per_batch"] = float64(d.Bytes) / float64(l.k)
	l.m["disk.syncs_per_batch"] = float64(d.Syncs) / float64(l.k)
	l.m["disk.sync_share"] = d.SyncTime.Seconds() / elapsed.Seconds()
	l.m["store.durable_self_ms"] = (d.WriteTime + d.SyncTime).Seconds() * 1e3 / float64(l.k)

	l.m["store.checkpoint_ms"] = l.ms("store.Checkpoint", func() { err = st.Checkpoint() })
	if err != nil {
		return err
	}
	follower := replica.Options{Dir: filepath.Join(l.r.dir, "layer-follower")}
	if l.r.w.transport == repl {
		start, catchUp, err := l.follow(st, cfg.dir, follower)
		if err != nil {
			return err
		}
		l.m["replica.bootstrap_ms"] = start + catchUp
	}
	restart := func(name string) (float64, error) {
		if err := st.Close(); err != nil {
			return 0, err
		}
		var err error
		ms := l.ms(name, func() {
			if st, err = openStore(nil, cfg); err == nil {
				st.Reach(l.in.pairs[0][0], l.in.pairs[0][1], 0)
			}
		})
		return ms, err
	}
	load, err := restart("store.Open.snapshot")
	if err != nil {
		return err
	}
	l.m["store.recover_snapshot_ms"] = load
	if err := l.snapshotCodec(cfg.dir); err != nil {
		return err
	}
	tail := l.in.batches[l.k : l.k+4]
	if _, err := l.applyAll("store.ApplyBatch.durable", st, tail); err != nil {
		return err
	}
	if l.r.w.transport == repl {
		// The follower was down while the tail was written.
		_, catchUp, err := l.follow(st, cfg.dir, follower)
		if err != nil {
			return err
		}
		l.m["replica.catchup_ms_per_batch"] = catchUp / float64(len(tail))
	}
	replay, err := restart("store.Open.replay")
	if err != nil {
		return err
	}
	l.m["store.recover_replay_ms_per_batch"] = (replay - load) / float64(len(tail))
	return nil
}

// follow serves st as a replication source and starts a follower over
// opts.Dir, bootstrapping it from a snapshot if the directory is empty. It
// returns the milliseconds replica.Start took and the milliseconds from
// then until the follower had published st's epoch, and stops the follower
// and the server again.
func (l *layers) follow(st storeAPI, leaderDir string, opts replica.Options) (start, catchUp float64, err error) {
	srv, err := server.Start("127.0.0.1:0", server.Options{Backend: server.NewStoreBackend(st.(monoStore).Store), ReplDir: leaderDir})
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	opts.Leader = srv.Addr()
	var f *replica.Follower
	start = l.ms("replica.Start", func() { f, err = replica.Start(opts) })
	if err != nil {
		return 0, 0, err
	}
	catchUp = l.ms("replica.catchUp", func() { err = caughtUp(f, st) })
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return start, catchUp, err
}

// snapshotCodec loads the directory's checkpoint file, encodes it again
// and writes it out.
func (l *layers) snapshotCodec(dir string) error {
	info, err := store.Inspect(dir)
	if err != nil {
		return err
	}
	path, copyTo := filepath.Join(dir, info.Snapshot), filepath.Join(l.r.dir, "layer-snapshot.qps")
	var image []byte
	if l.r.w.sharded {
		var p *snapfile.ShardedParts
		l.m["snapfile.load_ms"] = l.medianMs("snapfile.LoadSharded", 3, func() { p, err = snapfile.LoadSharded(path) })
		if err != nil {
			return err
		}
		l.m["snapfile.encode_ms"] = l.medianMs("snapfile.EncodeSharded", 3, func() { image = snapfile.EncodeSharded(p) })
		l.m["snapfile.write_ms"] = l.medianMs("snapfile.WriteSharded", 3, func() { err = snapfile.WriteSharded(copyTo, p) })
	} else {
		var p *snapfile.StoreParts
		l.m["snapfile.load_ms"] = l.medianMs("snapfile.LoadStore", 3, func() { p, err = snapfile.LoadStore(path) })
		if err != nil {
			return err
		}
		l.m["snapfile.encode_ms"] = l.medianMs("snapfile.EncodeStore", 3, func() { image = snapfile.EncodeStore(p) })
		l.m["snapfile.write_ms"] = l.medianMs("snapfile.WriteStore", 3, func() { err = snapfile.WriteStore(copyTo, p) })
	}
	if err != nil {
		return err
	}
	l.m["snapfile.bytes_per_edge"] = float64(len(image)) / float64(l.in.g0.NumEdges())
	return nil
}

// walLayer appends the encoded batches to a log of its own, one commit per
// batch as the store does, then reopens it and replays.
func (l *layers) walLayer() error {
	fs := newCountFS()
	dir := filepath.Join(l.r.dir, "layer-wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	opts := &wal.Options{Sync: wal.SyncAlways, FS: fs}
	log, err := wal.Open(dir, 1, opts)
	if err != nil {
		return err
	}
	var appends, syncs []float64
	for i, b := range l.in.batches[:l.k] {
		payload := store.EncodeBatch(nil, b)
		appends = append(appends, l.ms("wal.Append", func() { err = log.Append(uint64(i+1), payload) }))
		if err != nil {
			return err
		}
		syncs = append(syncs, l.ms("wal.Commit", func() { err = log.Commit() }))
		if err != nil {
			return err
		}
	}
	l.m["wal.append_us"] = median(appends) * 1e3
	l.m["wal.sync_us"] = median(syncs) * 1e3
	l.m["wal.bytes_per_update"] = float64(fs.counts().Bytes) / float64(l.k*batchSize)
	if err := log.Close(); err != nil {
		return err
	}
	if log, err = wal.Open(dir, uint64(l.k+1), opts); err != nil {
		return err
	}
	defer log.Close()
	records := 0
	ms := l.ms("wal.Replay", func() {
		err = log.Replay(1, func(uint64, []byte) error { records++; return nil })
	})
	if err != nil {
		return err
	}
	l.m["wal.replay_us_per_record"] = ms * 1e3 / float64(max(1, records))
	return nil
}

// growth repeats compression and in-memory applies on a graph of
// growthFactor times the nodes and edges. A cost that follows |G| grows by
// that factor; one that follows the change stays at 1.
func (l *layers) growth() error {
	d := l.r.w.graph
	d.V, d.E = d.V*growthFactor, d.E*growthFactor
	big, mirror := d.Build(graphSeed), d.Build(graphSeed)
	l.m["reach.compress_growth"] = l.ms("reach.Compress.x4", func() { reach.Compress(big) }) / l.m["reach.compress_ms"]
	st, err := openStore(big, storeConfig{})
	if err != nil {
		return err
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(l.seed))
	var batches [][]graph.Update
	for i := 0; i < 2; i++ {
		b := gen.RandomBatch(rng, mirror, batchSize, insertShare)
		mirror.Apply(b)
		batches = append(batches, b)
	}
	ts, err := l.applyAll("store.ApplyBatch.mem.x4", st, batches)
	if err != nil {
		return err
	}
	l.m["store.apply_growth"] = median(ts) / l.m["store.apply_mem_ms"]
	return nil
}

// shardedStore times the sharded store kind in memory on the same inputs.
func (l *layers) shardedStore() error {
	var st storeAPI
	var err error
	l.m["part.open_ms"] = l.ms("store.OpenSharded", func() { st, err = openStore(l.in.g0.Clone(), storeConfig{sharded: true}) })
	if err != nil {
		return err
	}
	defer st.Close()
	sh := st.(shardedStore).ShardedStore
	stats := sh.Stats()
	l.m["part.cut_share"] = float64(stats.CrossEdges) / float64(max(1, stats.Edges))
	var ts []float64
	var cross, all int
	for _, b := range l.in.batches[:l.k] {
		var res store.ShardedApplyResult
		ts = append(ts, l.ms("store.ShardedApplyBatch.mem", func() { res, err = sh.ApplyBatch(b) }))
		if err != nil {
			return err
		}
		cross += res.CrossUpdates
		all += res.CrossUpdates + res.LocalUpdates
	}
	l.m["part.apply_mem_ms"] = median(ts)
	l.m["part.cross_updates_share"] = float64(cross) / float64(max(1, all))

	pairs := l.in.pairs
	l.m["part.point_ns"] = l.nsPerOp("store.ShardedReachable", layerReads, func(i int) { sh.Reachable(pairs[i][0], pairs[i][1]) })
	k := l.r.w.batchPairs
	us, vs := make([]graph.Node, k), make([]graph.Node, k)
	l.m["part.batch_ns_per_pair"] = l.nsPerOp("store.ShardedBatchReachable", 64, func(i int) {
		base := i * k % (numPairs - k)
		for j := range us {
			us[j], vs[j] = pairs[base+j][0], pairs[base+j][1]
		}
		sh.BatchReachable(us, vs)
	}) / float64(k)
	return nil
}
