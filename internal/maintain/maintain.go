// Package maintain pairs the two incremental maintainers — incRCM
// (internal/increach) and incPCM (internal/incbisim) — over one graph and
// one SCC condensation. A batch is reduced once, applied once to the
// shared graph through the condensation, and each maintainer then absorbs
// the same effective updates and change log. It is the write-side state
// of both store kinds: the monolithic store holds one Pair, the sharded
// store one per shard.
package maintain

import (
	"time"

	"repro/internal/dynscc"
	"repro/internal/graph"
	"repro/internal/incbisim"
	"repro/internal/increach"
	"repro/internal/obs"
)

// Pair maintains both compressions of one evolving graph. It is not safe
// for concurrent use.
type Pair struct {
	cond *dynscc.Cond
	// Reach and Pattern are the two maintainers, for reading their
	// compressions; batches go through Apply.
	Reach   *increach.Maintainer
	Pattern *incbisim.Maintainer
	// Meter, when non-nil, receives what each Apply measured. With none
	// Apply reads no clock.
	Meter *Meter
}

// Meter is the instruments a Pair feeds, once per Apply and, for the build
// stages and the depth, once when New builds it. The two Aff histograms
// hold the paper's measure next to the clocks: counts, observed on the
// histogram's nanosecond scale like every count in internal/obs.
type Meter struct {
	SCCTime                *obs.Histogram // the batch reduced and applied to the graph and the condensation
	ReachTime, PatternTime *obs.Histogram // incRCM; incPCM
	ReachAff, PatternAff   *obs.Histogram // components singled out; nodes re-signed
	PatternLevels          *obs.Gauge     // partitions incPCM keeps, the label one included; 0 past the depth cap
	LevelRebuilds          *obs.Counter   // levels incPCM built or re-signed whole
	Fallbacks              *obs.Counter   // batches incPCM refined from the seed
	Resplits               *obs.Counter   // SCC splits re-decomposed whole rather than peeled
	LossSwept              *obs.Histogram // components the condensation's loss-area sweeps marked
	RepScans               *obs.Counter   // scans of a whole level incPCM made for a lost representative

	SCCBuild, ReachBuild, PatternBuild *obs.Histogram // New: the condensation; incRCM and incPCM over it
}

// New takes ownership of g and compresses it under both schemes. mt, when
// non-nil, becomes the pair's Meter and receives what the build took by
// stage; with none New reads no clock.
func New(g *graph.Graph, mt *Meter) *Pair {
	var t0, t1, t2 time.Time
	if mt != nil {
		t0 = time.Now()
	}
	p := &Pair{cond: dynscc.New(g), Meter: mt}
	if mt != nil {
		t1 = time.Now()
		mt.SCCBuild.Observe(t1.Sub(t0))
	}
	p.Reach = increach.Over(p.cond)
	if mt != nil {
		t2 = time.Now()
		mt.ReachBuild.Observe(t2.Sub(t1))
	}
	p.Pattern = incbisim.Over(p.cond)
	if mt != nil {
		mt.PatternBuild.Observe(time.Since(t2))
		mt.PatternLevels.Set(int64(p.Pattern.Levels()))
	}
	return p
}

// Graph returns the maintained graph; mutate it only through Apply.
func (p *Pair) Graph() *graph.Graph { return p.cond.Graph() }

// Footprints returns the bytes the condensation's and incRCM's tables hold
// (dynscc.Cond.Footprint, increach.Maintainer.Footprint), read off slice
// capacities.
func (p *Pair) Footprints() (scc, reach int) { return p.cond.Footprint(), p.Reach.Footprint() }

// Apply applies ΔG to the graph and brings both compressions to
// R(G ⊕ ΔG).
func (p *Pair) Apply(batch []graph.Update) (increach.Stats, incbisim.Stats) {
	mt := p.Meter
	var t0, t1, t2 time.Time
	if mt != nil {
		t0 = time.Now()
	}
	eff := p.cond.Graph().Reduce(batch)
	d := p.cond.Apply(eff)
	if mt != nil {
		t1 = time.Now()
		mt.SCCTime.Observe(t1.Sub(t0))
		mt.Resplits.Add(uint64(d.Resplits))
		mt.LossSwept.ObserveNs(int64(d.LossSwept))
	}
	rs := p.Reach.Absorb(len(eff), d)
	if mt != nil {
		t2 = time.Now()
		mt.ReachTime.Observe(t2.Sub(t1))
	}
	ps := p.Pattern.Absorb(eff)
	if mt != nil {
		mt.PatternTime.Observe(time.Since(t2))
		mt.ReachAff.ObserveNs(int64(rs.AffComponents))
		mt.PatternAff.ObserveNs(int64(ps.DirtyNodes))
		mt.PatternLevels.Set(int64(p.Pattern.Levels()))
		mt.LevelRebuilds.Add(uint64(ps.LevelRebuilds))
		mt.Fallbacks.Add(uint64(ps.Fallbacks))
		mt.RepScans.Add(uint64(ps.RepScans))
	}
	return rs, ps
}
