// Package maintain pairs the two incremental maintainers — incRCM
// (internal/increach) and incPCM (internal/incbisim) — over one graph and
// one SCC condensation. A batch is reduced once, applied once to the
// shared graph through the condensation, and each maintainer then absorbs
// the same effective updates and change log. It is the write-side state
// of both store kinds: the monolithic store holds one Pair, the sharded
// store one per shard.
package maintain

import (
	"slices"
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
	// ReachTime and PatternTime, when non-nil, receive the time each Apply
	// spends on the condensation plus incRCM, and on incPCM. With both nil
	// Apply reads no clock.
	ReachTime, PatternTime *obs.Histogram

	// sources lists, once each, the nodes whose successor lists changed
	// since ClearSources: the From of every effective update.
	sources []graph.Node
	isSrc   []bool
}

// New takes ownership of g and compresses it under both schemes.
func New(g *graph.Graph) *Pair {
	cond := dynscc.New(g)
	return &Pair{
		cond: cond, Reach: increach.Over(cond), Pattern: incbisim.Over(cond),
		isSrc: make([]bool, g.NumNodes()),
	}
}

// Graph returns the maintained graph; mutate it only through Apply.
func (p *Pair) Graph() *graph.Graph { return p.cond.Graph() }

// Sources returns, ascending and each once, the nodes whose successor
// lists changed since ClearSources — what graph.FreezePatch needs to bring
// a snapshot of Graph() taken then up to date. Valid until the next Apply
// or ClearSources.
func (p *Pair) Sources() []graph.Node {
	slices.Sort(p.sources)
	return p.sources
}

// ClearSources empties the list Sources returns.
func (p *Pair) ClearSources() {
	for _, v := range p.sources {
		p.isSrc[v] = false
	}
	p.sources = p.sources[:0]
}

// Apply applies ΔG to the graph and brings both compressions to
// R(G ⊕ ΔG).
func (p *Pair) Apply(batch []graph.Update) (increach.Stats, incbisim.Stats) {
	timed := p.ReachTime != nil || p.PatternTime != nil
	var t0, t1 time.Time
	if timed {
		t0 = time.Now()
	}
	eff := p.cond.Graph().Reduce(batch)
	for _, up := range eff {
		if !p.isSrc[up.From] {
			p.isSrc[up.From] = true
			p.sources = append(p.sources, up.From)
		}
	}
	d := p.cond.Apply(eff)
	rs := p.Reach.Absorb(len(eff), d)
	if timed {
		t1 = time.Now()
		p.ReachTime.Observe(t1.Sub(t0))
	}
	ps := p.Pattern.Absorb(eff, d)
	if timed {
		p.PatternTime.Observe(time.Since(t1))
	}
	return rs, ps
}
