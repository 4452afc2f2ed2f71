package sched

import (
	"memsched/internal/memctrl"
)

// This file implements a core-aware dynamic scheduler in the spirit of
// Sanchez & Sun's CADS ("Core-Aware Dynamic Scheduler for Multicore Memory
// Controllers"): per-core priorities are learned online from the controller's
// own observations — no offline profiles, no OS-loaded tables — and adapted
// every epoch, the same measure-then-reload cadence the online-ME estimator
// uses (sim.OnlineEstimator), folded through the same EWMA smoothing.
//
// Two observables drive the priority of core i, both measured over the last
// epoch at the point of service:
//
//   - row-hit rate: the fraction of core i's served requests that hit the
//     open row. A high hit rate means the core uses DRAM efficiently (the
//     dynamic analogue of the paper's memory efficiency), so prioritizing it
//     buys more system throughput per serviced request.
//   - request intensity: how many of the epoch's services went to core i.
//     A light core is cheap to keep happy (the LREQ insight); a heavy core
//     backpressures itself through the shared buffer anyway.
//
// priority sample = (1 + hitRate) / (1 + served), smoothed with the online
// estimator's EWMA weight so one bursty epoch cannot whip the ordering
// around. Ranking: row-buffer hit first (command-level hit-first, as for
// every queue-aware policy here), then the learned priority, then age.
const (
	// cadsEpoch is the adaptation window in cycles: long enough for a
	// memory-bound core to be served hundreds of times, short enough for
	// several reloads within one evaluation slice.
	cadsEpoch int64 = 50_000
	// cadsAlpha is the EWMA weight of the newest epoch (matches the online-ME
	// estimator's ewmaAlpha).
	cadsAlpha = 0.25
)

// cads implements the cads policy. Like bliss, every state transition happens
// inside PickIndexed and the epoch grid is a pure function of ctx.Now, so the
// policy is exact under cycle skipping without any run-loop plumbing: epochs
// in which no contested pick happens simply merge into the next rollover,
// deterministically in every run mode.
type cads struct {
	next   int64
	served []uint64 // contested services per core, current epoch
	hits   []uint64 // row hits among them
	prio   []float64
}

func newCADS(cores int) *cads {
	c := &cads{
		next:   cadsEpoch,
		served: make([]uint64, cores),
		hits:   make([]uint64, cores),
		prio:   make([]float64, cores),
	}
	for i := range c.prio {
		c.prio[i] = 1 // neutral start: pure hit-first/age until data arrives
	}
	return c
}

func (*cads) Name() string { return "cads" }

func (p *cads) Pick(cands []memctrl.Candidate, ctx *memctrl.Context) int {
	v := memctrl.ViewOf(cands)
	return p.PickIndexed(&v, ctx)
}

func (p *cads) PickIndexed(view *memctrl.CandidateView, ctx *memctrl.Context) int {
	if ctx.Now >= p.next {
		p.roll()
		p.next = (ctx.Now/cadsEpoch + 1) * cadsEpoch
	}
	best := pickBest(view, ctx, func(a, b *memctrl.Candidate) int {
		if c := cmpBool(a.RowHit, b.RowHit); c != 0 {
			return c
		}
		if c := cmpFloat(p.prio[a.Req.Core], p.prio[b.Req.Core]); c != 0 {
			return c
		}
		return cmpAge(a, b)
	})
	c := view.At(best)
	p.served[c.Req.Core]++
	if c.RowHit {
		p.hits[c.Req.Core]++
	}
	return best
}

// roll folds the finished epoch's observations into the smoothed priorities
// and resets the counters. Cores that were never served keep a maximal
// intensity term (served = 0), so idle or light cores drift toward the top —
// when they do show up, they are serviced promptly.
func (p *cads) roll() {
	for i := range p.prio {
		hitRate := 0.0
		if p.served[i] > 0 {
			hitRate = float64(p.hits[i]) / float64(p.served[i])
		}
		sample := (1 + hitRate) / (1 + float64(p.served[i]))
		p.prio[i] = (1-cadsAlpha)*p.prio[i] + cadsAlpha*sample
		p.served[i] = 0
		p.hits[i] = 0
	}
}
