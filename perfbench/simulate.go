package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"memsched/internal/memctrl"
	"memsched/internal/sched"
	"memsched/internal/sim"
	"memsched/internal/sweepd"
	"memsched/internal/trace"
	"memsched/internal/workload"
)

// simStat is what one simulation reports to the per-layer table: counters
// read off its Result and its System, the host time of RunContext, and — on
// traced runs — the wrappers' counts.
type simStat struct {
	key               string
	runNs             int64
	windows, winCyc   int64
	total, skipped    int64
	reads, drains     uint64
	queueDelaySum     float64 // read-weighted sum of per-core mean queue delay
	readQOcc, busUtil float64
	rowHits, accesses uint64
	stallSum          float64 // sum over cores of the retire-stall fraction
	cores             int
	l2Misses, retired float64

	picks, cands uint64
	instrs       uint64
}

// simulate runs one job the way a sweep worker would — sim.New and
// RunContext under the spec's options — and returns the Result's JSON. On a
// traced run the policy and the generators are wrapped: the policy is the
// registry's own (sched.New) behind a delegating wrapper, and the generators
// are built exactly as sim.New builds them.
func simulate(ctx context.Context, job sweepd.JobV1, tr *tracer, parent uint64) (json.RawMessage, simStat, error) {
	st := simStat{key: job.Key}
	rs, err := job.Spec.RunSpec()
	if err != nil {
		return nil, st, err
	}
	opts, err := optionsFor(rs)
	if err != nil {
		return nil, st, err
	}
	jsp := tr.begin(parent, "job", job.Key)
	defer jsp.end()

	var pol *tracedPolicy
	var gens []*tracedGen
	if tr != nil {
		inner, err := sched.New(rs.Policy, len(opts.Apps))
		if err != nil {
			return nil, st, err
		}
		ip, ok := inner.(memctrl.IndexedPolicy)
		if !ok {
			return nil, st, fmt.Errorf("policy %s has no indexed path", rs.Policy)
		}
		pol = &tracedPolicy{inner: ip, t: tr}
		opts.CustomPolicy = pol
		for i, a := range opts.Apps {
			g, err := trace.NewSynthetic(a.Params, workload.BaseFor(i), opts.Seed^(uint64(a.Code)*0x9E3779B97F4A7C15))
			if err != nil {
				return nil, st, err
			}
			tg := &tracedGen{inner: g, t: tr}
			gens = append(gens, tg)
			opts.Generators = append(opts.Generators, tg)
		}
	}

	nsp := tr.begin(jsp.id(), "sim.New", job.Key)
	sys, err := sim.New(opts)
	nsp.end()
	if err != nil {
		return nil, st, err
	}
	rsp := tr.begin(jsp.id(), "RunContext", job.Key)
	if pol != nil {
		pol.parent = rsp.id()
		for _, g := range gens {
			g.parent = rsp.id()
		}
	}
	t1 := time.Now()
	res, err := sys.RunContext(ctx, rs.Instr, rs.MaxCycles)
	st.runNs = time.Since(t1).Nanoseconds()
	rsp.end()
	if err != nil {
		return nil, st, err
	}
	st.windows, st.winCyc = sys.ParallelWindows()
	val, err := json.Marshal(res)
	if err != nil {
		return nil, st, err
	}

	st.total, st.skipped = res.TotalCycles, res.SkippedCycles
	st.drains = res.Drains
	st.readQOcc, st.busUtil = res.ReadQueueOcc, res.BusUtilization
	st.rowHits, st.accesses = res.DRAM.Hits, res.DRAM.Accesses()
	st.cores = len(res.Cores)
	for _, c := range res.Cores {
		st.reads += c.MemReads
		st.queueDelaySum += c.AvgQueueDelay * float64(c.MemReads)
		st.stallSum += c.RetireStallPct
		st.l2Misses += c.L2MissesPerKI * float64(c.Retired) / 1000
		st.retired += float64(c.Retired)
	}
	if pol != nil {
		st.picks, st.cands = pol.picks, pol.cands
		tr.add(pol.spans...)
		for _, g := range gens {
			st.instrs += g.n
			tr.add(g.spans...)
		}
	}
	return val, st, nil
}
