package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"memsched/internal/sim"
	"memsched/internal/sweepd"
	"memsched/internal/workload"
)

// defaultSeed is the seed whose simulation digests are pinned in pins.go.
const defaultSeed = 1

// A plan lists the rounds of a workload. A round is the sweeps the submitter
// sends, one at a time, to a coordinator with an empty cache. Simulation
// workloads send one simulation per sweep; the service workload sends sweeps
// of tiny jobs that its stub worker completes with a canned payload.
//
// A variant of a simulation is the same run under another seed. Round r
// runs variant (r+i) mod variants of simulation i, so rounds mix variants
// and cost about the same. Simulated time per instruction varies widely
// from one seed to the next (the memory-bound codes' phases fall
// differently), so a run averages over many seeds, and its cost hardly
// depends on --seed.
type plan struct {
	rounds [][][]sweepd.JobV1
	// instr is the simulated instructions, warm-up included, behind each job.
	instr map[string]uint64
	// stub, when non-nil, is the payload the worker completes every job
	// with instead of simulating it.
	stub json.RawMessage
	// stubRun is the simulation whose Result is the stub payload.
	stubRun sweepd.JobSpecV1
	// cachedReps is how often a round resubmits its sweeps to the cache.
	cachedReps int
}

// simEntry is one simulation of a simulation workload.
type simEntry struct {
	mix, apps, policy, classes string
}

func (e simEntry) key() string {
	k := e.mix + e.apps + "/" + e.policy
	if e.classes != "" {
		k += "/" + e.classes
	}
	return k
}

// Workload sizes. The slices are long enough for the regime each workload
// stands for to show (full controller queues and engaged parallel windows
// on mem8, no DRAM pressure on ilp4) and short enough that one run holds
// over a hundred simulations.
const (
	mem8Instr = 3000
	ilp4Instr = 20000
	// Sweeps of 16 stub jobs allocate about 1 MiB each, so a garbage
	// collection lands in only a few percent of them and sweep_ms_p90 does
	// not straddle the collector's cadence.
	sweepdJobs   = 16 // jobs per sweep
	sweepdSweeps = 64 // sweeps per round
	sweepdInstr  = 1000
	variants     = 8
	// One-job sweeps are served from the cache in well under a
	// millisecond, so the simulation workloads resubmit more often to
	// measure that path over a steady stretch of time.
	simCachedReps    = 16
	sweepdCachedReps = 4
)

// jobSeed derives the simulation seed of entry i of variant v from the run
// seed (splitmix64 finalizer), so every simulation of a run draws its own
// independent streams.
func jobSeed(seed uint64, v, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(v)<<32 + uint64(i) + 1
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// mem8Entries is the Fig. 2 8-core memory-bound matrix: every 8MEM mix
// except the ILP-diluted 8MEM-6 under the baseline, the paper's scheme and
// BLISS, plus one deadline-aware run with core 0 latency-critical.
func mem8Entries() []simEntry {
	var out []simEntry
	for _, m := range []string{"8MEM-1", "8MEM-2", "8MEM-3", "8MEM-4", "8MEM-5"} {
		for _, p := range []string{"hf-rf", "me-lreq", "bliss"} {
			out = append(out, simEntry{mix: m, policy: p})
		}
	}
	return append(out, simEntry{mix: "8MEM-1", policy: "dash", classes: "LBBBBBBB"})
}

// ilp4Entries pairs 4-core sets of Table 2's ILP codes with the baseline and
// the paper's scheme.
func ilp4Entries() []simEntry {
	var out []simEntry
	for _, apps := range []string{"amrx", "hosz", "tuwy"} {
		for _, p := range []string{"hf-rf", "me-lreq"} {
			out = append(out, simEntry{apps: apps, policy: p})
		}
	}
	return out
}

// optionsFor builds the sim.Options sim.Run would build for rs, under the
// default ParallelCores (auto) and cycle skipping.
func optionsFor(rs sim.RunSpec) (sim.Options, error) {
	apps := rs.Apps
	if apps == nil {
		var err error
		if apps, err = rs.Mix.Apps(); err != nil {
			return sim.Options{}, err
		}
	}
	return sim.Options{
		Config: rs.Config, Policy: rs.Policy, Apps: apps, Classes: rs.Classes,
		ME: rs.ME, Seed: rs.Seed, WarmupInstr: rs.WarmupInstr, NoWarmup: rs.NoWarmup,
		NoCycleSkip: rs.NoCycleSkip, ParallelCores: rs.ParallelCores,
	}, nil
}

// simInstr is the instructions a job simulates: the slice plus the default
// quarter-slice warm-up, on every core.
func simInstr(spec sweepd.JobSpecV1, cores int) uint64 {
	return uint64(cores) * (spec.Instr + spec.Instr/4)
}

// buildSimPlan profiles the ME value of every application in entries (the
// priority tables of the ME-based policies need them), then assembles every
// simulation once with sim.New. Both are the set-up a simulation sweep pays
// before its first run.
func buildSimPlan(ctx context.Context, entries []simEntry, instr uint64, seed uint64,
	tr *tracer, parent uint64) (*plan, error) {
	var apps []workload.App
	have := map[byte]bool{}
	for _, e := range entries {
		codes := e.apps
		if e.mix != "" {
			m, err := workload.MixByName(e.mix)
			if err != nil {
				return nil, err
			}
			codes = m.Codes
		}
		for i := 0; i < len(codes); i++ {
			if have[codes[i]] {
				continue
			}
			have[codes[i]] = true
			a, err := workload.ByCode(codes[i])
			if err != nil {
				return nil, err
			}
			apps = append(apps, a)
		}
	}
	sp := tr.begin(parent, "sim.ProfileAllContext", "")
	_, mes, err := sim.ProfileAllContext(ctx, apps, instr, seed^sim.ProfileSeed)
	sp.end()
	if err != nil {
		return nil, err
	}
	meOf := map[byte]float64{}
	for i, a := range apps {
		meOf[a.Code] = mes[i]
	}

	p := &plan{instr: map[string]uint64{}, cachedReps: simCachedReps}
	for r := 0; r < variants; r++ {
		var sweeps [][]sweepd.JobV1
		for i, e := range entries {
			v := (r + i) % variants
			key := fmt.Sprintf("v%d/%s", v, e.key())
			spec := sweepd.JobSpecV1{Mix: e.mix, Apps: e.apps, Policy: e.policy,
				Instr: instr, Seed: jobSeed(seed, v, i), Classes: e.classes}
			rs, err := spec.RunSpec()
			if err != nil {
				return nil, err
			}
			opts, err := optionsFor(rs)
			if err != nil {
				return nil, err
			}
			for _, a := range opts.Apps {
				spec.ME = append(spec.ME, meOf[a.Code])
			}
			if r == 0 {
				// Every round assembles the same machines.
				opts.ME = spec.ME
				sp := tr.begin(parent, "sim.New", key)
				_, err = sim.New(opts)
				sp.end()
				if err != nil {
					return nil, fmt.Errorf("%s: %w", key, err)
				}
			}
			sweeps = append(sweeps, []sweepd.JobV1{{Key: key, Spec: spec}})
			p.instr[key] = simInstr(spec, len(opts.Apps))
		}
		p.rounds = append(p.rounds, sweeps)
	}
	return p, nil
}

// buildSweepdPlan makes sweepdSweeps sweeps of sweepdJobs distinct tiny
// jobs, and the stub payload: the Result of one such job, simulated here, so
// the service moves payloads of a real Result's size.
func buildSweepdPlan(ctx context.Context, seed uint64, tr *tracer, parent uint64) (*plan, error) {
	p := &plan{instr: map[string]uint64{}, cachedReps: sweepdCachedReps,
		stubRun: sweepd.JobSpecV1{Mix: "2MEM-1", Policy: "fcfs", Instr: sweepdInstr, Seed: seed}}
	val, _, err := simulate(ctx, sweepd.JobV1{Key: "stub", Spec: p.stubRun}, tr, parent)
	if err != nil {
		return nil, err
	}
	p.stub = val
	for v := 0; v < variants; v++ {
		var sweeps [][]sweepd.JobV1
		n := 0
		for s := 0; s < sweepdSweeps; s++ {
			jobs := make([]sweepd.JobV1, sweepdJobs)
			for i := range jobs {
				spec := sweepd.JobSpecV1{Mix: "2MEM-1", Policy: "fcfs", Instr: sweepdInstr,
					Seed: jobSeed(seed, v, n)}
				key := fmt.Sprintf("v%d/job-%d", v, n)
				jobs[i] = sweepd.JobV1{ID: i, Key: key, Spec: spec}
				p.instr[key] = simInstr(spec, 2)
				n++
			}
			sweeps = append(sweeps, jobs)
		}
		p.rounds = append(p.rounds, sweeps)
	}
	return p, nil
}

// build runs the set-up of workload w: the plan, and a coordinator started
// behind a loopback listener and answering its first request.
func build(ctx context.Context, w string, seed uint64, tr *tracer, parent uint64) (*plan, time.Duration, error) {
	t0 := time.Now()
	var p *plan
	var err error
	switch w {
	case "mem8":
		p, err = buildSimPlan(ctx, mem8Entries(), mem8Instr, seed, tr, parent)
	case "ilp4":
		p, err = buildSimPlan(ctx, ilp4Entries(), ilp4Instr, seed, tr, parent)
	case "sweepd":
		p, err = buildSweepdPlan(ctx, seed, tr, parent)
	default:
		err = fmt.Errorf("unknown workload %q (want mem8, ilp4 or sweepd)", w)
	}
	if err != nil {
		return nil, 0, err
	}
	sp := tr.begin(parent, "coordinator.start", "")
	srv, err := startService(ctx)
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	d := time.Since(t0)
	srv.close()
	return p, d, nil
}
