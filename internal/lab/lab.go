// Package lab orchestrates paper-scale experiment sweeps: it profiles
// applications once, computes single-core reference IPCs once, runs every
// (workload, policy) pair at most once, and fans independent runs across
// internal/runner's worker pool — with cancellation, panic isolation and
// checkpoint/resume. cmd/experiments is a thin presentation layer over this
// package.
package lab

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"memsched/internal/metrics"
	"memsched/internal/runner"
	"memsched/internal/sim"
	"memsched/internal/workload"
)

// OnlinePolicy is the pseudo-policy name that runs me-lreq with the online
// ME estimator (started from neutral priorities) instead of profiled tables.
const OnlinePolicy = "me-lreq-online"

// Options configures a Lab.
type Options struct {
	// Instr is the evaluation slice length per core.
	Instr uint64
	// ProfInstr is the profiling slice length (ME measurement).
	ProfInstr uint64
	// Seed is the evaluation seed; profiling always uses sim.ProfileSeed.
	Seed uint64
	// Workers bounds the parallel runner (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Checkpoint, when non-empty, is the JSON file Prime persists completed
	// evaluations to; a later Prime with the same file resumes from it.
	Checkpoint string
	// Progress is the interval between runner progress lines sent to Logf
	// during Prime (0 disables them).
	Progress time.Duration
}

// RunOut is one evaluated (workload, policy) pair.
type RunOut struct {
	// Speedup is the SMT speedup (sum of per-core IPC_multi/IPC_single).
	Speedup float64
	// Result is the full simulation outcome.
	Result sim.Result
}

type runKey struct {
	mix, policy string
	// classes is the serving-class assignment in workload.FormatServiceClasses
	// form ("" = classless): a classed run schedules differently under
	// class-aware policies and splits its latency result by class, so it must
	// not share a cache slot with the classless run of the same pair.
	classes string
}

// singleKey names one single-core run: profiles, SMT-speedup references and
// noise-replica references all differ only in slice length and seed.
type singleKey struct {
	code        byte
	instr, seed uint64
}

// Lab caches single-core runs (profiles and references) and evaluation runs.
// All methods are safe for concurrent use.
type Lab struct {
	opts Options

	mu      sync.Mutex
	singles map[singleKey]sim.Profile
	runs    map[runKey]RunOut
}

// New creates a Lab. Zero-valued Instr/ProfInstr default to 200 000.
func New(opts Options) *Lab {
	if opts.Instr == 0 {
		opts.Instr = 200_000
	}
	if opts.ProfInstr == 0 {
		opts.ProfInstr = 200_000
	}
	if opts.Seed == 0 {
		opts.Seed = sim.EvalSeed
	}
	return &Lab{
		opts:    opts,
		singles: map[singleKey]sim.Profile{},
		runs:    map[runKey]RunOut{},
	}
}

func (l *Lab) logf(format string, args ...any) {
	if l.opts.Logf != nil {
		l.opts.Logf(format, args...)
	}
}

// single returns the (cached) single-core run of the application with the
// given Table 2 code over instr instructions under seed.
func (l *Lab) single(ctx context.Context, code byte, instr, seed uint64) (sim.Profile, error) {
	key := singleKey{code, instr, seed}
	l.mu.Lock()
	p, ok := l.singles[key]
	l.mu.Unlock()
	if ok {
		return p, nil
	}
	app, err := workload.ByCode(code)
	if err != nil {
		return sim.Profile{}, err
	}
	l.logf("single-core %s instr=%d seed=%#x", app.Name, instr, seed)
	p, err = sim.ProfileAppContext(ctx, app, instr, seed)
	if err != nil {
		return sim.Profile{}, err
	}
	l.mu.Lock()
	l.singles[key] = p
	l.mu.Unlock()
	return p, nil
}

// Profile returns the (cached) single-core profiling result for the
// application with the given Table 2 code, measured with the profiling seed.
func (l *Lab) Profile(ctx context.Context, code byte) (sim.Profile, error) {
	return l.single(ctx, code, l.opts.ProfInstr, sim.ProfileSeed)
}

// SetProfile overrides the cached profile for code (used when a caller has
// already run classification and wants its richer Profile retained).
func (l *Lab) SetProfile(code byte, p sim.Profile) {
	l.mu.Lock()
	l.singles[singleKey{code, l.opts.ProfInstr, sim.ProfileSeed}] = p
	l.mu.Unlock()
}

// MixVectors returns the per-core memory-efficiency vector (profiling seed)
// and single-core IPC vector (evaluation seed) for a mix.
func (l *Lab) MixVectors(ctx context.Context, mix workload.Mix) (mes, singles []float64, err error) {
	return l.vectors(ctx, mix, l.opts.Seed)
}

// vectors is MixVectors with the single-core IPCs measured under seed.
func (l *Lab) vectors(ctx context.Context, mix workload.Mix, seed uint64) (mes, singles []float64, err error) {
	for i := 0; i < len(mix.Codes); i++ {
		p, err := l.Profile(ctx, mix.Codes[i])
		if err != nil {
			return nil, nil, err
		}
		s, err := l.single(ctx, mix.Codes[i], l.opts.Instr, seed)
		if err != nil {
			return nil, nil, err
		}
		mes = append(mes, p.ME)
		singles = append(singles, s.IPC)
	}
	return mes, singles, nil
}

// Run evaluates mix under policy (cached). policy may be any registry name
// or OnlinePolicy. Cancellation lands mid-simulation (sim.CancelCheckCycles
// granularity), not just between runs.
func (l *Lab) Run(ctx context.Context, mix workload.Mix, policy string) (RunOut, error) {
	return l.RunClassed(ctx, mix, policy, nil)
}

// RunClassed is Run with a per-core serving-class assignment (see
// sim.Options.Classes); nil classes reproduces Run exactly, and classed runs
// are cached separately from classless ones.
func (l *Lab) RunClassed(ctx context.Context, mix workload.Mix, policy string,
	classes []workload.ServiceClass) (RunOut, error) {
	key := runKey{mix.Name, policy, workload.FormatServiceClasses(classes)}
	l.mu.Lock()
	out, ok := l.runs[key]
	l.mu.Unlock()
	if ok {
		return out, nil
	}
	out, err := l.simulate(ctx, mix, policy, classes, l.opts.Seed)
	if err != nil {
		return RunOut{}, fmt.Errorf("lab: %s under %s: %w", mix.Name, policy, err)
	}
	l.logf("%-8s %-14s speedup=%.3f", mix.Name, policy, out.Speedup)
	l.mu.Lock()
	l.runs[key] = out
	l.mu.Unlock()
	return out, nil
}

// simulate runs mix under policy at the lab's slice length and the given
// seed, and scores it against the single-core references at that seed.
func (l *Lab) simulate(ctx context.Context, mix workload.Mix, policy string,
	classes []workload.ServiceClass, seed uint64) (RunOut, error) {
	mes, singles, err := l.vectors(ctx, mix, seed)
	if err != nil {
		return RunOut{}, err
	}
	spec := sim.RunSpec{Mix: mix, Policy: policy, Instr: l.opts.Instr, ME: mes,
		Seed: seed, Classes: classes}
	if policy == OnlinePolicy {
		// The runtime ME estimator starts from neutral (equal) priorities so
		// it has to earn its keep.
		neutral := make([]float64, len(mes))
		for i := range neutral {
			neutral[i] = 1
		}
		spec.Policy = "me-lreq"
		spec.ME = neutral
		spec.OnlineME = true
	}
	res, err := sim.Run(ctx, spec)
	if err != nil {
		return RunOut{}, err
	}
	sp, err := metrics.SMTSpeedup(res.IPCs(), singles)
	if err != nil {
		return RunOut{}, err
	}
	return RunOut{Speedup: sp, Result: res}, nil
}

// FairnessOut bundles every fairness metric of one (workload, policy) run.
type FairnessOut struct {
	// Speedup is the SMT speedup (throughput axis).
	Speedup float64
	// Slowdowns is the per-application slowdown vector
	// (IPC_single/IPC_multi per core).
	Slowdowns []float64
	// MaxSlowdown is the largest entry of Slowdowns.
	MaxSlowdown float64
	// Unfairness is max/min slowdown (the paper's Figure 5 metric).
	Unfairness float64
	// HarmonicSpeedup is the harmonic mean of per-application speedups.
	HarmonicSpeedup float64
}

// Fairness computes the full fairness-metric suite for a cached or fresh run.
func (l *Lab) Fairness(ctx context.Context, mix workload.Mix, policy string) (FairnessOut, error) {
	out, err := l.Run(ctx, mix, policy)
	if err != nil {
		return FairnessOut{}, err
	}
	_, singles, err := l.MixVectors(ctx, mix)
	if err != nil {
		return FairnessOut{}, err
	}
	multi := out.Result.IPCs()
	f := FairnessOut{Speedup: out.Speedup}
	if f.Slowdowns, err = metrics.Slowdowns(multi, singles); err != nil {
		return FairnessOut{}, fmt.Errorf("lab: %s under %s: %w", mix.Name, policy, err)
	}
	// The remaining metrics are pure functions of the slowdown vector the
	// call above already validated, so their errors cannot fire here.
	f.MaxSlowdown, _ = metrics.MaxSlowdown(multi, singles)
	f.Unfairness, _ = metrics.Unfairness(multi, singles)
	f.HarmonicSpeedup, _ = metrics.HarmonicSpeedup(multi, singles)
	return f, nil
}

// Replicated is the outcome of RunReplicated: speedup statistics over
// several seeds.
type Replicated struct {
	Mean, StdDev float64
	N            int
	Samples      []float64
}

// RunReplicated evaluates mix under policy across n different seeds (the
// lab's base seed plus n-1 derived ones) and returns mean and standard
// deviation of the SMT speedup — a noise estimate the paper's single-run
// methodology lacks. Each replica is scored against single-core references
// at its own seed, so each sample is internally consistent; the references
// are cached (replica 0's are Run's), the replicas themselves are not.
// Cancelling ctx stops the profiling and replica runs mid-simulation.
func (l *Lab) RunReplicated(ctx context.Context, mix workload.Mix, policy string, n int) (Replicated, error) {
	if n < 1 {
		return Replicated{}, fmt.Errorf("lab: replication count %d < 1", n)
	}
	out := Replicated{N: n}
	sum, sumSq := 0.0, 0.0
	for rep := 0; rep < n; rep++ {
		seed := l.opts.Seed + uint64(rep)*0x9E3779B97F4A7C15
		run, err := l.simulate(ctx, mix, policy, nil, seed)
		if err != nil {
			return Replicated{}, fmt.Errorf("lab: %s under %s, replica %d: %w", mix.Name, policy, rep, err)
		}
		sp := run.Speedup
		out.Samples = append(out.Samples, sp)
		sum += sp
		sumSq += sp * sp
		l.logf("%-8s %-10s replica %d/%d speedup=%.3f", mix.Name, policy, rep+1, n, sp)
	}
	out.Mean = sum / float64(n)
	if n > 1 {
		variance := (sumSq - sum*sum/float64(n)) / float64(n-1)
		if variance > 0 {
			out.StdDev = math.Sqrt(variance)
		}
	}
	return out, nil
}

// ClassedJob names one (mix, policy, classes) evaluation for Prime; nil
// Classes is the classless run.
type ClassedJob struct {
	Mix     workload.Mix
	Policy  string
	Classes []workload.ServiceClass
}

// Prime fills the run cache for a list of evaluations, classed or
// classless, on internal/runner's worker pool: Workers-wide parallel
// execution whose cached results are identical to a serial pass, panic
// isolation per evaluation, progress lines, and — when Options.Checkpoint is
// set — persistent completed-run checkpoints that a later Prime on the same
// file resumes from instead of re-simulating. After it returns nil,
// RunClassed and MixVectors on the same arguments are cache hits.
func (l *Lab) Prime(ctx context.Context, jobs []ClassedJob) error {
	// Profiles and references first: they feed every run, and keeping them
	// serial keeps their log order (and any profiling error) deterministic.
	seen := map[string]bool{}
	for _, j := range jobs {
		if !seen[j.Mix.Name] {
			seen[j.Mix.Name] = true
			if _, _, err := l.MixVectors(ctx, j.Mix); err != nil {
				return err
			}
		}
	}
	var pending []ClassedJob
	var keys []string
	for _, j := range jobs {
		cls := workload.FormatServiceClasses(j.Classes)
		l.mu.Lock()
		_, done := l.runs[runKey{j.Mix.Name, j.Policy, cls}]
		l.mu.Unlock()
		if !done {
			pending = append(pending, j)
			keys = append(keys, checkpointKey(j.Mix.Name, j.Policy, cls))
		}
	}
	if len(pending) == 0 {
		return nil
	}
	outs, err := runner.Run(ctx, runner.NewJobs(keys),
		func(ctx context.Context, job runner.Job) (RunOut, error) {
			j := pending[job.ID]
			return l.RunClassed(ctx, j.Mix, j.Policy, j.Classes)
		},
		runner.Options{
			Workers:    l.opts.Workers,
			Progress:   l.opts.Progress,
			Logf:       l.opts.Logf,
			Checkpoint: l.opts.Checkpoint,
			Meta: fmt.Sprintf("lab instr=%d profinstr=%d seed=%#x",
				l.opts.Instr, l.opts.ProfInstr, l.opts.Seed),
		})
	// Splice checkpoint-resumed evaluations into the run cache so subsequent
	// Run calls are cache hits without re-simulating.
	for i, o := range outs {
		if o.Resumed {
			j := pending[i]
			key := runKey{j.Mix.Name, j.Policy, workload.FormatServiceClasses(j.Classes)}
			l.mu.Lock()
			l.runs[key] = o.Value
			l.mu.Unlock()
		}
	}
	if err != nil {
		return err
	}
	return runner.FirstError(outs)
}

// Grid evaluates every classless (mix, policy) pair through Prime and
// returns the runs indexed [mix][policy].
func (l *Lab) Grid(ctx context.Context, mixes []workload.Mix, policies []string) ([][]RunOut, error) {
	jobs := make([]ClassedJob, 0, len(mixes)*len(policies))
	for _, mix := range mixes {
		for _, pol := range policies {
			jobs = append(jobs, ClassedJob{Mix: mix, Policy: pol})
		}
	}
	if err := l.Prime(ctx, jobs); err != nil {
		return nil, err
	}
	grid := make([][]RunOut, len(mixes))
	for i, mix := range mixes {
		grid[i] = make([]RunOut, len(policies))
		for j, pol := range policies {
			out, err := l.Run(ctx, mix, pol)
			if err != nil {
				return nil, err
			}
			grid[i][j] = out
		}
	}
	return grid, nil
}

// checkpointKey names an evaluation in a checkpoint: "mix/policy" for a
// classless run and "mix/policy/classes" for a classed one, so checkpoints
// written before classed runs existed still resume.
func checkpointKey(mix, policy, classes string) string {
	if classes == "" {
		return mix + "/" + policy
	}
	return mix + "/" + policy + "/" + classes
}
