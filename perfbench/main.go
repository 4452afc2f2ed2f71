// Command perfbench is the repository's benchmark. It runs one workload —
// mem8, ilp4 or sweepd — for a fixed time through the simulator's and the
// sweep service's public functions, checks every outcome, and prints each
// metric by name with its unit; the last line of its output is one JSON
// object. See README.md for the workloads and the metrics.
//
//	bash perfbench/run.sh --workload mem8 --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"memsched/internal/sweepd"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// runContext says where and how a run was made, so results from different
// hosts can be told apart.
type runContext struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	// Parallel records, per simulation, the parallel windows its
	// measurement window ran (System.ParallelWindows); 0 means serial.
	Parallel map[string][2]int64 `json:"parallel_windows,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		wl       = flag.String("workload", "", "workload to run: mem8, ilp4 or sweepd")
		seed     = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds  = flag.Int("seconds", runSeconds, "measured seconds")
		traceOn  = flag.Int("trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
		outDir   = flag.String("out", ".bench_build/perfbench", "directory for the span file")
		printPin = flag.Bool("print-digests", false, "print the run's simulation digests as Go map entries")
		manifest = flag.String("write-manifest", "", "write the metric declarations to this BENCHMARK.json and exit")
	)
	flag.Parse()
	if *manifest != "" {
		return writeManifest(*manifest)
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	// Every pass runs at least one round, so a run ends well inside this.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	b := &bench{workload: *wl, seed: *seed, seen: map[string]uint64{}}
	rc := runContext{Workload: *wl, Seed: *seed, Seconds: *seconds, Trace: *traceOn == 1,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Parallel: map[string][2]int64{}}
	budget := time.Duration(*seconds) * time.Second

	var (
		rep   report
		lines []string
		err   error
	)
	if *traceOn == 0 {
		rep, lines, err = b.untraced(ctx, budget, &rc)
	} else {
		rep, lines, err = b.traced(ctx, budget, *outDir, &rc)
	}
	if err != nil {
		return err
	}

	ctxLine, err := json.Marshal(rc)
	if err != nil {
		return err
	}
	fmt.Printf("context %s\n", ctxLine)
	for _, msg := range b.setupMsgs {
		fmt.Println("FAIL set-up: " + msg)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	if *printPin {
		keys := make([]string, 0, len(b.seen))
		for k := range b.seen {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("\t\t%q: 0x%016x,\n", k, b.seen[k])
		}
	}
	last, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// setup builds the workload's plan, checking that it comes out the same
// every time, and returns the set-up's wall time.
func (b *bench) setup(ctx context.Context, tr *tracer, parent uint64) (time.Duration, error) {
	p, d, err := build(ctx, b.workload, b.seed, tr, parent)
	if err != nil {
		return 0, err
	}
	if b.plan != nil && !samePlan(b.plan, p) {
		return 0, fmt.Errorf("set-up is not deterministic: the plan changed between repeats")
	}
	if p.stub != nil {
		res, err := (&sweepd.OutcomeV1{Key: "stub", Value: p.stub}).Result()
		if err != nil {
			return 0, err
		}
		b.setupChecks++
		if err := b.checkDigest("stub", digest(&res)); err != nil {
			b.setupFailures++
			if len(b.setupMsgs) < maxReported {
				b.setupMsgs = append(b.setupMsgs, err.Error())
			}
		}
	}
	b.plan = p
	return d, nil
}

// samePlan reports whether two plans submit the same jobs with the same
// payload.
func samePlan(a, b *plan) bool {
	if len(a.rounds) != len(b.rounds) || !bytes.Equal(a.stub, b.stub) {
		return false
	}
	for r := range a.rounds {
		if len(a.rounds[r]) != len(b.rounds[r]) {
			return false
		}
		for i, jobs := range a.rounds[r] {
			if len(jobs) != len(b.rounds[r][i]) {
				return false
			}
			for j := range jobs {
				if jobs[j].Spec.Fingerprint() != b.rounds[r][i][j].Spec.Fingerprint() {
					return false
				}
			}
		}
	}
	return true
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced(ctx context.Context, budget time.Duration, rc *runContext) (report, []string, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		d, err := b.setup(ctx, nil, 0)
		if err != nil {
			return report{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	b.minSweeps = minSweeps
	ps, err := b.runPass(ctx, budget, 0, nil, 0)
	if err != nil {
		return report{}, nil, err
	}
	recordParallel(rc, ps)
	p50 := percentile(append([]float64(nil), ps.sweepMs...), 0.50)
	p90 := percentile(append([]float64(nil), ps.sweepMs...), 0.90)
	m := map[string]float64{
		"sim_minstr_per_s":  ps.rate(func(r roundStat) (float64, time.Duration) { return float64(r.instr) / 1e6, r.freshDur }),
		"jobs_per_s":        ps.rate(func(r roundStat) (float64, time.Duration) { return float64(r.freshJobs), r.freshDur }),
		"cached_jobs_per_s": ps.rate(func(r roundStat) (float64, time.Duration) { return float64(r.cachedJobs), r.cachedDur }),
		"sweep_ms_p50":      p50.Value,
		"sweep_ms_p90":      p90.Value,
		"setup_s":           median(setups),
		"alloc_kb_per_op":   float64(ps.allocBytes) / 1024 / float64(ps.freshJobs),
	}
	lines := append(passLines(ps),
		fmt.Sprintf("sweep_ms: p50 %.3f, p%.0f %.3f over %d fresh sweeps", p50.Value, p90.P*100, p90.Value, p90.N),
		fmt.Sprintf("setup_s: median of %d set-ups %v", len(setups), setups))
	return makeReport(endToEnd, m, ps.attempted+b.setupChecks, ps.failed+b.setupFailures), lines, nil
}

// traced runs an untraced pass for half the budget and a traced pass over
// the same rounds, and reports the per-layer metrics of the traced pass.
func (b *bench) traced(ctx context.Context, budget time.Duration, outDir string, rc *runContext) (report, []string, error) {
	if _, err := b.setup(ctx, nil, 0); err != nil {
		return report{}, nil, fmt.Errorf("set-up: %w", err)
	}
	plain, err := b.runPass(ctx, budget/2, 0, nil, 0)
	if err != nil {
		return report{}, nil, err
	}

	tr := newTracer()
	root := tr.begin(0, "workload", b.workload)
	ssp := tr.begin(root.id(), "setup", "")
	_, err = b.setup(ctx, tr, ssp.id())
	ssp.end()
	if err != nil {
		return report{}, nil, fmt.Errorf("traced set-up: %w", err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return report{}, nil, err
	}
	ps, err := b.runPass(ctx, 0, len(plain.rounds), tr, root.id())
	var stub simStat
	if err == nil && b.plan.stub != nil {
		// The service workload's only simulation is the stub payload's;
		// trace it too, so its layers report from a real run.
		var val []byte
		val, stub, err = simulate(ctx, sweepd.JobV1{Key: "stub", Spec: b.plan.stubRun}, tr, root.id())
		if err == nil && !bytes.Equal(val, b.plan.stub) {
			err = fmt.Errorf("traced stub simulation differs from the untraced one")
		}
	}
	pprof.StopCPUProfile()
	root.end()
	if err != nil {
		return report{}, nil, err
	}
	recordParallel(rc, plain)
	recordParallel(rc, ps)

	pkgs, total, err := packageSelfTime(prof.Bytes())
	if err != nil {
		return report{}, nil, err
	}
	sims := ps.w.sims
	if b.plan.stub != nil {
		sims = append(sims, stub)
	}
	m := layerMetrics(ps, sims, pkgs, total)
	jobRate := func(r roundStat) (float64, time.Duration) { return float64(r.freshJobs), r.freshDur }
	m["trace_overhead_frac"] = plain.rate(jobRate)/ps.rate(jobRate) - 1 // same rounds, same work
	attempted := plain.attempted + ps.attempted + b.setupChecks
	failed := plain.failed + ps.failed + b.setupFailures
	m["fail_frac"] = float64(failed) / float64(attempted)
	if m["max_rss_mb"], err = maxRSSMiB(); err != nil {
		return report{}, nil, err
	}
	m["host.gomaxprocs"] = float64(rc.GOMAXPROCS)
	m["host.num_cpu"] = float64(rc.NumCPU)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return report{}, nil, err
	}
	spanFile := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", b.workload, b.seed))
	if err := tr.write(spanFile, *rc); err != nil {
		return report{}, nil, err
	}
	lines := append(passLines(plain), passLines(ps)...)
	lines = append(lines,
		fmt.Sprintf("cpu profile: %d ms of samples; spans: %d in %s", total/1e6, len(tr.spans), spanFile),
		fmt.Sprintf("sweepd latency samples: %d claims, %d completes, %d submits", len(ps.w.claimMs), len(ps.w.completeMs), len(ps.submitMs)))
	return makeReport(perLayer, m, attempted, failed), lines, nil
}

// rate is the median over rounds of work per second, from the amount and
// time f picks out of each round. Rounds cost about the same, so the median
// shrugs off a round that a busy neighbour on the host slowed down.
func (ps *passStats) rate(f func(roundStat) (float64, time.Duration)) float64 {
	var rs []float64
	for _, r := range ps.rounds {
		if n, d := f(r); d > 0 {
			rs = append(rs, n/d.Seconds())
		}
	}
	return median(rs)
}

// recordParallel notes each simulation's parallel windows in the context.
func recordParallel(rc *runContext, ps *passStats) {
	for _, st := range ps.w.sims {
		rc.Parallel[st.key] = [2]int64{st.windows, st.winCyc}
	}
}

func passLines(ps *passStats) []string {
	out := []string{fmt.Sprintf("pass: %d rounds in %.2fs (%.2f CPU s), %d fresh jobs, %d resubmitted, %d/%d failed",
		len(ps.rounds), ps.wall.Seconds(), ps.procCPU.Seconds(), ps.freshJobs, ps.resubmitted, ps.failed, ps.attempted)}
	for _, f := range ps.firstFailures {
		out = append(out, "FAIL "+f)
	}
	return out
}

// makeReport keeps exactly the declared metrics, replacing a value that is
// not a number by 0 so the report stays valid JSON.
func makeReport(defs []metricDef, m map[string]float64, attempted, failed int) report {
	rep := report{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return rep
}

// layerMetrics computes the per-layer table of a traced pass.
func layerMetrics(ps *passStats, sims []simStat, pkgs map[string]int64, total int64) map[string]float64 {
	m := map[string]float64{}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var (
		n                                  = float64(len(sims))
		totalCyc, skipped, winCyc, engaged float64
		runNs, reads, drains, qdSum        float64
		rqOcc, bus, hits, acc              float64
		stall, cores, l2, retired          float64
		picks, cands, instrs               float64
	)
	for _, s := range sims {
		totalCyc += float64(s.total)
		skipped += float64(s.skipped)
		winCyc += float64(s.winCyc)
		if s.windows > 0 {
			engaged++
		}
		runNs += float64(s.runNs)
		reads += float64(s.reads)
		drains += float64(s.drains)
		qdSum += s.queueDelaySum
		rqOcc += s.readQOcc
		bus += s.busUtil
		hits += float64(s.rowHits)
		acc += float64(s.accesses)
		stall += s.stallSum
		cores += float64(s.cores)
		l2 += s.l2Misses
		retired += s.retired
		picks += float64(s.picks)
		cands += float64(s.cands)
		instrs += float64(s.instrs)
	}
	byLayer := map[string]int64{}
	for pkg, v := range pkgs {
		if l := layerOf(pkg); l != "" {
			byLayer[l] += v
		}
	}
	ticked := totalCyc - skipped
	m["sim.skip_frac"] = div(skipped, totalCyc)
	m["sim.ticked_cycles_per_run"] = div(ticked, n)
	m["sim.par_window_frac"] = div(winCyc, totalCyc)
	m["sim.par_engaged_frac"] = div(engaged, n)
	m["sim.host_ns_per_ticked_cycle"] = div(runNs, ticked)
	m["memctrl.reads_per_run"] = div(reads, n)
	m["memctrl.read_q_occ"] = div(rqOcc, n)
	m["memctrl.queue_delay_cyc"] = div(qdSum, reads)
	m["memctrl.drains_per_run"] = div(drains, n)
	m["sched.picks_per_run"] = div(picks, n)
	m["sched.cands_per_pick"] = div(cands, picks)
	m["sched.pick_ns"] = div(float64(byLayer["sched"]), picks)
	m["dram.row_hit_frac"] = div(hits, acc)
	m["dram.bus_util"] = div(bus, n)
	m["cpu.retire_stall_frac"] = div(stall, cores)
	m["trace.instrs_generated_per_run"] = div(instrs, n)
	m["trace.host_ns_per_instr"] = div(float64(byLayer["trace"]), instrs)
	m["cache.l2_mpki"] = div(l2*1000, retired)
	m["runtime.gc_frac"] = div(ps.gcCPU, ps.busyCPU)

	m["sweepd.submit_ms_p50"] = percentile(ps.submitMs, 0.50).Value
	m["sweepd.claim_ms_p50"] = percentile(ps.w.claimMs, 0.50).Value
	m["sweepd.claim_ms_p99"] = percentile(ps.w.claimMs, 0.99).Value
	m["sweepd.complete_ms_p50"] = percentile(ps.w.completeMs, 0.50).Value
	m["sweepd.complete_ms_p99"] = percentile(ps.w.completeMs, 0.99).Value
	m["sweepd.outcomes_wait_ms_p50"] = percentile(ps.outWait, 0.50).Value
	m["sweepd.claims_per_job"] = div(float64(ps.w.claims), float64(ps.freshJobs))
	m["sweepd.empty_claim_frac"] = div(float64(ps.w.empty), float64(ps.w.claims))
	m["sweepd.cache_hit_frac"] = div(float64(ps.cacheHits), float64(ps.resubmitted))
	m["sweep_ms.samples"] = float64(len(ps.sweepMs))

	for _, l := range layerPackages {
		m[l.layer+".host_self_frac"] = div(float64(byLayer[l.layer]), float64(total))
	}
	return m
}
