// Benchmarks regenerating each table and figure of the paper at reduced
// scale (one testing.B benchmark per artifact; cmd/experiments produces the
// full-size versions). Custom metrics attach the scientifically meaningful
// numbers — SMT speedups, latencies, unfairness — to the benchmark output,
// so `go test -bench=.` doubles as a miniature reproduction run.
package memsched_test

import (
	"context"
	"testing"
	"time"

	"memsched"
	"memsched/internal/lab"
	"memsched/internal/sweepd"
	"memsched/internal/trace"
	"memsched/internal/workload"
)

// benchSlice keeps per-iteration cost small; the shapes already show at this
// scale, absolute magnitudes need cmd/experiments' longer runs.
const benchSlice = 40_000

func mustMix(b *testing.B, name string) memsched.Mix {
	b.Helper()
	mix, err := memsched.MixByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return mix
}

func mixVectors(b *testing.B, mix memsched.Mix) (mes, singles []float64) {
	b.Helper()
	ctx := context.Background()
	apps, err := mix.Apps()
	if err != nil {
		b.Fatal(err)
	}
	_, mes, err = memsched.ProfileAllContext(ctx, apps, benchSlice, memsched.ProfileSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range apps {
		p, err := memsched.ProfileAppContext(ctx, a, benchSlice, memsched.EvalSeed)
		if err != nil {
			b.Fatal(err)
		}
		singles = append(singles, p.IPC)
	}
	return mes, singles
}

// benchRun is the evaluation-seed Run shorthand the benchmarks share.
func benchRun(mix memsched.Mix, policy string, mes []float64) (memsched.Result, error) {
	return memsched.Run(context.Background(), memsched.RunSpec{
		Mix: mix, Policy: policy, Instr: benchSlice, ME: mes, Seed: memsched.EvalSeed,
	})
}

// BenchmarkTable1ConfigValidate regenerates Table 1's parameter set.
func BenchmarkTable1ConfigValidate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{1, 2, 4, 8} {
			cfg := memsched.DefaultConfig(n)
			if err := cfg.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2Profiling measures the profiling methodology (Equation 1)
// on a spread of applications covering the ME range.
func BenchmarkTable2Profiling(b *testing.B) {
	codes := []byte{'e', 'c', 'i', 'n', 'a'}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var lastME float64 = -1
		for _, code := range codes {
			app, err := memsched.AppByCode(code)
			if err != nil {
				b.Fatal(err)
			}
			p, err := memsched.ProfileAppContext(context.Background(), app, benchSlice, memsched.ProfileSeed)
			if err != nil {
				b.Fatal(err)
			}
			if p.ME < lastME {
				b.Fatalf("ME ordering violated at %s", app.Name)
			}
			lastME = p.ME
		}
	}
}

// BenchmarkTable3WorkloadGen exercises workload construction: every mix
// resolved and every application's generator producing instructions.
func BenchmarkTable3WorkloadGen(b *testing.B) {
	var ins trace.Instr
	_ = ins
	for i := 0; i < b.N; i++ {
		for _, mix := range memsched.Mixes() {
			apps, err := mix.Apps()
			if err != nil {
				b.Fatal(err)
			}
			if len(apps) != mix.Cores() {
				b.Fatal("mix size mismatch")
			}
		}
	}
}

// BenchmarkFig2SpeedupSweep runs one memory-intensive 4-core workload under
// all five evaluated policies and reports their SMT speedups.
func BenchmarkFig2SpeedupSweep(b *testing.B) {
	mix := mustMix(b, "4MEM-1")
	mes, singles := mixVectors(b, mix)
	policies := []string{"hf-rf", "me", "rr", "lreq", "me-lreq"}
	speedups := make([]float64, len(policies))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pi, pol := range policies {
			res, err := benchRun(mix, pol, mes)
			if err != nil {
				b.Fatal(err)
			}
			sp, err := memsched.SMTSpeedup(res.IPCs(), singles)
			if err != nil {
				b.Fatal(err)
			}
			speedups[pi] = sp
		}
	}
	b.StopTimer()
	for pi, pol := range policies {
		b.ReportMetric(speedups[pi], "speedup-"+pol)
	}
}

// BenchmarkFig2EightCore runs the largest configuration (8 cores), where the
// paper reports the biggest ME-LREQ gains.
func BenchmarkFig2EightCore(b *testing.B) {
	mix := mustMix(b, "8MEM-4")
	mes, singles := mixVectors(b, mix)
	var gain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base, err := benchRun(mix, "hf-rf", mes)
		if err != nil {
			b.Fatal(err)
		}
		best, err := benchRun(mix, "me-lreq", mes)
		if err != nil {
			b.Fatal(err)
		}
		spBase, err := memsched.SMTSpeedup(base.IPCs(), singles)
		if err != nil {
			b.Fatal(err)
		}
		spBest, err := memsched.SMTSpeedup(best.IPCs(), singles)
		if err != nil {
			b.Fatal(err)
		}
		gain = spBest/spBase - 1
	}
	b.StopTimer()
	b.ReportMetric(gain*100, "melreq-gain-%")
}

// BenchmarkFig3FixedPriority compares the arbitrary fixed orders of
// Section 5.2 against HF-RF and ME on the workload the paper highlights
// (4MEM-1: FIX-3210 hurts it, FIX-0123 helps slightly).
func BenchmarkFig3FixedPriority(b *testing.B) {
	mix := mustMix(b, "4MEM-1")
	mes, singles := mixVectors(b, mix)
	policies := []string{"hf-rf", "me", "fix:3210", "fix:0123"}
	speedups := make([]float64, len(policies))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pi, pol := range policies {
			res, err := benchRun(mix, pol, mes)
			if err != nil {
				b.Fatal(err)
			}
			sp, err := memsched.SMTSpeedup(res.IPCs(), singles)
			if err != nil {
				b.Fatal(err)
			}
			speedups[pi] = sp
		}
	}
	b.StopTimer()
	for pi, pol := range policies {
		b.ReportMetric(speedups[pi], "speedup-"+pol)
	}
}

// BenchmarkFig4ReadLatency reports the average memory read latency under the
// baseline and under ME-LREQ (paper Figure 4 left: ME-LREQ is lowest among
// the balanced schemes).
func BenchmarkFig4ReadLatency(b *testing.B) {
	mix := mustMix(b, "4MEM-1")
	mes, _ := mixVectors(b, mix)
	var latBase, latBest float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base, err := benchRun(mix, "hf-rf", mes)
		if err != nil {
			b.Fatal(err)
		}
		best, err := benchRun(mix, "me-lreq", mes)
		if err != nil {
			b.Fatal(err)
		}
		latBase, latBest = base.AvgReadLatency, best.AvgReadLatency
	}
	b.StopTimer()
	b.ReportMetric(latBase, "lat-hf-rf")
	b.ReportMetric(latBest, "lat-me-lreq")
}

// BenchmarkFig5Unfairness reports the unfairness metric for the fixed ME
// scheme vs ME-LREQ (paper Figure 5: ME is the least fair, ME-LREQ improves
// on the baseline).
func BenchmarkFig5Unfairness(b *testing.B) {
	mix := mustMix(b, "4MEM-5")
	mes, singles := mixVectors(b, mix)
	var uME, uMELREQ float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resME, err := benchRun(mix, "me", mes)
		if err != nil {
			b.Fatal(err)
		}
		resML, err := benchRun(mix, "me-lreq", mes)
		if err != nil {
			b.Fatal(err)
		}
		if uME, err = memsched.Unfairness(resME.IPCs(), singles); err != nil {
			b.Fatal(err)
		}
		if uMELREQ, err = memsched.Unfairness(resML.IPCs(), singles); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(uME, "unfairness-me")
	b.ReportMetric(uMELREQ, "unfairness-me-lreq")
}

// BenchmarkAblationQuantization compares exact division against the paper's
// 10-bit hardware tables (the approximation argued for in Section 3.2).
func BenchmarkAblationQuantization(b *testing.B) {
	mix := mustMix(b, "4MEM-1")
	mes, singles := mixVectors(b, mix)
	apps, err := mix.Apps()
	if err != nil {
		b.Fatal(err)
	}
	run := func(bits int) float64 {
		cfg := memsched.DefaultConfig(len(apps))
		cfg.Memory.PriorityBits = bits
		sys, err := memsched.NewSystem(memsched.Options{
			Config: &cfg, Policy: "me-lreq", Apps: apps, ME: mes, Seed: memsched.EvalSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.RunContext(context.Background(), benchSlice, 0)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := memsched.SMTSpeedup(res.IPCs(), singles)
		if err != nil {
			b.Fatal(err)
		}
		return sp
	}
	var exact, quant float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact = run(0)
		quant = run(10)
	}
	b.StopTimer()
	b.ReportMetric(exact, "speedup-exact")
	b.ReportMetric(quant, "speedup-10bit")
}

// BenchmarkSweepMatrix measures the parallel experiment engine end to end:
// a fresh lab primes a small (mix, policy) matrix through internal/runner's
// worker pool each iteration — profiling, single-core references and every
// evaluation included — so regressions in the engine's dispatch or in lab
// caching show up here rather than only in full cmd/experiments runs.
func BenchmarkSweepMatrix(b *testing.B) {
	mixes := workload.MixesFor(2, "MEM")[:2]
	policies := []string{"hf-rf", "lreq", "me-lreq"}
	var speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := lab.New(lab.Options{Instr: benchSlice, ProfInstr: benchSlice, Workers: 0})
		runs, err := l.Grid(context.Background(), mixes, policies)
		if err != nil {
			b.Fatal(err)
		}
		speedup = runs[0][2].Speedup
	}
	b.StopTimer()
	b.ReportMetric(speedup, "speedup-me-lreq")
}

// BenchmarkFig3MemoryBound measures simulation throughput on a fully
// memory-bound workload (8MEM-1: eight MEM-class applications), where cores
// spend most cycles stalled on DRAM and the quiescence-aware run loop has
// the most cycles to skip. The skip-ratio metric is the fraction of simulated
// cycles the next-event loop jumped over instead of ticking.
func BenchmarkFig3MemoryBound(b *testing.B) {
	mix := mustMix(b, "8MEM-1")
	spec := memsched.RunSpec{Mix: mix, Policy: "hf-rf", Instr: benchSlice, Seed: memsched.EvalSeed}
	// Reference pass with next-event advance disabled, timed outside the
	// benchmark loop: skip-speedup is the wall-clock ratio naive/skipping.
	naiveStart := time.Now()
	naiveSpec := spec
	naiveSpec.NoCycleSkip = true
	if _, err := memsched.Run(context.Background(), naiveSpec); err != nil {
		b.Fatal(err)
	}
	naive := time.Since(naiveStart)
	var cycles, skipped int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := memsched.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.TotalCycles
		skipped += res.SkippedCycles
	}
	b.StopTimer()
	if cycles > 0 {
		b.ReportMetric(float64(skipped)/float64(cycles), "skip-ratio")
	}
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
		perRun := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(naive.Seconds()/perRun, "skip-speedup")
	}
}

// BenchmarkSweepdThroughput measures the sweep service's coordination cost
// — submit, claim, complete, aggregate with stub executors — through the
// coordinator's handler in-process, with one worker. LoadTest submits every
// sweep before the worker starts, so the worker never finds the queue empty
// and never sleeps, and allocs/op depends on the code alone. The single arm
// claims and completes one lease per round trip on a one-shard coordinator;
// the batched arm moves 32 per round trip across the default shards.
// In-process, what batching pays back is handler calls and JSON encodes;
// the loopback jobs/sec, where round trips also cost syscalls, is measured
// by `sweepd loadtest`.
func BenchmarkSweepdThroughput(b *testing.B) {
	const jobs = 1000
	for _, arm := range []struct {
		name          string
		batch, shards int
	}{{"single", 1, 1}, {"batched", 32, sweepd.DefaultShards}} {
		b.Run(arm.name, func(b *testing.B) {
			var jobsPerSec float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := sweepd.LoadTest(context.Background(), sweepd.LoadOptions{
					Jobs: jobs, Workers: 1, Batch: arm.batch, Shards: arm.shards, InProcess: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				jobsPerSec = rep.JobsPerSec
			}
			b.StopTimer()
			b.ReportMetric(jobsPerSec, "jobs/sec")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed in simulated
// cycles per second on a 4-core memory-intensive run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	mix := mustMix(b, "4MEM-1")
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := benchRun(mix, "me-lreq", nil)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.TotalCycles
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
	}
}
