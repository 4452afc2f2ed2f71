package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"memsched/internal/config"
	"memsched/internal/metrics"
	"memsched/internal/trace"
	"memsched/internal/workload"
)

const testSlice = 30_000 // instructions per core in tests: small but stable

func app(t *testing.T, code byte) workload.App {
	t.Helper()
	a, err := workload.ByCode(code)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSingleCoreRunCompletes(t *testing.T) {
	sys, err := New(Options{Policy: "hf-rf", Apps: []workload.App{app(t, 'c')}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunContext(context.Background(), testSlice, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cores[0]
	if c.Retired != testSlice {
		t.Fatalf("retired %d, want %d", c.Retired, testSlice)
	}
	if c.IPC <= 0 || c.IPC > 4 {
		t.Fatalf("swim single-core IPC = %v, want in (0, 4]", c.IPC)
	}
	if c.MemReads == 0 {
		t.Fatal("swim generated no memory reads")
	}
	if c.BandwidthGBs <= 0 {
		t.Fatal("no bandwidth recorded")
	}
	if res.TotalCycles != c.Cycles {
		t.Fatalf("single-core total cycles %d != core cycles %d", res.TotalCycles, c.Cycles)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := New(Options{Policy: "hf-rf"}); err == nil {
		t.Error("no apps accepted")
	}
	if _, err := New(Options{Policy: "bogus", Apps: []workload.App{app(t, 'c')}}); err == nil {
		t.Error("bogus policy accepted")
	}
	if _, err := New(Options{Policy: "hf-rf", Apps: []workload.App{app(t, 'c')},
		ME: []float64{1, 2}}); err == nil {
		t.Error("mismatched ME vector accepted")
	}
	// A data region past half the region stride overlaps the core's code
	// region and the next core's region.
	huge := app(t, 'c')
	huge.Params.FootprintLines = 1 << 40
	if _, err := New(Options{Policy: "hf-rf", Apps: []workload.App{huge}}); err == nil {
		t.Error("2^40-line footprint accepted")
	}
	// A generator override replaces the data stream, not the front end,
	// which still draws taken branches from the app's TakenProb.
	nan := app(t, 'c')
	nan.Params.TakenProb = math.NaN()
	if _, err := New(Options{Policy: "hf-rf", Apps: []workload.App{nan},
		Generators: []trace.Generator{&fixedGen{}}}); err == nil {
		t.Error("NaN TakenProb accepted with a generator override")
	}
	sys, err := New(Options{Policy: "hf-rf", Apps: []workload.App{app(t, 'c')}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunContext(context.Background(), 0, 0); err == nil {
		t.Error("zero instruction target accepted")
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() Result {
		sys, err := New(Options{Policy: "me-lreq",
			Apps: []workload.App{app(t, 'c'), app(t, 'a')}, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunContext(context.Background(), 20_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalCycles != b.TotalCycles {
		t.Fatalf("nondeterministic: %d vs %d cycles", a.TotalCycles, b.TotalCycles)
	}
	for i := range a.Cores {
		if a.Cores[i].IPC != b.Cores[i].IPC {
			t.Fatalf("core %d IPC differs across identical runs", i)
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	run := func(seed uint64) int64 {
		sys, err := New(Options{Policy: "hf-rf", Apps: []workload.App{app(t, 'c')}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunContext(context.Background(), 20_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalCycles
	}
	if run(1) == run(999) {
		t.Fatal("different seeds produced identical cycle counts (suspicious)")
	}
}

func TestMultiCoreContentionSlowsCores(t *testing.T) {
	// Four applu instances (the heaviest streamer) must run slower on
	// average than applu alone. (At two cores the paper itself reports
	// insignificant contention, so the check uses four.)
	alone, err := New(Options{Policy: "hf-rf", Apps: []workload.App{app(t, 'e')}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	resAlone, err := alone.RunContext(context.Background(), testSlice, 0)
	if err != nil {
		t.Fatal(err)
	}
	quad, err := New(Options{Policy: "hf-rf",
		Apps: []workload.App{app(t, 'e'), app(t, 'e'), app(t, 'e'), app(t, 'e')}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	resQuad, err := quad.RunContext(context.Background(), testSlice, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range resQuad.Cores {
		sum += c.IPC
	}
	if avg := sum / 4; avg >= resAlone.Cores[0].IPC {
		t.Errorf("4-core average IPC %v not below solo IPC %v: no memory contention",
			avg, resAlone.Cores[0].IPC)
	}
}

func TestProfileOrderingMatchesTable2(t *testing.T) {
	// Measured ME must reproduce the paper's ordering for a spread of apps:
	// applu (1) < swim (2) < galgel (8) < facerec (40) < gzip (192) << eon.
	codes := []byte{'e', 'c', 'i', 'n', 'a', 't'}
	mes := make([]float64, len(codes))
	for i, code := range codes {
		p, err := ProfileAppContext(context.Background(), app(t, code), testSlice, ProfileSeed)
		if err != nil {
			t.Fatal(err)
		}
		if p.IPC <= 0 {
			t.Fatalf("%s: IPC %v", p.App, p.IPC)
		}
		mes[i] = p.ME
	}
	for i := 1; i < len(mes); i++ {
		// Strict ordering among apps with measurable traffic; the sparsest
		// profiles (gzip, eon) may see only a handful of requests in a short
		// test slice, so the final step tolerates near-ties.
		if codes[i] == 't' {
			if mes[i] < mes[i-1]*(1-1e-6) {
				t.Errorf("ME ordering violated at %q (%v) vs %q (%v)",
					string(codes[i]), mes[i], string(codes[i-1]), mes[i-1])
			}
			continue
		}
		if mes[i] <= mes[i-1] {
			t.Errorf("ME ordering violated at %q (%v) vs %q (%v)",
				string(codes[i]), mes[i], string(codes[i-1]), mes[i-1])
		}
	}
}

func TestClassification(t *testing.T) {
	// applu must classify MEM (huge perfect-memory gain), eon must be ILP.
	cases := []struct {
		code byte
		want workload.Class
	}{
		{'e', workload.MEM},
		{'k', workload.MEM},
		{'t', workload.ILP},
		{'u', workload.ILP},
	}
	for _, c := range cases {
		a := app(t, c.code)
		p, err := ProfileAppContext(context.Background(), a, testSlice, ProfileSeed)
		if err != nil {
			t.Fatal(err)
		}
		if err := ClassifyContext(context.Background(), a, &p, testSlice, ProfileSeed); err != nil {
			t.Fatal(err)
		}
		if p.Class != c.want {
			t.Errorf("%s: measured class %v (gain %.1f%%), paper class %v",
				a.Name, p.Class, p.Gain*100, c.want)
		}
	}
}

func TestRunWithProfiledME(t *testing.T) {
	mix, err := workload.MixByName("2MEM-1")
	if err != nil {
		t.Fatal(err)
	}
	apps, err := mix.Apps()
	if err != nil {
		t.Fatal(err)
	}
	_, mes, err := ProfileAllContext(context.Background(), apps, 20_000, ProfileSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), RunSpec{Mix: mix, Policy: "me-lreq", Instr: 20_000, ME: mes, Seed: EvalSeed})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 2 {
		t.Fatalf("cores = %d", len(res.Cores))
	}
	if res.AvgReadLatency <= 0 {
		t.Fatal("no average read latency")
	}
}

func TestPoliciesProduceDifferentSchedules(t *testing.T) {
	// On a contended 4-core MEM workload, at least some policies must
	// produce different total runtimes.
	mix, err := workload.MixByName("4MEM-1")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, pol := range []string{"hf-rf", "rr", "lreq", "me-lreq"} {
		res, err := Run(context.Background(), RunSpec{Mix: mix, Policy: pol, Instr: 15_000, Seed: EvalSeed})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		seen[res.TotalCycles] = true
	}
	if len(seen) < 2 {
		t.Fatal("all four policies produced identical runtimes — scheduling has no effect")
	}
}

func TestSMTSpeedupSane(t *testing.T) {
	mix, err := workload.MixByName("2MIX-1")
	if err != nil {
		t.Fatal(err)
	}
	apps, err := mix.Apps()
	if err != nil {
		t.Fatal(err)
	}
	singles := make([]float64, len(apps))
	for i, a := range apps {
		p, err := ProfileAppContext(context.Background(), a, 20_000, EvalSeed)
		if err != nil {
			t.Fatal(err)
		}
		singles[i] = p.IPC
	}
	res, err := Run(context.Background(), RunSpec{Mix: mix, Policy: "hf-rf", Instr: 20_000, Seed: EvalSeed})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := metrics.SMTSpeedup(res.IPCs(), singles)
	if err != nil {
		t.Fatal(err)
	}
	if sp <= 0 || sp > float64(len(apps))*1.1 {
		t.Fatalf("2-core SMT speedup = %v, want in (0, 2.2]", sp)
	}
}

func TestOnlineMEEstimatorTracks(t *testing.T) {
	apps := []workload.App{app(t, 'c'), app(t, 'a')} // swim (low ME) + gzip (high ME)
	sys, err := New(Options{Policy: "me-lreq", Apps: apps, Seed: 5,
		OnlineME: true, OnlineEpoch: 20_000,
		// Start from deliberately WRONG static values: online estimation
		// must recover the true ordering.
		ME: []float64{1000, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunContext(context.Background(), 60_000, 0); err != nil {
		t.Fatal(err)
	}
	est := sys.online
	if est.Estimate(0) <= 0 || est.Estimate(1) <= 0 {
		t.Fatalf("estimates not produced: %v, %v", est.Estimate(0), est.Estimate(1))
	}
	if est.Estimate(0) >= est.Estimate(1) {
		t.Fatalf("online ME: swim (%v) should be far below gzip (%v)",
			est.Estimate(0), est.Estimate(1))
	}
	// And the controller table must have been reloaded accordingly.
	tab := sys.Controller().Table()
	if tab.ME(0) >= tab.ME(1) {
		t.Fatalf("table not reloaded: ME(0)=%v ME(1)=%v", tab.ME(0), tab.ME(1))
	}
}

func TestPerfectMemoryConfigRun(t *testing.T) {
	cfg := config.Default(1)
	cfg.PerfectMemory = true
	sys, err := New(Options{Config: &cfg, Policy: "hf-rf",
		Apps: []workload.App{app(t, 'e')}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunContext(context.Background(), testSlice, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DRAM.Accesses() != 0 {
		t.Fatalf("perfect memory performed %d DRAM accesses", res.DRAM.Accesses())
	}
}

// fixedGen emits a repeating load/compute pattern for generator-override
// tests.
type fixedGen struct{ i int }

func (g *fixedGen) Next(ins *trace.Instr) {
	g.i++
	if g.i%4 == 0 {
		*ins = trace.Instr{Kind: trace.KindLoad, Line: uint64(g.i % 997)}
		return
	}
	*ins = trace.Instr{Kind: trace.KindInt}
}

func TestGeneratorOverride(t *testing.T) {
	a := app(t, 'c')
	sys, err := New(Options{
		Policy:     "hf-rf",
		Apps:       []workload.App{a},
		Generators: []trace.Generator{&fixedGen{}},
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunContext(context.Background(), 20_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The override pattern is 25% loads over a tiny footprint: the run must
	// complete with near-zero DRAM traffic after warmup (hot set fits L1).
	if res.Cores[0].Retired != 20_000 {
		t.Fatalf("retired %d", res.Cores[0].Retired)
	}
	if res.Cores[0].MemReads > 100 {
		t.Fatalf("override generator produced %d memory reads, want ~0", res.Cores[0].MemReads)
	}
}

func TestGeneratorOverrideCountMismatch(t *testing.T) {
	a := app(t, 'c')
	_, err := New(Options{
		Policy:     "hf-rf",
		Apps:       []workload.App{a},
		Generators: []trace.Generator{&fixedGen{}, &fixedGen{}},
		Seed:       1,
	})
	if err == nil {
		t.Fatal("generator count mismatch accepted")
	}
}

func TestNoWarmupOption(t *testing.T) {
	a := app(t, 't') // eon: almost no traffic, so cold misses dominate early
	run := func(noWarmup bool) float64 {
		sys, err := New(Options{Policy: "hf-rf", Apps: []workload.App{a},
			Seed: 1, NoWarmup: noWarmup})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunContext(context.Background(), 20_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cores[0].IPC
	}
	warm, cold := run(false), run(true)
	if cold >= warm {
		t.Fatalf("cold-start IPC %.3f should be below warmed IPC %.3f", cold, warm)
	}
}

func TestEnergyReported(t *testing.T) {
	sys, err := New(Options{Policy: "hf-rf", Apps: []workload.App{app(t, 'c')}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunContext(context.Background(), 20_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Energy
	if e.TotalNJ <= 0 || e.AvgPowerMW <= 0 {
		t.Fatalf("energy not populated: %+v", e)
	}
	sum := e.ActivateNJ + e.ReadNJ + e.WriteNJ + e.RefreshNJ + e.BackgroundNJ
	if diff := sum - e.TotalNJ; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("components (%v) != total (%v)", sum, e.TotalNJ)
	}
	if e.ReadNJ <= 0 {
		t.Fatal("swim produced no read energy")
	}
	if e.RefreshNJ != 0 {
		t.Fatal("refresh energy with refresh disabled")
	}
}

func TestEveryPolicySmoke(t *testing.T) {
	// Every registered policy must complete a small 2-core MEM run with
	// sane results — the catch-all regression for new policies.
	mix, err := workload.MixByName("2MEM-4") // mcf + equake: stress both patterns
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"fcfs", "hf-rf", "rr", "lreq", "me", "me-lreq", "fq", "burst", "fix:01", "fix:10"} {
		res, err := Run(context.Background(), RunSpec{Mix: mix, Policy: pol, Instr: 15_000, Seed: EvalSeed})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		for i, c := range res.Cores {
			if c.IPC <= 0 || c.IPC > 4 {
				t.Errorf("%s core %d: IPC %v", pol, i, c.IPC)
			}
			if c.Retired != 15_000 {
				t.Errorf("%s core %d: retired %d", pol, i, c.Retired)
			}
		}
		if res.DRAM.Accesses() == 0 {
			t.Errorf("%s: no DRAM traffic on a MEM mix", pol)
		}
	}
}

func TestWarmupChangesOnlyStatistics(t *testing.T) {
	// With and without warmup the run completes; warmup must not leak into
	// the measured instruction count.
	a := app(t, 'c')
	for _, warm := range []uint64{0, 5_000, 20_000} {
		sys, err := New(Options{Policy: "hf-rf", Apps: []workload.App{a},
			Seed: 1, WarmupInstr: warm})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunContext(context.Background(), 10_000, 0)
		if err != nil {
			t.Fatalf("warmup %d: %v", warm, err)
		}
		if res.Cores[0].Retired != 10_000 {
			t.Fatalf("warmup %d: retired %d", warm, res.Cores[0].Retired)
		}
	}
}

func TestLatencyDecompositionConsistent(t *testing.T) {
	res, err := Run(context.Background(), RunSpec{Mix: mustMixT(t, "2MEM-2"), Policy: "hf-rf", Instr: 20_000, Seed: EvalSeed})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Cores {
		if c.MemReads == 0 {
			continue
		}
		// QueueDelay is sampled at issue while latency/service are sampled
		// at completion, so reads in flight at the freeze boundary make the
		// means differ slightly; require agreement within 2%.
		sum := c.AvgQueueDelay + c.AvgServiceTime
		if diff := sum - c.AvgReadLatency; diff > 0.02*c.AvgReadLatency || diff < -0.02*c.AvgReadLatency {
			t.Errorf("core %d: queue %.1f + service %.1f != latency %.1f",
				i, c.AvgQueueDelay, c.AvgServiceTime, c.AvgReadLatency)
		}
		if int64(c.AvgReadLatency) > c.P95ReadLatency {
			t.Errorf("core %d: mean %v above p95 bound %d", i, c.AvgReadLatency, c.P95ReadLatency)
		}
	}
}

func mustMixT(t *testing.T, name string) workload.Mix {
	t.Helper()
	mix, err := workload.MixByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return mix
}

func TestRunSpecAppsOverrideMix(t *testing.T) {
	apps := []workload.App{app(t, 'c'), app(t, 'e')}
	res, err := Run(context.Background(), RunSpec{Apps: apps, Policy: "hf-rf", Instr: testSlice, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 2 || res.Cores[0].App != apps[0].Name {
		t.Fatalf("apps not honored: %+v", res.Cores)
	}
}

func TestRunSpecValidation(t *testing.T) {
	if _, err := Run(context.Background(), RunSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	mix, _ := workload.MixByName("2MEM-1")
	if _, err := Run(context.Background(), RunSpec{Mix: mix, Policy: "me-lreq"}); err == nil {
		t.Fatal("zero Instr accepted")
	}
}

// TestRunContextCancellation proves the cycle-granularity guarantee: a run
// whose context is cancelled mid-flight returns promptly with ctx's error,
// and an already-cancelled context never starts ticking.
func TestRunContextCancellation(t *testing.T) {
	mix, err := workload.MixByName("2MEM-1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, RunSpec{Mix: mix, Policy: "me-lreq", Instr: testSlice, Seed: EvalSeed}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
	}

	// A deadline shorter than the run observes DeadlineExceeded mid-simulation.
	ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = Run(ctx, RunSpec{Mix: mix, Policy: "me-lreq", Instr: 10_000_000, Seed: EvalSeed})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out run returned %v, want context.DeadlineExceeded", err)
	}
	// Generous bound: cancellation is checked every CancelCheckCycles, so
	// the return must be near-immediate, not after the 10M-instruction run.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestRunContextDoesNotPerturb pins that supplying a cancellable (but never
// cancelled) context yields byte-identical results to Background.
func TestRunContextDoesNotPerturb(t *testing.T) {
	mix, err := workload.MixByName("2MEM-1")
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Mix: mix, Policy: "me-lreq", Instr: testSlice, Seed: EvalSeed}
	plain, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancellable, err := Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cancellable) {
		t.Fatal("cancellable context perturbed the simulation")
	}
}
