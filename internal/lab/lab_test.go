package lab

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"memsched/internal/sim"
	"memsched/internal/workload"
)

func testLab() *Lab {
	return New(Options{Instr: 15_000, ProfInstr: 15_000, Workers: 2})
}

// matrix lists every classless (mix, policy) evaluation, mixes outermost.
func matrix(mixes []workload.Mix, policies []string) []ClassedJob {
	var jobs []ClassedJob
	for _, mix := range mixes {
		for _, pol := range policies {
			jobs = append(jobs, ClassedJob{Mix: mix, Policy: pol})
		}
	}
	return jobs
}

func TestDefaults(t *testing.T) {
	l := New(Options{})
	if l.opts.Instr != 200_000 || l.opts.ProfInstr != 200_000 {
		t.Fatalf("defaults: %+v", l.opts)
	}
	if l.opts.Seed != sim.EvalSeed {
		t.Fatalf("seed default = %d", l.opts.Seed)
	}
}

func TestProfileCached(t *testing.T) {
	l := testLab()
	ctx := context.Background()
	calls := 0
	l.opts.Logf = func(string, ...any) { calls++ }
	a, err := l.Profile(ctx, 'c')
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Profile(ctx, 'c')
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cached profile differs")
	}
	if calls != 1 {
		t.Fatalf("profiling ran %d times, want 1", calls)
	}
	if _, err := l.Profile(ctx, '!'); err == nil {
		t.Fatal("unknown code accepted")
	}
}

func TestSetProfileOverrides(t *testing.T) {
	l := testLab()
	l.SetProfile('c', sim.Profile{App: "custom", ME: 42})
	p, err := l.Profile(context.Background(), 'c')
	if err != nil {
		t.Fatal(err)
	}
	if p.ME != 42 || p.App != "custom" {
		t.Fatalf("override not retained: %+v", p)
	}
}

func TestRunCachedAndDeterministic(t *testing.T) {
	l := testLab()
	mix, err := workload.MixByName("2MEM-1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := l.Run(ctx, mix, "me-lreq")
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Run(ctx, mix, "me-lreq")
	if err != nil {
		t.Fatal(err)
	}
	if a.Speedup != b.Speedup || a.Result.TotalCycles != b.Result.TotalCycles {
		t.Fatal("cached run differs")
	}
	// A fresh lab with identical options reproduces the same numbers.
	l2 := testLab()
	c, err := l2.Run(ctx, mix, "me-lreq")
	if err != nil {
		t.Fatal(err)
	}
	if c.Speedup != a.Speedup {
		t.Fatalf("fresh lab speedup %v != %v", c.Speedup, a.Speedup)
	}
}

func TestRunBadPolicy(t *testing.T) {
	l := testLab()
	mix, _ := workload.MixByName("2MEM-1")
	if _, err := l.Run(context.Background(), mix, "definitely-not-a-policy"); err == nil {
		t.Fatal("bad policy accepted")
	} else if !strings.Contains(err.Error(), "2MEM-1") {
		t.Fatalf("error lacks workload context: %v", err)
	}
}

func TestPrimeThenRunIsCacheHit(t *testing.T) {
	l := testLab()
	mixes := workload.MixesFor(2, "MEM")[:2]
	policies := []string{"hf-rf", "lreq"}
	ctx := context.Background()
	if err := l.Prime(ctx, matrix(mixes, policies)); err != nil {
		t.Fatal(err)
	}
	ran := 0
	l.opts.Logf = func(format string, _ ...any) {
		if strings.Contains(format, "speedup") {
			ran++
		}
	}
	for _, mix := range mixes {
		for _, pol := range policies {
			if _, err := l.Run(ctx, mix, pol); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ran != 0 {
		t.Fatalf("%d runs executed after Prime, want 0", ran)
	}
}

func TestPrimeParallelMatchesSerial(t *testing.T) {
	mix, _ := workload.MixByName("2MEM-3")
	serial := New(Options{Instr: 15_000, ProfInstr: 15_000, Workers: 1})
	parallel := New(Options{Instr: 15_000, ProfInstr: 15_000, Workers: 4})
	policies := []string{"hf-rf", "rr", "me-lreq"}
	a, err := serial.Grid(context.Background(), []workload.Mix{mix}, policies)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.Grid(context.Background(), []workload.Mix{mix}, policies)
	if err != nil {
		t.Fatal(err)
	}
	for j, pol := range policies {
		if a[0][j].Speedup != b[0][j].Speedup {
			t.Fatalf("%s: parallel %v != serial %v", pol, b[0][j].Speedup, a[0][j].Speedup)
		}
	}
}

func TestPrimePropagatesErrors(t *testing.T) {
	l := testLab()
	mixes := workload.MixesFor(2, "MEM")[:1]
	if err := l.Prime(context.Background(), matrix(mixes, []string{"hf-rf", "bogus"})); err == nil {
		t.Fatal("Prime swallowed a bad policy")
	}
}

func TestOnlinePolicyRuns(t *testing.T) {
	l := testLab()
	mix, _ := workload.MixByName("2MEM-1")
	out, err := l.Run(context.Background(), mix, OnlinePolicy)
	if err != nil {
		t.Fatal(err)
	}
	if out.Speedup <= 0 {
		t.Fatalf("online speedup = %v", out.Speedup)
	}
	// Replicas build their run through the same path, so they accept the
	// pseudo-policy too, and replica 0 is the cached run at the base seed.
	rep, err := l.RunReplicated(context.Background(), mix, OnlinePolicy, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples[0] != out.Speedup {
		t.Fatalf("replica 0 speedup %v != Run's %v", rep.Samples[0], out.Speedup)
	}
}

func TestUnfairness(t *testing.T) {
	l := testLab()
	mix, _ := workload.MixByName("2MEM-1")
	f, err := l.Fairness(context.Background(), mix, "hf-rf")
	if err != nil {
		t.Fatal(err)
	}
	if f.Unfairness < 1 {
		t.Fatalf("unfairness %v < 1", f.Unfairness)
	}
}

func TestFairnessSuite(t *testing.T) {
	l := testLab()
	mix, _ := workload.MixByName("2MEM-1")
	f, err := l.Fairness(context.Background(), mix, "bliss")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Slowdowns) != 2 {
		t.Fatalf("slowdown vector length %d, want 2", len(f.Slowdowns))
	}
	maxS := f.Slowdowns[0]
	for _, s := range f.Slowdowns {
		if s > maxS {
			maxS = s
		}
	}
	if f.MaxSlowdown != maxS {
		t.Errorf("MaxSlowdown %v != max of vector %v", f.MaxSlowdown, f.Slowdowns)
	}
	if f.Unfairness < 1 {
		t.Errorf("unfairness %v < 1", f.Unfairness)
	}
	if f.HarmonicSpeedup <= 0 || f.HarmonicSpeedup > f.Speedup/2+1e-9 {
		t.Errorf("harmonic speedup %v outside (0, SMT/n] for SMT %v", f.HarmonicSpeedup, f.Speedup)
	}
}

func TestMixVectorsShape(t *testing.T) {
	l := testLab()
	mix, _ := workload.MixByName("4MEM-1")
	mes, singles, err := l.MixVectors(context.Background(), mix)
	if err != nil {
		t.Fatal(err)
	}
	if len(mes) != 4 || len(singles) != 4 {
		t.Fatalf("vector lengths %d/%d", len(mes), len(singles))
	}
	for i := range mes {
		if mes[i] <= 0 || singles[i] <= 0 {
			t.Fatalf("non-positive vector entries: %v %v", mes, singles)
		}
	}
}

func TestRunReplicated(t *testing.T) {
	l := testLab()
	mix, _ := workload.MixByName("2MEM-1")
	rep, err := l.RunReplicated(context.Background(), mix, "me-lreq", 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 3 || len(rep.Samples) != 3 {
		t.Fatalf("replicas: %+v", rep)
	}
	if rep.Mean <= 0 {
		t.Fatalf("mean = %v", rep.Mean)
	}
	// Different seeds should show SOME variance (deterministic but distinct).
	if rep.Samples[0] == rep.Samples[1] && rep.Samples[1] == rep.Samples[2] {
		t.Fatal("all replicas identical — seeds not varying")
	}
	if rep.StdDev <= 0 {
		t.Fatalf("stddev = %v", rep.StdDev)
	}
	// The mean sits within the sample range.
	lo, hi := rep.Samples[0], rep.Samples[0]
	for _, s := range rep.Samples {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if rep.Mean < lo || rep.Mean > hi {
		t.Fatalf("mean %v outside [%v, %v]", rep.Mean, lo, hi)
	}
	if _, err := l.RunReplicated(context.Background(), mix, "me-lreq", 0); err == nil {
		t.Fatal("zero replicas accepted")
	}
}

func TestRunReplicatedSingle(t *testing.T) {
	l := testLab()
	mix, _ := workload.MixByName("2MEM-1")
	rep, err := l.RunReplicated(context.Background(), mix, "hf-rf", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StdDev != 0 {
		t.Fatalf("single replica stddev = %v", rep.StdDev)
	}
}

// TestRunReplicatedCancellation checks that the replica loop honours its
// context: with the mix's profiles already cached, a cancelled context fails
// with context.Canceled before any replica completes.
func TestRunReplicatedCancellation(t *testing.T) {
	l := testLab()
	mix, _ := workload.MixByName("2MEM-1")
	if _, _, err := l.MixVectors(context.Background(), mix); err != nil {
		t.Fatal(err)
	}
	replicas := 0
	l.opts.Logf = func(format string, _ ...any) {
		if strings.Contains(format, "replica") {
			replicas++
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := l.RunReplicated(ctx, mix, "me-lreq", 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunReplicated on cancelled ctx = %v, want context.Canceled", err)
	}
	if replicas != 0 {
		t.Fatalf("%d replicas completed after cancellation, want 0", replicas)
	}
}

func TestPrimeContextCancellation(t *testing.T) {
	l := testLab()
	mix, _ := workload.MixByName("2MEM-1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := l.Prime(ctx, []ClassedJob{{Mix: mix, Policy: "hf-rf"}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Prime on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestPrimeCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lab.ckpt.json")
	opts := Options{Instr: 15_000, ProfInstr: 15_000, Workers: 2, Checkpoint: path}
	mixes := workload.MixesFor(2, "MEM")[:2]
	policies := []string{"hf-rf", "me-lreq"}

	ctx := context.Background()
	first := New(opts)
	if err := first.Prime(ctx, matrix(mixes, policies)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}

	// A fresh lab's Grid on the same checkpoint resumes every evaluation
	// instead of re-simulating, and returns identical numbers.
	// Logf runs on the runner's workers, so the counters are atomic.
	second := New(opts)
	var ran atomic.Int64
	second.opts.Logf = func(format string, _ ...any) {
		if strings.Contains(format, "speedup") {
			ran.Add(1)
		}
	}
	grid, err := second.Grid(ctx, mixes, policies)
	if err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d evaluations re-ran on resume, want 0", n)
	}
	for i, mix := range mixes {
		for j, pol := range policies {
			a, err := first.Run(ctx, mix, pol)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, grid[i][j]) {
				t.Fatalf("%s/%s: resumed run differs from original", mix.Name, pol)
			}
		}
	}

	// A lab with different options must not reuse the checkpoint: the stale
	// file is moved aside to .bak and the prime starts clean, re-running
	// every evaluation.
	other := opts
	other.Instr = 20_000
	third := New(other)
	var reran atomic.Int64
	third.opts.Logf = func(format string, _ ...any) {
		if strings.Contains(format, "speedup") {
			reran.Add(1)
		}
	}
	if err := third.Prime(ctx, matrix(mixes, policies)); err != nil {
		t.Fatalf("prime over a mismatched checkpoint: %v", err)
	}
	if reran.Load() == 0 {
		t.Fatal("no evaluations ran: mismatched checkpoint was silently reused")
	}
	if _, err := os.Stat(path + ".bak"); err != nil {
		t.Fatalf("mismatched checkpoint not preserved as .bak: %v", err)
	}
}

// TestGridMatchesRun checks that Grid's matrix holds, cell for cell, what a
// fresh lab's unprimed Run returns.
func TestGridMatchesRun(t *testing.T) {
	ctx := context.Background()
	mixes := []workload.Mix{workload.MixesFor(2, "MEM")[0], workload.MixesFor(2, "MIX")[0]}
	policies := []string{"hf-rf", "me-lreq"}
	grid, err := testLab().Grid(ctx, mixes, policies)
	if err != nil {
		t.Fatal(err)
	}
	l := testLab()
	for i, mix := range mixes {
		for j, pol := range policies {
			out, err := l.Run(ctx, mix, pol)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out, grid[i][j]) {
				t.Fatalf("Grid[%s][%s] differs from Run", mix.Name, pol)
			}
		}
	}
}

// TestRunReplicatedSharesSingleCoreRuns checks the one single-core cache:
// over two mixes that share applications, each distinct (application,
// slice, seed) single-core run happens once, profiles included, and
// replica 0's references are the evaluation seed's.
func TestRunReplicatedSharesSingleCoreRuns(t *testing.T) {
	l := testLab()
	var runs []string
	l.opts.Logf = func(format string, args ...any) {
		if strings.HasPrefix(format, "single-core") {
			runs = append(runs, fmt.Sprintf(format, args...))
		}
	}
	ctx := context.Background()
	for _, name := range []string{"2MEM-1", "4MEM-1"} { // bc, bcde
		mix, err := workload.MixByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Run(ctx, mix, "hf-rf"); err != nil {
			t.Fatal(err)
		}
		if _, err := l.RunReplicated(ctx, mix, "hf-rf", 2); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, r := range runs {
		if seen[r] {
			t.Errorf("single-core run repeated: %s", r)
		}
		seen[r] = true
	}
	// Four applications: one profile each, and one reference per seed.
	if want := 4 + 4*2; len(runs) != want {
		t.Fatalf("%d single-core runs, want %d: %q", len(runs), want, runs)
	}
}
