package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"memsched/internal/sim"
	"memsched/internal/workload"
)

// TestSkipDifferential is the correctness contract of quiescence-aware cycle
// skipping: for randomized stimulus across every registered policy and 2, 4
// and 8 cores, a run with next-event time advance must produce statistics
// identical to the naive cycle-by-cycle loop, floats included.
func TestSkipDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulation pairs")
	}
	type diffCase struct {
		mix     string
		policy  string
		online  bool
		classes string
	}
	var cases []diffCase
	// The paper's four headline policies at every core count; the remaining
	// registry entries on the 4-core MEM mix (fix:3210 encodes exactly four
	// priorities). One online-estimator case exercises the epoch-boundary
	// wakeup path.
	for _, mix := range []string{"2MEM-1", "4MEM-1", "8MEM-4"} {
		for _, pol := range []string{"fcfs", "hf-rf", "lreq", "me-lreq"} {
			cases = append(cases, diffCase{mix: mix, policy: pol})
		}
	}
	for _, pol := range []string{"rr", "me", "fq", "burst", "bliss", "cads", "dash", "fix:3210"} {
		cases = append(cases, diffCase{mix: "4MEM-1", policy: pol})
	}
	cases = append(cases, diffCase{mix: "4MEM-1", policy: "me-lreq", online: true})
	// Mixed serving classes: the deadline-aware policy's urgency decisions and
	// a class-blind policy's per-class latency split must both survive skipping.
	cases = append(cases,
		diffCase{mix: "4MEM-1", policy: "dash", classes: "LBBB"},
		diffCase{mix: "4MEM-1", policy: "me-lreq", classes: "LBLB"})

	// Randomized stimulus: each case gets two seeds from a fixed-source
	// stream, so the workloads differ run to run of the matrix but the test
	// stays reproducible.
	rng := rand.New(rand.NewSource(0x5EED))
	var totalSkipped atomic.Int64
	for _, c := range cases {
		for s := 0; s < 2; s++ {
			c, seed := c, rng.Uint64()
			name := c.mix + "/" + c.policy
			if c.online {
				name += "/online"
			}
			if c.classes != "" {
				name += "/" + c.classes
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				mix, err := workload.MixByName(c.mix)
				if err != nil {
					t.Fatal(err)
				}
				classes, err := workload.ParseServiceClasses(c.classes, len(mix.Codes))
				if err != nil {
					t.Fatal(err)
				}
				run := func(noSkip bool) sim.Result {
					res, err := sim.Run(context.Background(), sim.RunSpec{
						Mix: mix, Policy: c.policy, Instr: 3_000, Seed: seed,
						OnlineME: c.online, NoCycleSkip: noSkip, Classes: classes,
					})
					if err != nil {
						t.Fatalf("seed %#x noSkip=%v: %v", seed, noSkip, err)
					}
					return res
				}
				skipped, naive := run(false), run(true)
				if naive.SkippedCycles != 0 {
					t.Errorf("NoCycleSkip run reported %d skipped cycles", naive.SkippedCycles)
				}
				for _, d := range sim.DiffResults(skipped, naive, 0) {
					t.Error(d)
				}
				totalSkipped.Add(skipped.SkippedCycles)
			})
		}
	}
	t.Cleanup(func() {
		// The property is vacuous if no case ever skipped a cycle.
		if totalSkipped.Load() == 0 {
			t.Error("no case skipped any cycle; next-event advance never engaged")
		}
	})
}

// TestParallelDifferential runs the full policy matrix once covered by the
// retired epoch-sharded execution path: every registered policy at 2, 4 and 8
// cores, plus the online estimator, each on two seeds, the second with
// alternating LC/BE serving classes. The deprecated ParallelCores hint is set
// on the skipping arm and must stay inert: that run must produce Result JSON
// byte-identical to the unhinted skipping run, and match the naive
// cycle-by-cycle loop in every statistic, floats included.
func TestParallelDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulation triples")
	}
	mixFor := map[int]string{2: "2MEM-1", 4: "4MEM-1", 8: "8MEM-4"}
	type diffCase struct {
		cores  int
		policy string
		online bool
	}
	var cases []diffCase
	for _, cores := range []int{2, 4, 8} {
		for _, pol := range []string{"fcfs", "hf-rf", "rr", "lreq", "me", "me-lreq", "fq", "burst", "bliss", "cads", "dash", fixOrderFor(cores)} {
			cases = append(cases, diffCase{cores: cores, policy: pol})
		}
	}
	cases = append(cases, diffCase{cores: 4, policy: "me-lreq", online: true})

	// Randomized stimulus: each case gets two seeds from a fixed-source
	// stream, so the workloads differ run to run of the matrix but the test
	// stays reproducible. The second seed of every case additionally runs
	// with mixed serving classes, so the per-class latency histograms
	// embedded in the Result, and dash's deadline decisions, are pinned for
	// every policy.
	rng := rand.New(rand.NewSource(0x5EED))
	for _, c := range cases {
		for s := 0; s < 2; s++ {
			c, seed := c, rng.Uint64()
			var classes []workload.ServiceClass
			name := fmt.Sprintf("%dcores/%s/seed%d", c.cores, c.policy, s)
			if s == 1 {
				classes = make([]workload.ServiceClass, c.cores)
				for i := 0; i < c.cores; i += 2 {
					classes[i] = workload.LC
				}
				name += "/classed"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				mix, err := workload.MixByName(mixFor[c.cores])
				if err != nil {
					t.Fatal(err)
				}
				run := func(hint int, noSkip bool) sim.Result {
					// The generous MaxCycles covers strict fixed priority at 8
					// memory-bound cores, which starves its lowest core far past
					// the default bound.
					res, err := sim.Run(context.Background(), sim.RunSpec{
						Mix: mix, Policy: c.policy, Instr: 3_000, Seed: seed,
						OnlineME: c.online, NoCycleSkip: noSkip, ParallelCores: hint,
						MaxCycles: 20_000_000, Classes: classes,
					})
					if err != nil {
						t.Fatalf("seed %#x ParallelCores=%d noSkip=%v: %v", seed, hint, noSkip, err)
					}
					return res
				}
				hinted, skip, naive := run(3, false), run(0, false), run(0, true)
				hintedJSON, err := json.Marshal(hinted)
				if err != nil {
					t.Fatal(err)
				}
				skipJSON, err := json.Marshal(skip)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(hintedJSON, skipJSON) {
					t.Errorf("seed %#x: ParallelCores=3 changed the Result JSON", seed)
				}
				if naive.SkippedCycles != 0 {
					t.Errorf("NoCycleSkip run reported %d skipped cycles", naive.SkippedCycles)
				}
				for _, d := range sim.DiffResults(skip, naive, 0) {
					t.Errorf("skip vs naive: %s", d)
				}
			})
		}
	}
}

// fixOrderFor returns a fixed-priority policy spec matching the core count
// (the fix policy encodes exactly one priority digit per core).
func fixOrderFor(cores int) string {
	order := ""
	for i := cores - 1; i >= 0; i-- {
		order += strconv.Itoa(i)
	}
	return "fix:" + order
}

// TestResultIndependentOfHostWidth pins the contract sweepd's result cache
// relies on: equal specs produce byte-identical Result JSON, SkippedCycles
// included, whichever worker runs them. Neither the host's GOMAXPROCS nor the
// deprecated ParallelCores hint may reach a Result.
func TestResultIndependentOfHostWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full 8-core simulations")
	}
	mix, err := workload.MixByName("8MEM-1")
	if err != nil {
		t.Fatal(err)
	}
	apps, err := mix.Apps()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, tc := range []struct {
		procs, hint int
		viaRun      bool // sim.Run with RunSpec.ParallelCores, else sim.New with Options.ParallelCores
	}{
		{procs: 1, hint: 0},
		{procs: 2, hint: 0},
		{procs: 2, hint: 1},
		{procs: 1, hint: 4},
		{procs: 2, hint: 4},
		{procs: 2, hint: 4, viaRun: true},
	} {
		runtime.GOMAXPROCS(tc.procs)
		var res sim.Result
		if tc.viaRun {
			res, err = sim.Run(context.Background(), sim.RunSpec{
				Mix: mix, Policy: "hf-rf", Instr: 3_000, Seed: 7, ParallelCores: tc.hint,
			})
		} else {
			var sys *sim.System
			sys, err = sim.New(sim.Options{Policy: "hf-rf", Apps: apps, Seed: 7, ParallelCores: tc.hint})
			if err != nil {
				t.Fatal(err)
			}
			res, err = sys.RunContext(context.Background(), 3_000, 0)
			if w, c := sys.ParallelWindows(); w != 0 || c != 0 {
				t.Errorf("GOMAXPROCS=%d ParallelCores=%d: ParallelWindows = (%d, %d), want (0, 0)",
					tc.procs, tc.hint, w, c)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d ParallelCores=%d viaRun=%v: Result JSON differs from GOMAXPROCS=1 (SkippedCycles %d)",
				tc.procs, tc.hint, tc.viaRun, res.SkippedCycles)
		}
	}
}
