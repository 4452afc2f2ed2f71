package sim_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"memsched/internal/config"
	"memsched/internal/sim"
	"memsched/internal/workload"
)

// -update-golden regenerates the fixtures under testdata/golden from the
// current implementation. The committed fixtures were produced by the
// pre-indexing (seed) controller, so running the test without the flag
// proves the indexed hot path is observably identical to the original
// full-scan implementation: same candidate sets, same tie-break RNG draws,
// same completion ordering, hence byte-identical Results.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden equivalence fixtures")

// goldenFloatTol is the relative tolerance for float fields. Integer fields
// must stay byte-identical; floats may drift at this scale because the
// fixtures hold mean queue depths and read-latency means computed with
// Welford's algorithm, which today's exact integer ratios match only to the
// last few bits (at most 3e-14 relative). Comparison
// goes through sim.DiffResults, which also exempts SkippedCycles (the
// fixtures predate the field, and it describes the run loop, not the
// simulated machine).
const goldenFloatTol = 1e-9

const goldenInstr = 6_000

// goldenCase is one fixed-seed run whose Result is pinned.
type goldenCase struct {
	Mix     string
	Policy  string
	Classes string // serving classes ("" = classless), workload.ParseServiceClasses syntax
}

// goldenCases covers every registered policy, with the paper's four headline
// policies exercised at 2, 4 and 8 cores (write-drain bursts and bank
// contention differ qualitatively across core counts).
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, mix := range []string{"2MEM-1", "4MEM-1", "8MEM-4"} {
		for _, pol := range []string{"fcfs", "hf-rf", "lreq", "me-lreq"} {
			cases = append(cases, goldenCase{Mix: mix, Policy: pol})
		}
	}
	// Remaining registry entries once each, on the 4-core MEM mix.
	for _, pol := range []string{"rr", "me", "fq", "burst", "bliss", "cads", "dash", "fix:3210"} {
		cases = append(cases, goldenCase{Mix: "4MEM-1", Policy: pol})
	}
	// Mixed serving classes: the deadline-aware policy with a
	// latency-critical tenant, and a class-blind policy whose result gains
	// only the class labels and latency split.
	cases = append(cases,
		goldenCase{Mix: "4MEM-1", Policy: "dash", Classes: "LBBB"},
		goldenCase{Mix: "4MEM-1", Policy: "me-lreq", Classes: "LBLB"})
	return cases
}

func goldenPath(c goldenCase) string {
	name := fmt.Sprintf("%s_%s", c.Mix, c.Policy)
	if c.Classes != "" {
		name += "_" + c.Classes
	}
	name += ".json"
	for _, bad := range []string{":", "/"} {
		name = replaceAll(name, bad, "-")
	}
	return filepath.Join("testdata", "golden", name)
}

func replaceAll(s, old, new string) string {
	out := ""
	for _, r := range s {
		if string(r) == old {
			out += new
		} else {
			out += string(r)
		}
	}
	return out
}

func runGolden(t *testing.T, c goldenCase, cfg *config.Config) sim.Result {
	t.Helper()
	mix, err := workload.MixByName(c.Mix)
	if err != nil {
		t.Fatal(err)
	}
	classes, err := workload.ParseServiceClasses(c.Classes, len(mix.Codes))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), sim.RunSpec{
		Mix: mix, Policy: c.Policy, Instr: goldenInstr, Seed: sim.EvalSeed,
		Classes: classes, Config: cfg,
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", c.Mix, c.Policy, err)
	}
	return res
}

// checkGolden compares got against the fixture at path, or rewrites the
// fixture under -update-golden.
func checkGolden(t *testing.T, path string, got sim.Result) {
	t.Helper()
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update-golden): %v", err)
	}
	var want sim.Result
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	diffs := sim.DiffResults(got, want, goldenFloatTol)
	if len(diffs) > 0 {
		for _, d := range diffs {
			t.Error(d)
		}
		t.Errorf("result diverged from the recorded implementation (%d fields)", len(diffs))
	}
}

// TestGoldenEquivalence pins fixed-seed Results against fixtures generated
// by the seed (pre-indexing) implementation.
func TestGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("golden equivalence runs full simulations")
	}
	for _, c := range goldenCases() {
		c := c
		name := c.Mix + "/" + c.Policy
		if c.Classes != "" {
			name += "/" + c.Classes
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, goldenPath(c), runGolden(t, c, nil))
		})
	}
}

// goldenVariant is a non-default machine whose golden runs pin hierarchy and
// controller paths the Table 1 machine rarely or never takes.
type goldenVariant struct {
	name  string
	tweak func(*config.Config)
	runs  []goldenCase
}

func goldenVariants() []goldenVariant {
	// One mix per core count; a 4-entry L2 miss file starves eight
	// memory-bound cores past the cycle bound, so those variants stop at four.
	all := []goldenCase{
		{Mix: "2MEM-1", Policy: "fcfs"},
		{Mix: "4MEM-1", Policy: "hf-rf"},
		{Mix: "8MEM-4", Policy: "me-lreq"},
	}
	small := []goldenCase{
		{Mix: "4MEM-1", Policy: "hf-rf"},
		{Mix: "4MEM-1", Policy: "me-lreq"},
	}
	return []goldenVariant{
		// Hierarchy handlers schedule L2-hit fills and memory reads for the
		// very next cycle.
		{"l2hit1", func(c *config.Config) { c.L2.HitLatency = 1 }, all},
		// Port-blocked and MSHR-blocked L2 retries interleave.
		{"l2port1", func(c *config.Config) { c.L2PortsPerCycle = 1 }, all},
		// L2 misses wait on a full miss file for long stretches.
		{"l2mshr4", func(c *config.Config) { c.L2.MSHRs = 4 }, small},
		{"prefetch", func(c *config.Config) { c.L2StreamPrefetch = true }, all},
		// Controller admission fails often: memory-read retries.
		{"queue8", func(c *config.Config) { c.Memory.ReadQueueCap, c.Memory.WriteQueueCap = 8, 8 }, all},
		// Fills bypass the controller while the miss file is full.
		{"perfect-l2mshr4", func(c *config.Config) { c.PerfectMemory, c.L2.MSHRs = true, 4 }, small},
	}
}

// TestGoldenConfigVariants pins fixed-seed Results on each goldenVariant
// machine. The fixtures live in testdata/golden-configs, outside the
// directory the runner's golden sweep (default machine only) reads.
func TestGoldenConfigVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("golden equivalence runs full simulations")
	}
	for _, v := range goldenVariants() {
		for _, c := range v.runs {
			v, c := v, c
			t.Run(v.name+"/"+c.Mix+"/"+c.Policy, func(t *testing.T) {
				t.Parallel()
				mix, err := workload.MixByName(c.Mix)
				if err != nil {
					t.Fatal(err)
				}
				cfg := config.Default(len(mix.Codes))
				v.tweak(&cfg)
				if err := cfg.Validate(); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", "golden-configs",
					fmt.Sprintf("%s_%s_%s.json", v.name, c.Mix, c.Policy))
				checkGolden(t, path, runGolden(t, c, &cfg))
			})
		}
	}
}
