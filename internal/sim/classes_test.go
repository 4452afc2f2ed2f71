package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"memsched/internal/sim"
	"memsched/internal/stats"
	"memsched/internal/workload"
)

// TestClassZeroPerturbation pins the zero-perturbation contract of serving
// classes at the byte level: a run with no Classes and a run with an explicit
// all-best-effort assignment must marshal to identical JSON — same scheduling,
// same statistics, same labels (BE is the zero value). This is what lets the
// class machinery ride inside every Result without fragmenting caches or
// fixtures for classless users.
func TestClassZeroPerturbation(t *testing.T) {
	mix, err := workload.MixByName("4MEM-1")
	if err != nil {
		t.Fatal(err)
	}
	spec := sim.RunSpec{Mix: mix, Policy: "me-lreq", Instr: 4_000, Seed: sim.EvalSeed}
	plain, err := sim.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Classes = []workload.ServiceClass{workload.BE, workload.BE, workload.BE, workload.BE}
	tagged, err := sim.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(tagged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		for _, d := range sim.DiffResults(tagged, plain, 0) {
			t.Error(d)
		}
		t.Fatal("all-BE tagging changed the Result encoding")
	}
}

// TestClassTaggingIsLabelOnly pins the other half of the contract: under a
// class-blind policy, tagging a core latency-critical changes labels and the
// per-class latency split but nothing about the simulated machine — every
// per-core statistic matches the classless run, and the two class histograms
// partition the classless BE histogram exactly.
func TestClassTaggingIsLabelOnly(t *testing.T) {
	mix, err := workload.MixByName("4MEM-1")
	if err != nil {
		t.Fatal(err)
	}
	spec := sim.RunSpec{Mix: mix, Policy: "me-lreq", Instr: 4_000, Seed: sim.EvalSeed}
	plain, err := sim.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	classes, err := workload.ParseServiceClasses("LBLB", 4)
	if err != nil {
		t.Fatal(err)
	}
	spec.Classes = classes
	tagged, err := sim.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the label-carrying fields, then demand bitwise equality on the
	// rest (tolerance 0: scheduling must be untouched, not merely close).
	normalize := func(r sim.Result) sim.Result {
		for i := range r.Cores {
			r.Cores[i].Service = workload.BE
		}
		r.ClassLat = [2]sim.ClassLatency{}
		return r
	}
	for _, d := range sim.DiffResults(normalize(tagged), normalize(plain), 0) {
		t.Error(d)
	}
	// The class split partitions the stream: BE+LC merged equals the
	// classless run's all-BE histogram, bit for bit.
	merged := tagged.ClassLat[workload.BE].Hist
	merged.Merge(&tagged.ClassLat[workload.LC].Hist)
	if merged != plain.ClassLat[workload.BE].Hist {
		t.Error("per-class histograms do not partition the classless histogram")
	}
	for cls, want := range map[workload.ServiceClass]int{workload.BE: 2, workload.LC: 2} {
		if got := tagged.ClassLat[cls].Cores; got != want {
			t.Errorf("%s core count = %d, want %d", cls, got, want)
		}
	}
}

// TestClassHistogramDifferential is the System-level differential for
// per-class latency histograms: for a policy subset spanning stateless,
// stateful and deadline-aware schedulers at 2, 4 and 8 cores with mixed
// classes, the full LC and BE histograms (struct equality — every bucket
// count, sum and max) must be identical across the naive and cycle-skipping
// run loops. The Result-level matrix covers all policies; this pins the
// ClassLatencyHist accessor itself.
func TestClassHistogramDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulation pairs")
	}
	mixFor := map[int]string{2: "2MEM-1", 4: "4MEM-1", 8: "8MEM-4"}
	rng := rand.New(rand.NewSource(0xC1A55))
	for _, cores := range []int{2, 4, 8} {
		for _, policy := range []string{"hf-rf", "me-lreq", "bliss", "dash"} {
			for s := 0; s < 2; s++ {
				cores, policy, seed := cores, policy, rng.Uint64()
				name := mixFor[cores] + "/" + policy
				if s == 1 {
					name += "/seed1"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					mix, err := workload.MixByName(mixFor[cores])
					if err != nil {
						t.Fatal(err)
					}
					apps, err := mix.Apps()
					if err != nil {
						t.Fatal(err)
					}
					classes := make([]workload.ServiceClass, cores)
					for i := 0; i < cores; i += 2 {
						classes[i] = workload.LC
					}
					run := func(noSkip bool) [2]stats.LatencyHist {
						sys, err := sim.New(sim.Options{
							Policy: policy, Apps: apps, Seed: seed, Classes: classes,
							NoCycleSkip: noSkip,
						})
						if err != nil {
							t.Fatal(err)
						}
						if _, err := sys.RunContext(context.Background(), 3_000, 0); err != nil {
							t.Fatal(err)
						}
						return [2]stats.LatencyHist{
							sys.ClassLatencyHist(workload.BE),
							sys.ClassLatencyHist(workload.LC),
						}
					}
					skip, naive := run(false), run(true)
					for cls, label := range []string{"BE", "LC"} {
						if skip[cls] != naive[cls] {
							t.Errorf("%s histogram: skip != naive", label)
						}
						if naive[cls].N() == 0 {
							t.Errorf("%s histogram empty; differential is vacuous", label)
						}
					}
				})
			}
		}
	}
}
