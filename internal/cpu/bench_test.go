package cpu

import (
	"testing"

	"memsched/internal/trace"
	"memsched/internal/workload"
)

func BenchmarkCoreTickComputeBound(b *testing.B) {
	r := newRigB(b, &scriptGen{script: computeOnly(1)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.core.Tick(r.now)
		r.now++
	}
}

// BenchmarkCoreTickILP drives a core, wired as the simulator wires it, with
// Table 2's gzip profile: the kind mix, dependences, branches and
// instruction fetch of a compute-bound application reach the core, which
// BenchmarkCoreTickComputeBound's all-integer script does not.
func BenchmarkCoreTickILP(b *testing.B) {
	app, err := workload.ByCode('a')
	if err != nil {
		b.Fatal(err)
	}
	gen, err := trace.NewSynthetic(app.Params, workload.BaseFor(0), 1)
	if err != nil {
		b.Fatal(err)
	}
	r := newRigB(b, gen)
	r.core.ConfigureFetch(app.Params.EffectiveCodeLines(), app.Params.EffectiveTakenProb(), workload.CodeBaseFor(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.core.Tick(r.now)
		r.hier.Tick(r.now)
		r.mc.Tick(r.now)
		r.now++
	}
}

func BenchmarkCoreTickMemoryBound(b *testing.B) {
	p := trace.Params{
		LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.1,
		FPFrac: 0.5, MulFrac: 0.1,
		StreamFrac: 0.6, RandomFrac: 0.2,
		WordsPerLine: 2, RunLenLines: 256,
		FootprintLines: 1 << 20, HotLines: 512, DepProb: 0.1,
	}
	gen, err := trace.NewSynthetic(p, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := newRigB(b, gen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.core.Tick(r.now)
		r.hier.Tick(r.now)
		r.mc.Tick(r.now)
		r.now++
	}
}
