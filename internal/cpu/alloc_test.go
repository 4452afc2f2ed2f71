package cpu

import (
	"testing"

	"memsched/internal/cache"
	"memsched/internal/trace"
	"memsched/internal/xrand"
)

// TestHotPathsAllocateNothing pins the per-instruction paths at zero
// allocations in steady state: the generator's Next (the trace.Generator
// contract), the random draws it and the core make, a miss file's
// Allocate→Take→Recycle cycle, and a warmed core ticking against a real
// hierarchy and controller. The benchmarks report the same, but only when
// they run.
func TestHotPathsAllocateNothing(t *testing.T) {
	p := trace.Params{
		LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.15,
		FPFrac: 0.5, MulFrac: 0.1,
		StreamFrac: 0.3, RandomFrac: 0.05,
		WordsPerLine: 4, RunLenLines: 64,
		FootprintLines: 1 << 16, HotLines: 512, DepProb: 0.1,
		PhaseInstr: 5000, PhaseHotFrac: 0.2, PhaseGain: 2,
	}
	gen, err := trace.NewSynthetic(p, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	coreGen, err := trace.NewSynthetic(p, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	var ins trace.Instr
	r := xrand.New(1)
	prob := xrand.NewProb(0.3)
	m := cache.NewMSHR(8)
	line := uint64(0)
	rg := newRig(t, coreGen, nil)
	rg.core.ConfigureFetch(512, 0.5, 1<<30)
	rg.run(100_000)

	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Synthetic.Next", func() { gen.Next(&ins) }},
		{"Rand.Hit", func() { r.Hit(prob) }},
		{"Rand.Uint64n", func() { r.Uint64n(196) }},
		{"MSHR cycle", func() {
			line++
			m.Allocate(line, cache.Waiter{Write: true})
			m.Allocate(line, cache.Waiter{})
			m.Recycle(m.Take(line))
		}},
		// 64 cycles a call: AllocsPerRun rounds down, and this core misses
		// its L1D only every few dozen cycles, so an allocation per miss
		// still shows.
		{"64 core ticks with their hierarchy and controller", func() { rg.run(64) }},
	} {
		c.f() // the MSHR's first entry fills its pool
		if n := testing.AllocsPerRun(2000, c.f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", c.name, n)
		}
	}
}
