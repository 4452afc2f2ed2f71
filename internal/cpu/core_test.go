package cpu

import (
	"testing"

	"memsched/internal/cache"
	"memsched/internal/config"
	"memsched/internal/dram"
	"memsched/internal/memctrl"
	"memsched/internal/sched"
	"memsched/internal/trace"
	"memsched/internal/xrand"
)

// scriptGen replays a fixed instruction slice, then repeats the last
// instruction forever.
type scriptGen struct {
	script []trace.Instr
	pos    int
}

func (g *scriptGen) Next(ins *trace.Instr) {
	if g.pos < len(g.script) {
		*ins = g.script[g.pos]
		g.pos++
		return
	}
	*ins = g.script[len(g.script)-1]
}

// rig wires a single core to a real hierarchy and controller.
type rig struct {
	cfg  config.Config
	core *Core
	hier *cache.Hierarchy
	mc   *memctrl.Controller
	now  int64
}

func newRig(t *testing.T, gen trace.Generator, mut func(*config.Config)) *rig {
	t.Helper()
	cfg := config.Default(1)
	if mut != nil {
		mut(&cfg)
	}
	sys := dram.NewSystem(&cfg)
	pol, err := sched.New("hf-rf", 1)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := memctrl.New(&cfg, sys, pol, nil, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	hier := cache.NewHierarchy(&cfg, mc)
	r := &rig{cfg: cfg, mc: mc, hier: hier}
	r.core = NewCore(0, &r.cfg, gen, hier, xrand.New(3))
	return r
}

func (r *rig) run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		r.core.Tick(r.now)
		r.hier.Tick(r.now)
		r.mc.Tick(r.now)
		r.now++
	}
}

func computeOnly(n int) []trace.Instr {
	s := make([]trace.Instr, n)
	for i := range s {
		s[i] = trace.Instr{Kind: trace.KindInt}
	}
	return s
}

func TestPureComputeReachesIssueWidth(t *testing.T) {
	r := newRig(t, &scriptGen{script: computeOnly(1)}, func(c *config.Config) {
		c.Core.BranchMissPct = 0
	})
	r.run(2000)
	ipc := r.core.Stats().IPC()
	// Single-cycle independent ints should sustain the full width of 4.
	if ipc < 3.8 {
		t.Fatalf("compute-only IPC = %.2f, want ~4", ipc)
	}
}

func TestBranchMispredictsLowerIPC(t *testing.T) {
	mk := func(missPct float64) float64 {
		script := []trace.Instr{
			{Kind: trace.KindBranch},
			{Kind: trace.KindInt},
			{Kind: trace.KindInt},
			{Kind: trace.KindInt},
		}
		r := newRig(t, &scriptGen{script: script}, func(c *config.Config) {
			c.Core.BranchMissPct = missPct
		})
		// Loop the 4-instruction pattern.
		g := r.core.gen.(*scriptGen)
		g.script = append(g.script, script...)
		for len(g.script) < 4000 {
			g.script = append(g.script, script...)
		}
		r.run(5000)
		return r.core.Stats().IPC()
	}
	perfect := mk(0)
	noisy := mk(0.2)
	if noisy >= perfect {
		t.Fatalf("mispredicting IPC %.2f not below perfect-predictor IPC %.2f", noisy, perfect)
	}
	if perfect < 3.5 {
		t.Fatalf("perfect-predictor branchy IPC = %.2f, want near 4", perfect)
	}
}

func TestLoadMissStallsROB(t *testing.T) {
	// One cold load followed by compute: the core should retire the compute
	// only after the memory round trip.
	script := append([]trace.Instr{{Kind: trace.KindLoad, Line: 1 << 30}}, computeOnly(10000)...)
	r := newRig(t, &scriptGen{script: script}, func(c *config.Config) {
		c.Core.BranchMissPct = 0
	})
	r.run(100)
	// At cycle 100 the load (≈150-cycle round trip) has not returned: only
	// instructions that fit in the ROB behind it can have dispatched, none
	// retired beyond the window.
	if got := r.core.Retired(); got != 0 {
		t.Fatalf("retired %d instructions while head load outstanding", got)
	}
	r.run(10000)
	if r.core.Retired() == 0 {
		t.Fatal("core never recovered after load returned")
	}
	if r.core.Stats().RetireStalls == 0 {
		t.Fatal("no retire stalls recorded despite a memory stall")
	}
}

func TestDependentLoadSerializes(t *testing.T) {
	// Pointer-chase analogue: every other instruction depends on the load.
	// IPC must be far below an independent-stream run.
	dep := []trace.Instr{
		{Kind: trace.KindLoad, Line: 0, DepOnLoad: true}, // pointer chase
		{Kind: trace.KindInt, DepOnLoad: true},
	}
	indep := []trace.Instr{
		{Kind: trace.KindLoad, Line: 0},
		{Kind: trace.KindInt},
	}
	mkScript := func(pattern []trace.Instr, n int) []trace.Instr {
		var s []trace.Instr
		line := uint64(0)
		for len(s) < n {
			p := make([]trace.Instr, len(pattern))
			copy(p, pattern)
			p[0].Line = line * 977 // spread lines: mostly L1 misses
			line++
			s = append(s, p...)
		}
		return s
	}
	run := func(pattern []trace.Instr) float64 {
		r := newRig(t, &scriptGen{script: mkScript(pattern, 60000)}, func(c *config.Config) {
			c.Core.BranchMissPct = 0
		})
		r.run(30000)
		return r.core.Stats().IPC()
	}
	depIPC := run(dep)
	indepIPC := run(indep)
	if depIPC >= indepIPC {
		t.Fatalf("dependent IPC %.3f not below independent IPC %.3f", depIPC, indepIPC)
	}
}

func TestLQBoundsMemoryParallelism(t *testing.T) {
	// All-load stream to distinct lines: outstanding loads must never exceed
	// the LQ size.
	script := make([]trace.Instr, 4000)
	for i := range script {
		script[i] = trace.Instr{Kind: trace.KindLoad, Line: uint64(i * 977)}
	}
	r := newRig(t, &scriptGen{script: script}, func(c *config.Config) {
		c.Core.LQSize = 4
	})
	maxPending := 0
	for i := int64(0); i < 3000; i++ {
		r.core.Tick(r.now)
		r.hier.Tick(r.now)
		r.mc.Tick(r.now)
		r.now++
		if p := r.core.lqUsed; p > maxPending {
			maxPending = p
		}
	}
	if maxPending > 4 {
		t.Fatalf("LQ occupancy reached %d with LQSize 4", maxPending)
	}
	if r.core.Stats().DispatchHaz == 0 {
		t.Fatal("no dispatch hazards recorded despite tiny LQ")
	}
}

func TestStoresRetireAndDrain(t *testing.T) {
	script := make([]trace.Instr, 2000)
	for i := range script {
		script[i] = trace.Instr{Kind: trace.KindStore, Line: uint64(i % 8)}
	}
	r := newRig(t, &scriptGen{script: script}, nil)
	r.run(20000)
	st := r.core.Stats()
	if st.Retired == 0 {
		t.Fatal("stores never retired")
	}
	if st.Stores == 0 {
		t.Fatal("no stores counted")
	}
	// The dirty lines eventually reach the cache: the L1 must contain them.
	if !r.hier.L1D(0).Peek(0) {
		t.Fatal("stored line not present in L1D")
	}
	if r.core.sqUsed < 0 {
		t.Fatalf("SQ underflow: %d", r.core.sqUsed)
	}
}

func TestROBOccupancyBounded(t *testing.T) {
	// A load that misses to DRAM, then endless compute: the ROB fills behind
	// the load and must stay full, never over capacity, until it returns.
	script := append([]trace.Instr{{Kind: trace.KindLoad, Line: 1 << 25}}, computeOnly(1)...)
	r := newRig(t, &scriptGen{script: script}, nil)
	max := 0
	for i := 0; i < 500; i++ {
		r.run(1)
		occ := r.core.ROBOccupancy()
		if occ < 0 || occ > r.cfg.Core.ROBSize {
			t.Fatalf("cycle %d: ROB occupancy %d outside [0, %d]", r.now-1, occ, r.cfg.Core.ROBSize)
		}
		if occ > max {
			max = occ
		}
	}
	if max != r.cfg.Core.ROBSize {
		t.Fatalf("ROB occupancy peaked at %d, want the full %d behind the missing load", max, r.cfg.Core.ROBSize)
	}
}

func TestRetiredMonotonicAndConserved(t *testing.T) {
	// Mixed workload: retired count must be monotone and every dispatched
	// instruction retires in order.
	p := trace.Params{
		LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.1,
		FPFrac: 0.3, MulFrac: 0.1,
		StreamFrac: 0.5, RandomFrac: 0.3,
		WordsPerLine: 8, RunLenLines: 32,
		FootprintLines: 1 << 18, HotLines: 128, DepProb: 0.4,
	}
	gen, err := trace.NewSynthetic(p, 0, 77)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, gen, nil)
	var last uint64
	for i := 0; i < 20000; i++ {
		r.core.Tick(r.now)
		r.hier.Tick(r.now)
		r.mc.Tick(r.now)
		r.now++
		if got := r.core.Retired(); got < last {
			t.Fatalf("retired count went backwards: %d -> %d", last, got)
		} else {
			last = got
		}
	}
	if last == 0 {
		t.Fatal("mixed workload retired nothing in 20k cycles")
	}
	st := r.core.Stats()
	if st.Loads+st.Stores+st.Branches > st.Retired+uint64(r.cfg.Core.ROBSize) {
		t.Fatalf("dispatched counts inconsistent with retirement: %+v", st)
	}
}

func TestDeterministicExecution(t *testing.T) {
	mk := func() uint64 {
		p := trace.Params{
			LoadFrac: 0.25, StoreFrac: 0.1, BranchFrac: 0.12,
			FPFrac: 0.4, MulFrac: 0.15,
			StreamFrac: 0.6, RandomFrac: 0.2,
			WordsPerLine: 8, RunLenLines: 64,
			FootprintLines: 1 << 18, HotLines: 256, DepProb: 0.3,
		}
		gen, _ := trace.NewSynthetic(p, 0, 5)
		r := newRig(t, gen, nil)
		r.run(15000)
		return r.core.Retired()
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("identical runs retired %d vs %d instructions", a, b)
	}
}

func TestFPMultiplierBottleneck(t *testing.T) {
	// A pure FP-multiply stream is limited by the single FP multiplier to
	// IPC ~1 despite the 4-wide front end.
	script := make([]trace.Instr, 1)
	script[0] = trace.Instr{Kind: trace.KindFPMul}
	r := newRig(t, &scriptGen{script: script}, func(c *config.Config) {
		c.Core.BranchMissPct = 0
	})
	r.run(3000)
	ipc := r.core.Stats().IPC()
	if ipc > 1.1 {
		t.Fatalf("FP-mult IPC = %.2f, want <= ~1 (single FP multiplier)", ipc)
	}
	if ipc < 0.8 {
		t.Fatalf("FP-mult IPC = %.2f, want ~1", ipc)
	}
}

func TestWiderFPMultRemovesBottleneck(t *testing.T) {
	script := []trace.Instr{{Kind: trace.KindFPMul}}
	run := func(units int) float64 {
		r := newRig(t, &scriptGen{script: script}, func(c *config.Config) {
			c.Core.BranchMissPct = 0
			c.Core.FPMults = units
		})
		r.run(3000)
		return r.core.Stats().IPC()
	}
	if narrow, wide := run(1), run(4); wide <= narrow*1.5 {
		t.Fatalf("4 FP multipliers (IPC %.2f) should far exceed 1 (IPC %.2f)", wide, narrow)
	}
}

func TestIntALUsNotBottleneckedAtWidth(t *testing.T) {
	// 4 integer ALUs match the 4-wide issue: pure int code is front-end
	// limited, not FU limited.
	r := newRig(t, &scriptGen{script: computeOnly(1)}, func(c *config.Config) {
		c.Core.BranchMissPct = 0
	})
	r.run(3000)
	if ipc := r.core.Stats().IPC(); ipc < 3.8 {
		t.Fatalf("int IPC = %.2f, want ~4 (ALUs match width)", ipc)
	}
}

// newRigB is the benchmark twin of newRig.
func newRigB(b *testing.B, gen trace.Generator) *rig {
	b.Helper()
	cfg := config.Default(1)
	sys := dram.NewSystem(&cfg)
	pol, err := sched.New("hf-rf", 1)
	if err != nil {
		b.Fatal(err)
	}
	mc, err := memctrl.New(&cfg, sys, pol, nil, xrand.New(2))
	if err != nil {
		b.Fatal(err)
	}
	hier := cache.NewHierarchy(&cfg, mc)
	r := &rig{cfg: cfg, mc: mc, hier: hier}
	r.core = NewCore(0, &r.cfg, gen, hier, xrand.New(3))
	return r
}

func TestSmallCodeNeverStallsFetch(t *testing.T) {
	r := newRig(t, &scriptGen{script: computeOnly(1)}, func(c *config.Config) {
		c.Core.BranchMissPct = 0
	})
	r.core.ConfigureFetch(64, 0.5, 1<<30) // 4 KiB hot loop
	// Warm the loop (one cold pass over 64 lines), then measure steady state.
	r.run(15000)
	warmRetired := r.core.Retired()
	warmStalls := r.core.Stats().IFetchStalls
	r.run(10000)
	ipc := float64(r.core.Retired()-warmRetired) / 10000
	if ipc < 3.5 {
		t.Fatalf("hot-loop steady-state IPC = %.2f, want ~4", ipc)
	}
	// After the cold pass the loop is L1I resident: no further stalls.
	if got := r.core.Stats().IFetchStalls - warmStalls; got != 0 {
		t.Fatalf("%d fetch stalls in steady state of an L1I-resident loop", got)
	}
}

func TestLargeCodeStallsFetch(t *testing.T) {
	// A branchy stream over a 4x-L1I code footprint must take front-end
	// stalls and lose IPC vs the same stream with a hot loop.
	branchy := []trace.Instr{
		{Kind: trace.KindBranch},
		{Kind: trace.KindInt}, {Kind: trace.KindInt}, {Kind: trace.KindInt},
	}
	script := make([]trace.Instr, 0, 8000)
	for len(script) < 8000 {
		script = append(script, branchy...)
	}
	run := func(codeLines uint64) (float64, uint64) {
		r := newRig(t, &scriptGen{script: script}, func(c *config.Config) {
			c.Core.BranchMissPct = 0
		})
		r.core.ConfigureFetch(codeLines, 0.5, 1<<30)
		r.run(20000)
		return r.core.Stats().IPC(), r.core.Stats().IFetchStalls
	}
	hotIPC, _ := run(64)
	bigIPC, bigStalls := run(4096)
	if bigStalls == 0 {
		t.Fatal("4x-L1I code footprint produced no fetch stalls")
	}
	if bigIPC >= hotIPC {
		t.Fatalf("big-code IPC %.2f not below hot-loop IPC %.2f", bigIPC, hotIPC)
	}
}

func TestFetchDisabledByDefault(t *testing.T) {
	r := newRig(t, &scriptGen{script: computeOnly(1)}, nil)
	r.run(1000)
	if r.core.Stats().IFetchStalls != 0 {
		t.Fatal("fetch stalls recorded without ConfigureFetch")
	}
	if r.hier.CoreStats(0).IFetches != 0 {
		t.Fatal("instruction fetches issued without ConfigureFetch")
	}
}

func TestConfigureFetchZeroDisables(t *testing.T) {
	r := newRig(t, &scriptGen{script: computeOnly(1)}, nil)
	r.core.ConfigureFetch(64, 0.5, 0)
	r.core.ConfigureFetch(0, 0, 0) // disable again
	r.run(1000)
	if r.hier.CoreStats(0).IFetches != 0 {
		t.Fatal("fetches issued after disabling")
	}
}

func TestLoadDependentBranchRedirect(t *testing.T) {
	// A mispredicted branch whose condition comes from a load resolves only
	// when the load returns, costing a full memory round trip of wrong-path
	// stall. Compare against the same pattern with an always-correct
	// predictor: the mispredicting run must be slower.
	pattern := []trace.Instr{
		{Kind: trace.KindLoad, Line: 0},
		{Kind: trace.KindBranch, DepOnLoad: true},
		{Kind: trace.KindInt}, {Kind: trace.KindInt},
	}
	mk := func(miss float64) float64 {
		script := make([]trace.Instr, 0, 40000)
		line := uint64(0)
		for len(script) < 40000 {
			p := make([]trace.Instr, len(pattern))
			copy(p, pattern)
			p[0].Line = line * 977
			line++
			script = append(script, p...)
		}
		r := newRig(t, &scriptGen{script: script}, func(c *config.Config) {
			c.Core.BranchMissPct = miss
		})
		r.run(25000)
		return r.core.Stats().IPC()
	}
	perfect := mk(0)
	noisy := mk(0.5)
	if noisy >= perfect {
		t.Fatalf("load-dependent mispredicts: IPC %.3f not below %.3f", noisy, perfect)
	}
}

func TestStatsIPCZeroCycles(t *testing.T) {
	var s Stats
	if s.IPC() != 0 {
		t.Fatal("IPC with zero cycles should be 0")
	}
}

func TestCoreString(t *testing.T) {
	r := newRig(t, &scriptGen{script: computeOnly(1)}, nil)
	r.run(10)
	if s := r.core.String(); s == "" {
		t.Fatal("String() empty")
	}
}
