// Package trace produces the instruction streams the simulated cores
// execute.
//
// The paper drives its cores with SimPoint slices of SPEC CPU2000 binaries;
// those are not redistributable, so this package provides statistically
// stationary synthetic generators parameterized per application (package
// workload holds the 26 profiles). A generator is an infinite, deterministic
// stream: the same (params, seed) pair always produces the same
// instructions, and separate seeds model the paper's use of different
// SimPoint slices for profiling and for evaluation.
package trace

import (
	"fmt"
	"math"

	"memsched/internal/xrand"
)

// Kind classifies one instruction for the core's timing model.
//
// The numbering is an invariant the per-instruction paths decide kinds by
// (DESIGN.md, "Branch-lean kinds"): the compute kinds are 0-3, a multiply
// setting bit 0 and floating point bit 1, and are the core's functional-unit
// pool indices; KindBranch (4) shares pool 0, the integer ALUs, as k&3; the
// memory kinds are the two highest.
type Kind uint8

const (
	// KindInt is a single-cycle integer ALU operation.
	KindInt Kind = iota
	// KindIntMul is an integer multiply.
	KindIntMul
	// KindFP is a floating-point add/compare.
	KindFP
	// KindFPMul is a floating-point multiply.
	KindFPMul
	// KindBranch is a conditional branch (may mispredict).
	KindBranch
	// KindLoad reads one word; Line carries the cache-line address.
	KindLoad
	// KindStore writes one word; Line carries the cache-line address.
	KindStore

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindIntMul:
		return "intmul"
	case KindFP:
		return "fp"
	case KindFPMul:
		return "fpmul"
	case KindBranch:
		return "branch"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsMem reports whether the instruction accesses memory. The memory kinds
// are the two highest, so one unsigned compare decides it.
func (k Kind) IsMem() bool { return k-KindLoad <= KindStore-KindLoad }

// Pool is a non-memory kind's functional-unit pool: 0 integer ALU,
// 1 integer multiply, 2 FP ALU, 3 FP multiply. The compute kinds are their
// own pool indices and a branch (4) is an integer ALU operation, so it is k&3.
func (k Kind) Pool() int { return int(k & 3) }

// kindIf is 1 when b holds and 0 otherwise; the compiler turns it into a
// zero extension of b, not a branch.
func kindIf(b bool) Kind {
	if b {
		return 1
	}
	return 0
}

// Instr is one dynamic instruction.
type Instr struct {
	Kind Kind
	// Line is the cache-line address touched (loads and stores only),
	// always below LineLimit.
	Line uint64
	// DepOnLoad marks an instruction whose input is produced by the most
	// recent older load; the core serializes it behind that load.
	DepOnLoad bool
}

// LineLimit bounds every cache-line address: lines are below 2^62, so a
// cache can pack one with its valid and dirty bits into a 64-bit tag word.
// Reader rejects a record whose line reaches it, and the caches panic on
// such a line. The built-in workloads stay below 2^31.
const LineLimit uint64 = 1 << 62

// Generator produces an infinite instruction stream. Next must be
// allocation-free; the core calls it once per dispatched instruction.
type Generator interface {
	// Next overwrites ins with the next dynamic instruction.
	Next(ins *Instr)
}

// Params fully describes a synthetic application's statistical behavior.
// All fractions are in [0, 1].
type Params struct {
	// Instruction mix. LoadFrac + StoreFrac + BranchFrac <= 1; the remainder
	// is compute, split by FPFrac and MulFrac.
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64
	FPFrac     float64 // fraction of compute that is floating point
	MulFrac    float64 // fraction of compute that is a multiply

	// Memory reference pattern: fractions of memory accesses that stream
	// sequentially / jump uniformly over the footprint; the remainder hits a
	// small hot set. StreamFrac + RandomFrac <= 1.
	StreamFrac float64
	RandomFrac float64

	// WordsPerLine is how many sequential word accesses fall on one cache
	// line while streaming (64-byte line / 8-byte word = 8): only every
	// WordsPerLine-th streaming access advances to a new line.
	WordsPerLine int
	// RunLenLines is the mean sequential run length in cache lines before
	// the stream jumps to a new random position (spatial locality knob: long
	// runs produce DRAM row-buffer hits).
	RunLenLines float64
	// StrideLines is the line-address step between consecutive streamed
	// lines (0 or 1 = unit stride). With cache-line interleaving, a stride
	// equal to a fraction of the bank stride makes a stream revisit the same
	// DRAM rows while its requests are still queued — the row-buffer
	// locality large-stride FP codes exhibit.
	StrideLines int
	// FootprintLines is the size of the streamed/random region in lines;
	// it should far exceed the L2 capacity for memory-intensive codes.
	FootprintLines uint64
	// HotLines is the size of the hot set in lines (L1/L2 resident).
	HotLines uint64

	// DepProb is the probability that a compute or branch instruction
	// depends on the most recent load (instruction-level-parallelism knob:
	// high values serialize execution behind memory).
	DepProb float64

	// CodeLines is the instruction-footprint size in cache lines (0 = 64,
	// a 4 KiB hot loop). Codes with footprints beyond the 64 KiB L1I (1024
	// lines) suffer instruction-fetch misses, as the large integer codes
	// (gcc, perlbmk, vortex) do on real hardware. The core's front end walks
	// this region sequentially and jumps on taken branches.
	CodeLines uint64
	// TakenProb is the probability a branch redirects fetch (0 = 0.5).
	TakenProb float64

	// Phase behavior: real programs alternate memory-intense and compute
	// phases; fixed-priority schemes fail exactly when a high-priority
	// thread bursts (paper Section 5.1). PhaseInstr is the phase period in
	// instructions (0 disables phases): within each period the first
	// PhaseHotFrac portion is a hot burst whose LoadFrac/StoreFrac are
	// multiplied by PhaseGain; the remainder is scaled down so the long-run
	// average instruction mix is unchanged. Phases are deterministic and
	// periodic (with a seed-derived start offset) so that short slices see a
	// representative number of bursts.
	PhaseInstr   float64
	PhaseHotFrac float64
	PhaseGain    float64
}

// coldGain returns the cold-phase memory-intensity multiplier that keeps the
// long-run average mix equal to the configured fractions.
func (p *Params) coldGain() float64 {
	if p.PhaseHotFrac >= 1 {
		return 1
	}
	return (1 - p.PhaseHotFrac*p.PhaseGain) / (1 - p.PhaseHotFrac)
}

// maxPhaseInstr bounds PhaseInstr, so that its conversion to an int period
// cannot overflow even where int has 32 bits.
const maxPhaseInstr = math.MaxInt32

// Validate reports the first structural problem with the parameters.
func (p *Params) Validate() error {
	// Every float field must be finite: the generator turns them into
	// integer thresholds, periods and run lengths, and converting NaN or an
	// infinity to an integer is implementation-defined in Go.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LoadFrac", p.LoadFrac}, {"StoreFrac", p.StoreFrac}, {"BranchFrac", p.BranchFrac},
		{"FPFrac", p.FPFrac}, {"MulFrac", p.MulFrac},
		{"StreamFrac", p.StreamFrac}, {"RandomFrac", p.RandomFrac},
		{"RunLenLines", p.RunLenLines}, {"DepProb", p.DepProb}, {"TakenProb", p.TakenProb},
		{"PhaseInstr", p.PhaseInstr}, {"PhaseHotFrac", p.PhaseHotFrac}, {"PhaseGain", p.PhaseGain},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("trace: %s = %v is not finite", f.name, f.v)
		}
	}
	frac := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("trace: %s = %v out of [0,1]", name, v)
		}
		return nil
	}
	checks := []error{
		frac("LoadFrac", p.LoadFrac),
		frac("StoreFrac", p.StoreFrac),
		frac("BranchFrac", p.BranchFrac),
		frac("FPFrac", p.FPFrac),
		frac("MulFrac", p.MulFrac),
		frac("StreamFrac", p.StreamFrac),
		frac("RandomFrac", p.RandomFrac),
		frac("DepProb", p.DepProb),
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	if p.LoadFrac+p.StoreFrac+p.BranchFrac > 1 {
		return fmt.Errorf("trace: instruction mix fractions sum to %v > 1",
			p.LoadFrac+p.StoreFrac+p.BranchFrac)
	}
	if p.StreamFrac+p.RandomFrac > 1 {
		return fmt.Errorf("trace: access pattern fractions sum to %v > 1",
			p.StreamFrac+p.RandomFrac)
	}
	if p.WordsPerLine < 1 {
		return fmt.Errorf("trace: WordsPerLine %d < 1", p.WordsPerLine)
	}
	if p.RunLenLines < 1 {
		return fmt.Errorf("trace: RunLenLines %v < 1", p.RunLenLines)
	}
	if p.FootprintLines < 1 || p.HotLines < 1 {
		return fmt.Errorf("trace: footprint and hot set must be at least one line")
	}
	if p.StrideLines < 0 {
		return fmt.Errorf("trace: StrideLines %d < 0", p.StrideLines)
	}
	if p.CodeLines > 1<<20 {
		return fmt.Errorf("trace: CodeLines %d implausibly large (max 1Mi lines = 64 MiB)", p.CodeLines)
	}
	if err := frac("TakenProb", p.TakenProb); err != nil {
		return err
	}
	if p.PhaseInstr != 0 && (p.PhaseInstr < 1 || p.PhaseInstr > maxPhaseInstr) {
		return fmt.Errorf("trace: PhaseInstr %v is neither 0 nor in [1, %d]", p.PhaseInstr, maxPhaseInstr)
	}
	if p.PhaseInstr > 0 {
		if err := frac("PhaseHotFrac", p.PhaseHotFrac); err != nil {
			return err
		}
		if p.PhaseGain < 1 {
			return fmt.Errorf("trace: PhaseGain %v < 1", p.PhaseGain)
		}
		if p.PhaseHotFrac*p.PhaseGain > 1 {
			return fmt.Errorf("trace: PhaseHotFrac x PhaseGain = %v > 1 (cold phases would need negative intensity)",
				p.PhaseHotFrac*p.PhaseGain)
		}
		if (p.LoadFrac+p.StoreFrac)*p.PhaseGain+p.BranchFrac > 1 {
			return fmt.Errorf("trace: hot-phase memory fraction %v pushes the mix above 1",
				(p.LoadFrac+p.StoreFrac)*p.PhaseGain)
		}
	}
	return nil
}

// Synthetic is the profile-driven generator.
type Synthetic struct {
	p    Params
	rng  *xrand.Rand
	base uint64 // address-space offset isolating this core's region

	// Every per-instruction draw compares one of these prepared thresholds
	// with an integer draw (see xrand.Prob). kinds[0] splits the
	// instruction mix outside hot phases and kinds[1] inside them.
	kinds          [2]kindThresholds
	stream, random uint64 // memLine's pattern split: StreamFrac, + RandomFrac
	dep, fp, mul   xrand.Prob

	streamLine uint64
	wordInLine int
	runLeft    int

	phasePos    int // position within the current phase period
	phasePeriod int
	phaseHotLen int
}

// kindThresholds are the cumulative thresholds of one instruction mix: a
// draw below load is a load, below store a store, below branch a branch.
type kindThresholds struct{ load, store, branch uint64 }

// threshold is the integer form of the float compare Float64() < x.
func threshold(x float64) uint64 { return uint64(xrand.NewProb(x)) }

// NewSynthetic builds a generator for the given parameters. base is the
// first line address of the generator's private region (cores get disjoint
// regions so multiprogrammed workloads share nothing, as in the paper).
func NewSynthetic(p Params, base uint64, seed uint64) (*Synthetic, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Synthetic{p: p, rng: xrand.New(seed), base: base}
	// Each threshold comes from the float products and sums, in the order,
	// that a compare of Float64() with the mix would use, so it splits the
	// draws exactly where that compare does. A gain of 1 leaves a fraction
	// exactly as it is.
	mix := func(gain float64) kindThresholds {
		load, store := p.LoadFrac*gain, p.StoreFrac*gain
		return kindThresholds{
			load:   threshold(load),
			store:  threshold(load + store),
			branch: threshold(load + store + p.BranchFrac),
		}
	}
	cold := 1.0
	if p.PhaseInstr > 0 {
		cold = p.coldGain()
	}
	g.kinds = [2]kindThresholds{mix(cold), mix(p.PhaseGain)}
	g.stream = threshold(p.StreamFrac)
	g.random = threshold(p.StreamFrac + p.RandomFrac)
	g.dep, g.fp, g.mul = xrand.NewProb(p.DepProb), xrand.NewProb(p.FPFrac), xrand.NewProb(p.MulFrac)
	g.jump()
	if p.PhaseInstr > 0 {
		g.phasePeriod = int(p.PhaseInstr)
		g.phaseHotLen = int(p.PhaseInstr * p.PhaseHotFrac)
		// Seed-derived start offset decorrelates co-running applications'
		// bursts while keeping the stream a pure function of (params, seed).
		g.phasePos = g.rng.Intn(g.phasePeriod)
	}
	return g, nil
}

// RegionLines returns the number of line addresses a Synthetic with these
// parameters can touch, for callers laying out disjoint per-core regions.
func (p *Params) RegionLines() uint64 { return p.FootprintLines + p.HotLines }

// EffectiveCodeLines resolves the CodeLines default (64 lines = a 4 KiB hot
// loop).
func (p *Params) EffectiveCodeLines() uint64 {
	if p.CodeLines == 0 {
		return 64
	}
	return p.CodeLines
}

// EffectiveTakenProb resolves the TakenProb default (0.5).
func (p *Params) EffectiveTakenProb() float64 {
	if p.TakenProb == 0 {
		return 0.5
	}
	return p.TakenProb
}

func (g *Synthetic) jump() {
	g.streamLine = g.rng.Uint64n(g.p.FootprintLines)
	g.wordInLine = 0
	g.runLeft = g.rng.Geometric(g.p.RunLenLines)
}

// Next implements Generator.
func (g *Synthetic) Next(ins *Instr) {
	k := &g.kinds[0]
	if g.phasePeriod > 0 {
		if g.phasePos < g.phaseHotLen {
			k = &g.kinds[1]
		}
		g.phasePos++
		if g.phasePos >= g.phasePeriod {
			g.phasePos = 0
		}
	}
	// The kind comes from compares, not a chain of branches on the draw:
	// the load, store and branch thresholds are cumulative, and the compute
	// kinds are numbered so that a multiply sets bit 0 and FP sets bit 1.
	// Each kind keeps its draws in the order the stream pins fix: memory
	// draws its line then dep, a branch dep, compute dep then fp then mul.
	x := g.rng.Uint53()
	if x < k.store {
		ins.Kind = KindStore - kindIf(x < k.load)
		ins.Line = g.memLine()
		// A dependent load models pointer chasing: its address comes from
		// the previous load, serializing the memory stream.
		ins.DepOnLoad = g.rng.Hit(g.dep)
		return
	}
	ins.Line = 0
	ins.DepOnLoad = g.rng.Hit(g.dep)
	if x < k.branch {
		ins.Kind = KindBranch
		return
	}
	fp := kindIf(g.rng.Hit(g.fp))
	mul := kindIf(g.rng.Hit(g.mul))
	ins.Kind = mul | fp<<1
}

// memLine draws the next memory reference's cache-line address.
func (g *Synthetic) memLine() uint64 {
	x := g.rng.Uint53()
	if x < g.stream {
		// Sequential walk: advance a line every WordsPerLine accesses, jump
		// after the current run is exhausted.
		g.wordInLine++
		if g.wordInLine >= g.p.WordsPerLine {
			g.wordInLine = 0
			stride := uint64(g.p.StrideLines)
			if stride == 0 {
				stride = 1
			}
			g.streamLine += stride
			if g.streamLine >= g.p.FootprintLines {
				g.streamLine -= g.p.FootprintLines
			}
			g.runLeft--
			if g.runLeft <= 0 {
				g.jump()
			}
		}
		return g.base + g.streamLine
	}
	// A random line falls anywhere in the footprint, a hot one in the hot
	// set just past it: one bounded draw either way.
	n, off := g.p.FootprintLines, uint64(0)
	if x >= g.random {
		n, off = g.p.HotLines, g.p.FootprintLines
	}
	return g.base + off + g.rng.Uint64n(n)
}
