// Package cpu implements the simplified out-of-order core timing model.
//
// The model keeps exactly the mechanisms that determine how memory scheduling
// affects performance — which is what the paper's evaluation measures:
//
//   - in-order retirement bounded by a finite ROB: a long-latency load at the
//     ROB head stalls the core once the window fills;
//   - bounded load/store queues and L1 MSHRs: memory-level parallelism is
//     finite, so per-core pending-request counts carry information (LREQ);
//   - explicit load-use dependences from the trace: low-ILP codes serialize
//     behind memory while high-ILP codes keep retiring;
//   - branch mispredictions flush-and-refill the front end, bounding the IPC
//     of compute-heavy codes below the issue width.
//
// Deliberately not modeled (documented simplifications): register renaming,
// functional-unit structural hazards beyond latency, instruction fetch
// misses, and speculative wrong-path memory accesses. The IQ bound is
// approximated by capping the number of load-dependent instructions waiting
// in the window.
package cpu

import (
	"fmt"

	"memsched/internal/cache"
	"memsched/internal/config"
	"memsched/internal/trace"
	"memsched/internal/xrand"
)

const waiting = int64(-1) // readyAt sentinel: blocked on a load completion

type robEntry struct {
	readyAt  int64
	isLoad   bool
	isStore  bool
	mispred  bool // mispredicted branch: resolving it restarts the front end
	depLat   int64
	firstDep int32 // head of the dependent chain (absolute ROB index), -1
	nextDep  int32
	line     uint64 // memory address for loads/stores
}

// Stats holds one core's execution counters.
type Stats struct {
	Retired      uint64
	Cycles       int64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	Mispredicts  uint64
	RetireStalls uint64 // cycles with zero retirement while the ROB was non-empty
	DispatchHaz  uint64 // dispatch attempts blocked by LQ/SQ/MSHR/FU hazards
	IFetchStalls uint64 // front-end stalls waiting for an instruction line
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// Core is one simulated processor core.
type Core struct {
	id   int
	cfg  *config.Config
	gen  trace.Generator
	hier *cache.Hierarchy
	rng  *xrand.Rand

	rob        []robEntry
	head, tail int64 // absolute indices; occupancy = tail - head
	// headSlot and tailSlot are head and tail wrapped into rob, advanced
	// beside them so that no access divides.
	headSlot, tailSlot int

	lqUsed, sqUsed int
	iqWaiting      int // load-dependent instructions parked in the window

	fetchBlockedUntil int64

	pendingIns  trace.Instr
	havePending bool

	// fuUsed counts per-cycle functional-unit issue (Table 1: 4 IntALU,
	// 2 IntMult, 2 FPALU, 1 FPMult); fuCycle tags the cycle the counters
	// belong to. A non-memory kind k issues to pool k.Pool() and takes
	// fuLat[k.Pool()] cycles; the limits and latencies are copied out of cfg
	// once.
	fuUsed   [4]int
	fuLimits [4]int
	fuLat    [4]int64
	fuCycle  int64

	// Instruction-fetch model (ConfigureFetch): the front end walks a code
	// region sequentially, instrsPerLine instructions per cache line, and
	// jumps on taken branches. A line missing from the L1I stalls dispatch.
	codeLines   uint64
	codeBase    uint64
	taken       xrand.Prob
	fetchLine   uint64
	fetchOffset int
	iLineReady  bool
	iFetchBusy  bool // an asynchronous I-fetch is outstanding

	lastLoad int64 // absolute index of youngest in-flight load, -1 if none
	lastSlot int   // lastLoad wrapped into rob
	idle     bool  // last Tick retired and dispatched nothing (see IdleLastTick)

	mispredict xrand.Prob // cfg.Core.BranchMissPct, prepared once

	// Quiescent fast path: when an idle Tick proves (via stallInfo) that every
	// cycle before quietUntil can only repeat the same stall, later Ticks take
	// a counters-only path instead of re-scanning retire and dispatch.
	// quietHaz is the DispatchHaz increment each such cycle records. Any
	// completion callback from the cache hierarchy clears quietUntil, since
	// fills, drains and frees are exactly the external events that can change
	// the stall conditions. noQuiesce disables the fast path (with cycle
	// skipping off, the core becomes a strict cycle-by-cycle reference).
	quietUntil int64
	quietHaz   uint64
	noQuiesce  bool
	prefetchCB func(int64) // invalidation-only callback for L1I prefetches

	// Completion callbacks handed to the cache hierarchy, bound once at
	// construction so the dispatch/retire hot paths allocate no closures:
	// loadCB[i] wakes the load occupying ROB slot i, storeDrainCB frees the
	// SQ entry of a drained store, iFetchDoneCB publishes a fetched I-line.
	loadCB       []func(int64)
	storeDrainCB func(int64)
	iFetchDoneCB func(int64)

	stats Stats
}

// NewCore builds core id executing gen against hier.
func NewCore(id int, cfg *config.Config, gen trace.Generator, hier *cache.Hierarchy, rng *xrand.Rand) *Core {
	if gen == nil || hier == nil || rng == nil {
		panic("cpu: nil dependency")
	}
	c := &Core{
		id:         id,
		cfg:        cfg,
		gen:        gen,
		hier:       hier,
		rng:        rng,
		rob:        make([]robEntry, cfg.Core.ROBSize),
		lastLoad:   -1,
		mispredict: xrand.NewProb(cfg.Core.BranchMissPct),
	}
	c.fuLimits = [4]int{cfg.Core.IntALUs, cfg.Core.IntMults, cfg.Core.FPALUs, cfg.Core.FPMults}
	c.fuLat = [4]int64{int64(cfg.Core.IntALULat), int64(cfg.Core.IntMultLat), int64(cfg.Core.FPALULat), int64(cfg.Core.FPMultLat)}
	c.loadCB = make([]func(int64), len(c.rob))
	for i := range c.loadCB {
		slot := i
		c.loadCB[i] = func(t int64) { c.loadComplete(slot, t) }
	}
	c.storeDrainCB = func(int64) {
		c.sqUsed--
		c.quietUntil = 0
	}
	c.iFetchDoneCB = func(int64) {
		c.iFetchBusy = false
		c.iLineReady = true
		c.quietUntil = 0
	}
	// Prefetch fills carry no architectural effect, but they free L1I MSHR
	// entries, which can end a WouldRejectInstr stall — so they must still
	// invalidate the quiescent fast path.
	c.prefetchCB = func(int64) { c.quietUntil = 0 }
	return c
}

// SetNoQuiesce disables (or re-enables) the core's quiescent fast path, so a
// run with cycle skipping off is a strict cycle-by-cycle reference for
// differential testing.
func (c *Core) SetNoQuiesce(v bool) {
	c.noQuiesce = v
	c.quietUntil = 0
}

// instrsPerLine is how many instructions one 64-byte cache line holds at a
// fixed 4-byte encoding.
const instrsPerLine = 16

// ConfigureFetch enables instruction-fetch modeling: the front end streams
// through a code region of codeLines cache lines starting at line address
// base, redirecting to a random line on a taken branch (probability
// takenProb). Without this call, instruction supply is ideal.
func (c *Core) ConfigureFetch(codeLines uint64, takenProb float64, base uint64) {
	if codeLines == 0 {
		c.codeLines = 0
		return
	}
	c.codeLines = codeLines
	c.codeBase = base
	c.taken = xrand.NewProb(takenProb)
	c.fetchLine = 0
	c.fetchOffset = 0
	c.iLineReady = false
	c.iFetchBusy = false
}

// ensureFetchLine returns true when the current instruction line is
// available to dispatch from, starting an L1I fetch if needed.
func (c *Core) ensureFetchLine(now int64) bool {
	if c.codeLines == 0 || c.iLineReady {
		return true
	}
	if c.iFetchBusy {
		return false
	}
	line := c.codeBase + c.fetchLine
	_, async, ok := c.hier.AccessInstr(c.id, line, now, c.iFetchDoneCB)
	if !ok {
		c.stats.DispatchHaz++
		return false
	}
	// Sequential prefetch, four lines deep: straight-line code consumes a
	// line every ~4 cycles at full width, so the prefetcher needs enough
	// lead to cover an L2 round trip. Only branch targets and cold first
	// passes stall the front end.
	for d := uint64(1); d <= 4; d++ {
		next := c.codeBase + (c.fetchLine+d)%c.codeLines
		if !c.hier.L1I(c.id).Peek(next) {
			c.hier.AccessInstr(c.id, next, now, c.prefetchCB)
		}
	}
	if async {
		c.iFetchBusy = true
		c.stats.IFetchStalls++
		return false
	}
	// L1I hit: the 1-cycle fetch latency is hidden by the pipeline.
	c.iLineReady = true
	return true
}

// Branch-target locality: most taken branches stay within a small window
// (loops, if/else); a minority are far calls that move the front end to a
// cold part of the code region.
const (
	farJumpProb   = 0.1
	localJumpSpan = 8 // lines either side of the current fetch line
)

// farJump is farJumpProb prepared for Rand.Hit.
var farJump = xrand.NewProb(farJumpProb)

// consumeFetch advances the fetch stream past one dispatched instruction;
// taken reports whether the instruction redirected fetch.
func (c *Core) consumeFetch(taken bool) {
	if c.codeLines == 0 {
		return
	}
	if taken {
		if c.rng.Hit(farJump) {
			c.fetchLine = c.rng.Uint64n(c.codeLines)
		} else {
			span := uint64(2*localJumpSpan + 1)
			if span > c.codeLines {
				span = c.codeLines
			}
			delta := c.rng.Uint64n(span)
			c.fetchLine = (c.fetchLine + c.codeLines + delta - span/2) % c.codeLines
		}
		c.fetchOffset = 0
		c.iLineReady = false
		return
	}
	c.fetchOffset++
	if c.fetchOffset >= instrsPerLine {
		c.fetchOffset = 0
		c.fetchLine++
		if c.fetchLine >= c.codeLines {
			c.fetchLine = 0
		}
		c.iLineReady = false
	}
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Stats returns a pointer to the core's counters.
func (c *Core) Stats() *Stats { return &c.stats }

// Retired returns the number of retired instructions.
func (c *Core) Retired() uint64 { return c.stats.Retired }

// ROBOccupancy returns the instantaneous number of in-flight instructions in
// the reorder buffer (telemetry sampling).
func (c *Core) ROBOccupancy() int { return int(c.tail - c.head) }

// advance returns the ROB slot after slot.
func (c *Core) advance(slot int) int {
	if slot++; slot == len(c.rob) {
		return 0
	}
	return slot
}

func (c *Core) robFull() bool { return c.tail-c.head >= int64(len(c.rob)) }

// Tick advances the core by one cycle: retire then dispatch, both bounded by
// the issue width.
func (c *Core) Tick(now int64) {
	c.stats.Cycles++
	if now < c.quietUntil {
		// Quiescent fast path: this cycle provably repeats the last stall,
		// so apply its exact per-cycle accounting without re-scanning.
		if c.head < c.tail {
			c.stats.RetireStalls++
		}
		c.stats.DispatchHaz += c.quietHaz
		c.idle = true
		return
	}
	r0, t0 := c.stats.Retired, c.tail
	c.retire(now)
	c.dispatch(now)
	c.idle = c.stats.Retired == r0 && c.tail == t0
	if c.idle && !c.noQuiesce {
		if next, haz := c.stallInfo(now); next > now+1 {
			c.quietUntil, c.quietHaz = next, haz
		}
	}
}

// IdleLastTick reports whether the most recent Tick neither retired nor
// dispatched anything. It is the run loop's cheap pre-filter for next-event
// time advance: a cycle-skip is only possible when every core was idle, so
// the full NextEventAt scan is not even attempted while any core makes
// progress.
func (c *Core) IdleLastTick() bool { return c.idle }

func (c *Core) retire(now int64) {
	width := c.cfg.Core.IssueWidth
	retiredNow := 0
	for retiredNow < width && c.head < c.tail {
		e := &c.rob[c.headSlot]
		if e.readyAt == waiting || e.readyAt > now {
			break
		}
		if e.isStore {
			// The retiring store drains to the cache in the background but
			// holds its SQ entry until the write completes.
			_, async, ok := c.hier.Access(c.id, e.line, true, now, c.storeDrainCB)
			if !ok {
				c.stats.DispatchHaz++
				break // structural hazard: retry retirement next cycle
			}
			if !async {
				c.sqUsed--
			}
		}
		c.lqUsed -= b2i(e.isLoad)
		c.head++
		c.headSlot = c.advance(c.headSlot)
		c.stats.Retired++
		retiredNow++
	}
	if retiredNow == 0 && c.head < c.tail {
		c.stats.RetireStalls++
	}
}

func (c *Core) dispatch(now int64) {
	if now < c.fetchBlockedUntil {
		return
	}
	width := c.cfg.Core.IssueWidth
	for n := 0; n < width; n++ {
		if c.robFull() {
			return
		}
		if !c.ensureFetchLine(now) {
			return
		}
		if !c.havePending {
			c.gen.Next(&c.pendingIns)
			c.havePending = true
		}
		if !c.dispatchOne(now, &c.pendingIns) {
			return
		}
		c.consumeFetch(c.pendingIns.Kind == trace.KindBranch && c.rng.Hit(c.taken))
		c.havePending = false
		if now < c.fetchBlockedUntil {
			// The instruction just dispatched was a resolved mispredicted
			// branch: everything younger is squashed until refill.
			return
		}
	}
}

// dispatchOne places ins into the ROB. It returns false when a structural
// hazard prevents dispatch this cycle (the instruction stays pending).
func (c *Core) dispatchOne(now int64, ins *trace.Instr) bool {
	cc := &c.cfg.Core
	// Address dependence: a load or store whose address is produced by the
	// youngest in-flight load cannot issue until that load returns. This is
	// the pointer-chase serializer that destroys memory-level parallelism in
	// codes like mcf. Dispatch stalls in place and retries each cycle.
	if ins.Kind.IsMem() && ins.DepOnLoad && c.lastLoadInFlight() {
		c.stats.DispatchHaz++
		return false
	}
	switch ins.Kind {
	case trace.KindLoad:
		if c.lqUsed >= cc.LQSize {
			c.stats.DispatchHaz++
			return false
		}
		lat, async, ok := c.hier.Access(c.id, ins.Line, false, now, c.loadCB[c.tailSlot])
		if !ok {
			c.stats.DispatchHaz++
			return false
		}
		e := &c.rob[c.tailSlot]
		*e = robEntry{isLoad: true, firstDep: -1, line: ins.Line}
		if async {
			e.readyAt = waiting
		} else {
			e.readyAt = now + lat
		}
		c.lqUsed++
		c.lastLoad, c.lastSlot = c.tail, c.tailSlot
		c.pushTail()
		c.stats.Loads++
		return true

	case trace.KindStore:
		if c.sqUsed >= cc.SQSize {
			c.stats.DispatchHaz++
			return false
		}
		c.rob[c.tailSlot] = robEntry{isStore: true, firstDep: -1, line: ins.Line, readyAt: now + 1}
		c.sqUsed++
		c.pushTail()
		c.stats.Stores++
		return true

	default:
		pool := ins.Kind.Pool()
		if !c.reserveFU(now, pool) {
			c.stats.DispatchHaz++
			return false
		}
		lat := c.fuLat[pool]
		e := &c.rob[c.tailSlot]
		*e = robEntry{firstDep: -1}
		isBranch := ins.Kind == trace.KindBranch
		if isBranch {
			c.stats.Branches++
			if c.rng.Hit(c.mispredict) {
				e.mispred = true
				c.stats.Mispredicts++
			}
		}
		if ins.DepOnLoad && c.lastLoadInFlight() {
			if c.iqWaiting >= cc.IQSize {
				c.stats.DispatchHaz++
				return false
			}
			// Park behind the youngest in-flight load.
			load := &c.rob[c.lastSlot]
			e.readyAt = waiting
			e.depLat = lat
			e.nextDep = load.firstDep
			load.firstDep = int32(c.tailSlot)
			c.iqWaiting++
		} else {
			e.readyAt = now + lat
			if e.mispred {
				c.redirectFrontEnd(e.readyAt)
			}
		}
		c.pushTail()
		return true
	}
}

// pushTail admits the instruction just written at tailSlot.
func (c *Core) pushTail() {
	c.tail++
	c.tailSlot = c.advance(c.tailSlot)
}

func (c *Core) lastLoadInFlight() bool {
	if c.lastLoad < c.head {
		return false
	}
	e := &c.rob[c.lastSlot]
	return e.isLoad && e.readyAt == waiting
}

// reserveFU claims a unit of functional-unit pool (0-3) for this cycle,
// returning false when the pool (Table 1: 4/2/2/1) is exhausted — a
// structural dispatch hazard.
func (c *Core) reserveFU(now int64, pool int) bool {
	if now != c.fuCycle {
		c.fuCycle = now
		c.fuUsed = [4]int{}
	}
	if c.fuUsed[pool] >= c.fuLimits[pool] {
		return false
	}
	c.fuUsed[pool]++
	return true
}

// b2i is 1 when b holds and 0 otherwise; the compiler turns it into a zero
// extension of b, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// loadComplete fires when a load's data arrives: it wakes the load occupying
// ROB slot `slot` and every instruction chained behind it. A load holds its
// slot until it completes (in-order retirement cannot pass a waiting load),
// so the occupant is always the load the callback was issued for; the guard
// below is defensive and ignores a completion for a slot that holds no
// waiting load.
func (c *Core) loadComplete(slot int, now int64) {
	c.quietUntil = 0
	e := &c.rob[slot]
	if !e.isLoad || e.readyAt != waiting {
		return // already retired (cannot happen in-order, but guard)
	}
	e.readyAt = now
	dep := e.firstDep
	e.firstDep = -1
	for dep >= 0 {
		d := &c.rob[dep]
		next := d.nextDep
		d.nextDep = -1
		d.readyAt = now + d.depLat
		c.iqWaiting--
		if d.mispred {
			c.redirectFrontEnd(d.readyAt)
		}
		dep = next
	}
}

// FarFuture is the NextEventAt value of a component whose next progress
// depends purely on an external completion (another component's event).
const FarFuture = int64(1)<<62 - 1

// NextEventAt implements the simulator's next-event time-advance contract.
// Called after Tick(now), it returns the earliest cycle t > now at which
// Tick(t) could do anything beyond the pure stall pattern that AbsorbStall
// accounts for: now+1 when the core may retire, dispatch, or start a fetch
// next cycle (the caller must then not skip), the core's own wake-up time
// (ROB-head readyAt, front-end refill) when it is provably stalled until
// then, or FarFuture when progress requires an external completion — a load
// return, an MSHR fill or a store drain, all of which arrive through cache or
// controller events that bound the global skip.
func (c *Core) NextEventAt(now int64) int64 {
	if now < c.quietUntil {
		return c.quietUntil
	}
	next, _ := c.stallInfo(now)
	return next
}

// AbsorbStall accounts k skipped Ticks (cycles now+1 .. now+k) during which
// the core provably only stalled: the per-cycle counters advance exactly as k
// naive Ticks would have advanced them (Cycles, RetireStalls while the ROB is
// non-empty, and the deterministic per-cycle DispatchHaz increments of
// retrying a blocked store retirement or a rejected dispatch).
func (c *Core) AbsorbStall(now, k int64) {
	haz := c.quietHaz
	if now >= c.quietUntil {
		_, haz = c.stallInfo(now)
	}
	c.stats.Cycles += k
	if c.head < c.tail {
		c.stats.RetireStalls += uint64(k)
	}
	c.stats.DispatchHaz += uint64(k) * haz
}

// stallInfo performs a read-only replay of what Tick(now+1) would do. It
// returns (now+1, 0) whenever the core might make progress — retire an
// instruction, dispatch one, park a dependent, draw a new instruction from
// the generator, or start an instruction fetch — since any of those mutate
// state or consume randomness and therefore cannot be skipped. Otherwise it
// returns the earliest self-scheduled wake-up time (FarFuture when the stall
// only external events can end) and the DispatchHaz increments one stalled
// cycle records. Every condition consulted here is frozen between events:
// MSHR and queue occupancy only change through cache/controller events, and
// ROB/LQ/SQ/IQ state only changes through the core's own progress.
func (c *Core) stallInfo(now int64) (next int64, haz uint64) {
	next = FarFuture
	// Retire side: only the ROB head can unblock retirement.
	if c.head < c.tail {
		e := &c.rob[c.headSlot]
		switch {
		case e.readyAt == waiting:
			// Blocked on a load completion (external).
		case e.readyAt > now:
			next = e.readyAt
		case e.isStore && c.hier.WouldRejectData(c.id, e.line):
			// A ready store retried against a full L1 MSHR each cycle: one
			// DispatchHaz per cycle, unblocked by a fill (external).
			haz++
		default:
			return now + 1, 0 // head would retire next cycle
		}
	}
	// Dispatch side, mirroring dispatch()'s early-outs in order.
	if c.fetchBlockedUntil > now {
		// Mispredict refill: dispatch returns silently until the restart time.
		if c.fetchBlockedUntil < next {
			next = c.fetchBlockedUntil
		}
		return next, haz
	}
	if c.robFull() {
		return next, haz // silent; unblocked only by the head retiring
	}
	if c.codeLines != 0 && !c.iLineReady {
		if c.iFetchBusy {
			return next, haz // waiting for the I-line fill (external)
		}
		if c.hier.WouldRejectInstr(c.id, c.codeBase+c.fetchLine) {
			return next, haz + 1 // rejected fetch start retried each cycle
		}
		return now + 1, 0 // would start an I-fetch
	}
	if !c.havePending {
		return now + 1, 0 // would draw from the generator
	}
	ins := &c.pendingIns
	if ins.Kind.IsMem() && ins.DepOnLoad && c.lastLoadInFlight() {
		return next, haz + 1 // address dependence on an in-flight load
	}
	switch ins.Kind {
	case trace.KindLoad:
		if c.lqUsed >= c.cfg.Core.LQSize {
			return next, haz + 1 // LQ full until a load retires
		}
		if c.hier.WouldRejectData(c.id, ins.Line) {
			return next, haz + 1 // L1D MSHR full until a fill (external)
		}
		return now + 1, 0
	case trace.KindStore:
		if c.sqUsed >= c.cfg.Core.SQSize {
			return next, haz + 1 // SQ full until a drain completes (external)
		}
		return now + 1, 0
	default:
		if ins.DepOnLoad && c.lastLoadInFlight() && c.iqWaiting >= c.cfg.Core.IQSize {
			return next, haz + 1 // window full of parked dependents
		}
		// Compute: FU pools reset every cycle, so dispatch succeeds next cycle.
		return now + 1, 0
	}
}

func (c *Core) redirectFrontEnd(resolveAt int64) {
	restart := resolveAt + int64(c.cfg.Core.PipelineDepth)
	if restart > c.fetchBlockedUntil {
		c.fetchBlockedUntil = restart
	}
}

// String summarizes the core state for debugging.
func (c *Core) String() string {
	return fmt.Sprintf("core%d{retired=%d rob=%d lq=%d sq=%d}",
		c.id, c.stats.Retired, c.tail-c.head, c.lqUsed, c.sqUsed)
}
