package cache

import (
	"memsched/internal/config"
	"memsched/internal/memctrl"
	"memsched/internal/trace"
)

// CoreAccessStats counts the data accesses one core made at each level.
type CoreAccessStats struct {
	Loads      uint64
	Stores     uint64
	L1Hits     uint64
	L1Misses   uint64
	L2Hits     uint64
	L2Misses   uint64
	MemReads   uint64 // demand fetches this core sent to DRAM
	IFetches   uint64 // instruction-line fetches issued by the front end
	L1IMisses  uint64
	Prefetches uint64 // L2 stream-prefetch fetches issued on this core's behalf
}

// Hierarchy wires per-core L1 data caches and the shared L2 to the memory
// controller. It is single-threaded and driven by Tick from the simulation
// loop; internal latencies are sequenced on a private event queue.
//
// An L2 miss that finds the shared miss file full is parked: it waits in the
// next-cycle queue, but is not re-run while nothing it reads (the miss file's
// entries and the L2 tags) has changed, and NextEventAt ignores it, so a run
// blocked only on DRAM returns can skip ahead. Each skipped or unrun attempt
// would have failed the same way without changing any state.
//
// Modeling notes (documented simplifications):
//   - Instruction fetch goes through per-core L1I caches (AccessInstr) and
//     shares the L2; most profiles use hot loops that fit the L1I, matching
//     SPEC CPU2000 FP codes, while the large integer codes are given
//     footprints that spill.
//   - The hierarchy is non-inclusive: an L2 eviction does not back-invalidate
//     L1 copies. Workloads are multiprogrammed (no sharing), so this only
//     affects rare dirty-victim ordering, not correctness of the statistics.
//   - A dirty L1 victim whose line is absent from L2 is written straight to
//     memory rather than re-allocated in L2.
type Hierarchy struct {
	cfg *config.Config
	mc  *memctrl.Controller

	l1d  []*Cache
	l1m  []*MSHR
	l1i  []*Cache
	l1im []*MSHR
	l2   *Cache
	l2m  *MSHR
	core []CoreAccessStats

	// events sequences internal latencies as typed values; eventSeq preserves
	// same-cycle insertion order (see hq.go).
	events   heventHeap
	eventSeq uint64

	// next holds, in scheduling order, the events due at nextAt that were
	// scheduled after runEvents(nextAt-1) began; every heap event due at
	// nextAt was scheduled before, so running the heap's events first and
	// then next is exactly (when, seq) order. spare is the buffer
	// runEvents drains the previous next from.
	next   []hevent
	spare  []hevent
	nextAt int64
	// nextParked reports that every event in next is a parked L2 request,
	// and nextL2Ver is l2Ver when the first of them was parked. While both
	// hold, next sleeps (see asleep).
	nextParked bool
	nextL2Ver  uint64
	// l2Ver counts changes to what a parked request reads: new L2 miss-file
	// entries, freed entries and L2 fills.
	l2Ver uint64
	// noPark retries blocked requests every cycle (see SetNoPark).
	noPark bool

	l2PortCycle int64
	l2PortUsed  int

	// wbRetry holds write-backs rejected by a full controller write queue.
	wbRetry []wbEntry

	l1HitLat int64
	l2HitLat int64

	// version counts mutations of the state NextEventAt derives from (the
	// event heap, the next-cycle queue and whether it sleeps, and the
	// write-back retry list), so callers can cache the horizon and
	// revalidate with one integer compare instead of rescanning.
	version uint64
}

type wbEntry struct {
	core int
	line uint64
}

// NewHierarchy builds the cache hierarchy for cfg, bound to mc.
func NewHierarchy(cfg *config.Config, mc *memctrl.Controller) *Hierarchy {
	h := &Hierarchy{
		cfg:      cfg,
		mc:       mc,
		l2:       MustNew(cfg.L2),
		l2m:      NewMSHR(cfg.L2.MSHRs),
		core:     make([]CoreAccessStats, cfg.Cores),
		l1HitLat: int64(cfg.L1D.HitLatency),
		l2HitLat: int64(cfg.L2.HitLatency),
	}
	for i := 0; i < cfg.Cores; i++ {
		h.l1d = append(h.l1d, MustNew(cfg.L1D))
		h.l1m = append(h.l1m, NewMSHR(cfg.L1D.MSHRs))
		h.l1i = append(h.l1i, MustNew(cfg.L1I))
		h.l1im = append(h.l1im, NewMSHR(cfg.L1I.MSHRs))
	}
	// At most one event is in flight per L1 miss-file entry (an L2 request
	// or fill) and per L2 entry (a memory read or fill), which bounds the
	// next-cycle queue.
	n := cfg.Cores*(cfg.L1D.MSHRs+cfg.L1I.MSHRs) + cfg.L2.MSHRs
	h.next, h.spare = make([]hevent, 0, n), make([]hevent, 0, n)
	return h
}

// SetNoPark makes L2 requests blocked on a full miss file retry every cycle
// instead of parking, so a run with cycle skipping off is a strict
// cycle-by-cycle reference for differential testing.
func (h *Hierarchy) SetNoPark(v bool) { h.noPark = v }

// CoreStats returns the per-core access counters for core.
func (h *Hierarchy) CoreStats(core int) *CoreAccessStats { return &h.core[core] }

// L1D returns core's L1 data cache (for inspection).
func (h *Hierarchy) L1D(core int) *Cache { return h.l1d[core] }

// L1I returns core's L1 instruction cache (for inspection).
func (h *Hierarchy) L1I(core int) *Cache { return h.l1i[core] }

// L2 returns the shared L2 cache (for inspection).
func (h *Hierarchy) L2() *Cache { return h.l2 }

// ResetStats zeroes per-core counters and cache event counts at a
// measurement-window boundary. Cache contents and in-flight misses persist.
func (h *Hierarchy) ResetStats() {
	for i := range h.core {
		h.core[i] = CoreAccessStats{}
	}
	for _, c := range h.l1d {
		c.ResetStats()
	}
	for _, c := range h.l1i {
		c.ResetStats()
	}
	h.l2.ResetStats()
}

// schedule enqueues a typed hierarchy event for cycle when.
func (h *Hierarchy) schedule(when int64, kind uint8, core int, line uint64, instr bool) {
	e := hevent{when: when, kind: kind, instr: instr, core: int32(core), line: line}
	if when == h.nextAt {
		h.enqueueNext(e, false)
		return
	}
	e.seq = h.eventSeq
	h.eventSeq++
	h.events.push(e)
	h.version++
}

// enqueueNext appends e to the next-cycle queue; parked marks an L2 request
// blocked on a full miss file.
func (h *Hierarchy) enqueueNext(e hevent, parked bool) {
	if len(h.next) == 0 {
		h.nextParked, h.nextL2Ver = parked, h.l2Ver
	} else if !parked {
		h.nextParked = false
	}
	h.next = append(h.next, e)
	h.version++
}

// l2Changed records a change to the L2 miss file's entries or the L2 tags,
// which wakes parked requests.
func (h *Hierarchy) l2Changed() {
	h.l2Ver++
	h.version++
}

// asleep reports whether the next-cycle queue holds only parked requests
// and nothing they read changed since the first of them was parked, so each
// would fail again exactly as it did.
func (h *Hierarchy) asleep() bool { return h.nextParked && h.nextL2Ver == h.l2Ver }

// runEvents fires every event due at or before now: first the heap's, in
// (time, insertion) order, then the next-cycle queue scheduled during the
// previous call, unless it sleeps. A sleeping queue is carried over unrun,
// behind whatever the heap's events scheduled for now+1, which is where its
// requests would have re-queued themselves. Hit latencies are at least one
// cycle (config.Validate), so no handler schedules an event for now itself.
func (h *Hierarchy) runEvents(now int64) {
	due, dueParked, dueVer := h.next, h.nextParked, h.nextL2Ver
	h.next, h.nextAt = h.spare[:0], now+1
	for len(h.events) > 0 && h.events[0].when <= now {
		e := h.events.pop()
		h.version++
		h.fire(e.when, &e)
	}
	switch {
	case len(due) == 0:
	case dueParked && dueVer == h.l2Ver:
		if len(h.next) == 0 {
			h.next, due = due, h.next
			h.nextParked, h.nextL2Ver = true, dueVer
		} else {
			h.next = append(h.next, due...)
		}
	default:
		h.version++
		for i := range due {
			h.fire(now, &due[i])
		}
	}
	h.spare = due[:0]
}

// fire runs one event at cycle now.
func (h *Hierarchy) fire(now int64, e *hevent) {
	switch e.kind {
	case hkL2Req:
		h.l2Request(int(e.core), e.line, now, e.instr)
	case hkFill:
		if e.instr {
			h.fillL1I(int(e.core), e.line, now)
		} else {
			h.fillL1(int(e.core), e.line, now)
		}
	case hkFillL2:
		h.fillL2(int(e.core), e.line, now)
	case hkMemRead:
		if h.mc.EnqueueRead(h, int(e.core), e.line, now) {
			h.core[e.core].MemReads++
		} else {
			h.schedule(now+1, hkMemRead, int(e.core), e.line, false)
		}
	}
}

// ReadReturned implements memctrl.ReadSink: DRAM data for (core, line) has
// reached the controller's core-side boundary.
func (h *Hierarchy) ReadReturned(core int, line uint64, now int64) {
	h.fillL2(core, line, now)
}

// Tick advances internal latency events to cycle now and retries queued
// write-backs. Served retries are compacted to the front of wbRetry's backing
// array (not sliced off it) so the array is reused instead of growing a
// stranded head on every drain.
//
// The caller ticks every cycle, apart from stretches NextEventAt proved
// idle, and makes the cycle's Access and AccessInstr calls before Tick: an
// event the next-cycle queue runs behind the heap's must not be overtaken
// by one scheduled later.
func (h *Hierarchy) Tick(now int64) {
	h.runEvents(now)
	served := 0
	for served < len(h.wbRetry) {
		wb := h.wbRetry[served]
		if !h.mc.EnqueueWrite(wb.core, wb.line, now) {
			break
		}
		served++
	}
	if served > 0 {
		n := copy(h.wbRetry, h.wbRetry[served:])
		h.wbRetry = h.wbRetry[:n]
		h.version++
	}
}

// Version is a change counter over the state NextEventAt reads (event heap,
// next-cycle queue and whether it sleeps, write-back retry list). Equal
// versions across two calls guarantee the hierarchy's horizon did not move
// in between, modulo the now-dependent clauses — callers must still discard
// cached values that are not strictly in their future.
func (h *Hierarchy) Version() uint64 { return h.version }

// NextEventAt implements the simulator's next-event time-advance contract.
// Called after Tick(now), it returns the cycle of the earliest pending
// internal event — every due event already fired, so the heap head is strictly
// in the future — or now+1 when the next-cycle queue is awake or a parked
// write-back would be accepted by the controller on the next Tick. A sleeping
// next-cycle queue contributes no wake-up time: only a fill or a new L2 miss
// wakes it, and those come from DRAM returns (bounded by the controller's
// NextEventAt) or from events already counted here. Likewise a write-back
// parked against a full write queue: the queue only drains when the
// controller issues a write, and the controller's own NextEventAt bounds the
// skip until then (AbsorbStall accounts the failed retry each skipped cycle
// would have recorded). cpu.FarFuture means no internal work is pending.
func (h *Hierarchy) NextEventAt(now int64) int64 {
	if len(h.next) > 0 && !h.asleep() {
		return now + 1
	}
	if len(h.wbRetry) > 0 && !h.mc.WriteQueueFull() {
		return now + 1
	}
	if len(h.events) > 0 {
		return h.events[0].when
	}
	return farFuture
}

// AbsorbStall accounts k skipped Ticks: each would have retried the head
// write-back against a still-full controller write queue and recorded one
// rejected-write admission.
func (h *Hierarchy) AbsorbStall(k int64) {
	if len(h.wbRetry) > 0 {
		h.mc.AbsorbRejectedWrites(uint64(k))
	}
}

const farFuture = int64(1)<<62 - 1

// WouldRejectData reports whether Access(core, line, ...) would fail on a
// structural hazard (L1D MSHR file full with no mergeable entry). It is
// read-only: cores use it to prove a dispatch or store-retirement stall will
// repeat identically until a fill frees an entry.
func (h *Hierarchy) WouldRejectData(core int, line uint64) bool {
	m := h.l1m[core]
	return h.l1d[core].probe(line) < 0 && !m.Outstanding(line) && m.Full()
}

// WouldRejectInstr is WouldRejectData for the instruction-fetch path
// (AccessInstr against the L1I and its MSHR file).
func (h *Hierarchy) WouldRejectInstr(core int, line uint64) bool {
	m := h.l1im[core]
	return h.l1i[core].probe(line) < 0 && !m.Outstanding(line) && m.Full()
}

// L1DMSHRLen returns the occupied entries of core's L1D miss file
// (telemetry sampling).
func (h *Hierarchy) L1DMSHRLen(core int) int { return h.l1m[core].Len() }

// L2MSHRLen returns the occupied entries of the shared L2 miss file.
func (h *Hierarchy) L2MSHRLen() int { return h.l2m.Len() }

// Quiescent reports whether no cache-side work is pending.
func (h *Hierarchy) Quiescent() bool {
	if len(h.events) > 0 || len(h.next) > 0 || len(h.wbRetry) > 0 || h.l2m.Len() > 0 {
		return false
	}
	for _, m := range h.l1m {
		if m.Len() > 0 {
			return false
		}
	}
	for _, m := range h.l1im {
		if m.Len() > 0 {
			return false
		}
	}
	return true
}

// Access issues a data access for core to cache line `line` at cycle now.
//
//	ok == false:  a structural hazard (full L1 MSHR) blocked the access;
//	              the caller must retry on a later cycle. done is NOT kept.
//	async == false: the access hits in L1D and completes at now + lat.
//	async == true:  done(t) fires when the data is available at the core.
func (h *Hierarchy) Access(core int, line uint64, write bool, now int64, done func(int64)) (lat int64, async, ok bool) {
	cs := &h.core[core]
	l1, mshr := h.l1d[core], h.l1m[core]

	// One tag scan resolves both the structural-hazard check and the lookup.
	// The hazard check comes first, before any statistics are recorded, so a
	// rejected access leaves no trace and is simply retried by the core.
	i := l1.probe(line)
	if i < 0 && !mshr.Outstanding(line) && mshr.Full() {
		return 0, false, false
	}

	if write {
		cs.Stores++
	} else {
		cs.Loads++
	}
	if i >= 0 {
		l1.touch(line, i, write)
		cs.L1Hits++
		return h.l1HitLat, false, true
	}
	l1.stats.Misses++
	cs.L1Misses++

	// L1 miss: reserve an MSHR entry (merging outstanding fetches of the
	// same line). The waiter replays the access against L1 after the fill,
	// which re-establishes LRU order and the dirty bit for stores.
	merged, _ := mshr.Allocate(line, Waiter{Write: write, Done: done})
	if !merged {
		// First miss for this line: start the L2 access after the L1 tag
		// check latency.
		h.schedule(now+h.l1HitLat, hkL2Req, core, line, false)
	}
	return 0, true, true
}

// AccessInstr performs an instruction-line fetch for core's front end. The
// contract matches Access: ok=false on a structural hazard (full L1I MSHR),
// async=false completes in lat cycles, async=true invokes done on fill.
func (h *Hierarchy) AccessInstr(core int, line uint64, now int64, done func(int64)) (lat int64, async, ok bool) {
	cs := &h.core[core]
	l1, mshr := h.l1i[core], h.l1im[core]
	i := l1.probe(line)
	if i < 0 && !mshr.Outstanding(line) && mshr.Full() {
		return 0, false, false
	}
	cs.IFetches++
	if i >= 0 {
		l1.touch(line, i, false)
		return int64(h.cfg.L1I.HitLatency), false, true
	}
	l1.stats.Misses++
	cs.L1IMisses++
	merged, _ := mshr.Allocate(line, Waiter{Done: done})
	if !merged {
		h.schedule(now+int64(h.cfg.L1I.HitLatency), hkL2Req, core, line, true)
	}
	return 0, true, true
}

// l2Request arbitrates for an L2 port and performs the L2 lookup. instr
// routes the eventual fill to the requesting core's L1I instead of its L1D.
func (h *Hierarchy) l2Request(core int, line uint64, now int64, instr bool) {
	if now > h.l2PortCycle {
		h.l2PortCycle = now
		h.l2PortUsed = 0
	}
	if h.l2PortUsed >= h.cfg.L2PortsPerCycle {
		h.schedule(now+1, hkL2Req, core, line, instr)
		return
	}
	// A miss needing a fresh MSHR entry while the file is full parks for
	// the next cycle without touching any state (the port it consumed is
	// released implicitly by not being counted yet).
	i := h.l2.probe(line)
	if i < 0 && !h.l2m.Outstanding(line) && h.l2m.Full() {
		h.enqueueNext(hevent{when: now + 1, kind: hkL2Req, instr: instr, core: int32(core), line: line}, !h.noPark)
		return
	}
	h.l2PortUsed++

	cs := &h.core[core]
	if i >= 0 {
		h.l2.touch(line, i, false)
		cs.L2Hits++
		h.schedule(now+h.l2HitLat, hkFill, core, line, instr)
		return
	}
	h.l2.stats.Misses++
	cs.L2Misses++

	// L2 miss: the waiter delivers the line to this core's L1 once DRAM
	// returns it and the L2 is filled.
	merged, _ := h.l2m.Allocate(line, Waiter{Core: int32(core), Instr: instr})
	if merged {
		return
	}
	h.l2Changed()
	h.issueMemRead(core, line, now+h.l2HitLat) // tag-check latency before the request leaves

	// Optional stream prefetch: pull the next sequential line into L2 too,
	// unless it is past the last line a trace can address. The prefetch
	// shares the demand path (same MSHR file and controller queue) but wakes
	// nobody on completion.
	if next := line + 1; h.cfg.L2StreamPrefetch && next < trace.LineLimit {
		if !h.l2.Peek(next) && !h.l2m.Outstanding(next) && !h.l2m.Full() {
			if merged, _ := h.l2m.Allocate(next, Waiter{Core: NoCore}); !merged {
				h.l2Changed()
				h.core[core].Prefetches++
				h.issueMemRead(core, next, now+h.l2HitLat)
			}
		}
	}
}

// fillL1I installs an instruction line into core's L1I and wakes the front
// end. Instruction lines are never dirty, so eviction is silent.
func (h *Hierarchy) fillL1I(core int, line uint64, now int64) {
	h.l1i[core].Insert(line, false)
	h.completeL1(h.l1i[core], h.l1im[core], line, now)
}

// completeL1 services an L1 (data or instruction) MSHR entry: each waiter
// replays its access against the cache — re-establishing LRU order and the
// dirty bit for stores — and then wakes its core callback, in registration
// order.
func (h *Hierarchy) completeL1(l1 *Cache, mshr *MSHR, line uint64, now int64) {
	ws := mshr.Take(line)
	for i := range ws {
		l1.Lookup(line, ws[i].Write)
		if ws[i].Done != nil {
			ws[i].Done(now)
		}
	}
	mshr.Recycle(ws)
}

// issueMemRead sends the demand fetch to the memory controller, retrying
// while the controller buffer is full. Under PerfectMemory (used only to
// classify MEM vs ILP applications) the fetch completes in one cycle and
// never touches the controller.
func (h *Hierarchy) issueMemRead(core int, line uint64, now int64) {
	if h.cfg.PerfectMemory {
		h.core[core].MemReads++
		h.schedule(now+1, hkFillL2, core, line, false)
		return
	}
	h.schedule(now, hkMemRead, core, line, false)
}

// fillL2 installs a returned line into L2 and releases all merged waiters.
func (h *Hierarchy) fillL2(core int, line uint64, now int64) {
	victim, evicted := h.l2.Insert(line, false)
	if evicted && victim.Dirty {
		h.writeToMemory(core, victim.Line, now)
	}
	ws := h.l2m.Take(line)
	h.l2Changed()
	for i := range ws {
		w := ws[i]
		if w.Core == NoCore {
			continue // prefetch: nobody to wake
		}
		if w.Instr {
			h.fillL1I(int(w.Core), line, now)
		} else {
			h.fillL1(int(w.Core), line, now)
		}
	}
	h.l2m.Recycle(ws)
}

// fillL1 installs a line into core's L1 and completes all merged waiters.
func (h *Hierarchy) fillL1(core int, line uint64, now int64) {
	victim, evicted := h.l1d[core].Insert(line, false)
	if evicted && victim.Dirty {
		// Write the dirty victim back into L2 (or to memory if L2 no longer
		// holds it — non-inclusive hierarchy).
		if i := h.l2.probe(victim.Line); i >= 0 {
			h.l2.touch(victim.Line, i, true)
		} else {
			h.writeToMemory(core, victim.Line, now)
		}
	}
	h.completeL1(h.l1d[core], h.l1m[core], line, now)
}

// writeToMemory enqueues a dirty-victim write-back, parking it on the retry
// list when the controller's write buffer is full. PerfectMemory absorbs
// writes instantly.
func (h *Hierarchy) writeToMemory(core int, line uint64, now int64) {
	if h.cfg.PerfectMemory {
		return
	}
	if !h.mc.EnqueueWrite(core, line, now) {
		h.wbRetry = append(h.wbRetry, wbEntry{core: core, line: line})
		h.version++
	}
}
