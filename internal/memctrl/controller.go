package memctrl

import (
	"fmt"

	"memsched/internal/config"
	"memsched/internal/dram"
	"memsched/internal/stats"
	"memsched/internal/xrand"
)

// CoreStats aggregates per-core controller-side statistics. Every field is
// an integer, so the statistics are bitwise identical across the naive and
// cycle-skipping run loops, and every mean derived from them is one division
// done at the end of a run.
type CoreStats struct {
	ReadsCompleted uint64
	WritesRetired  uint64
	// ReadsIssued counts this core's reads sent to DRAM, and QueueDelaySum
	// adds up their admission -> issue cycles: the component scheduling
	// policies actually change.
	ReadsIssued   uint64
	QueueDelaySum uint64
	// ServiceSum adds up the issue -> data returned cycles (DRAM timing plus
	// controller overhead) of the ReadsCompleted reads.
	ServiceSum uint64
	// LatHist holds every completed read's admission -> data returned
	// latency: its exact sum and count give the mean, and its log-spaced
	// buckets the percentiles, to within one bucket width (<= 12.5%
	// relative).
	LatHist stats.LatencyHist
}

// bankQueues holds one (channel, bank)'s read and write FIFOs.
type bankQueues struct {
	rd, wr bankFIFO
}

// Controller is the shared memory controller. One instance manages every
// logic channel (the paper's Figure 1: an M-entry request buffer shared by N
// cores feeding multiple channels).
//
// Requests are indexed by (channel, bank): each bank owns a read FIFO and a
// write FIFO in admission order, so a scheduling scan touches only the banks
// of one channel — O(banks) readiness checks plus the requests of ready
// banks — instead of rescanning every queued request. Aggregate and
// per-channel occupancy counters are maintained incrementally on
// enqueue/dequeue, Request slots are recycled through a free-list, and read
// completions live in a typed heap, so the steady-state scheduling path
// performs no heap allocation.
type Controller struct {
	cfg    *config.Config
	sys    *dram.System
	policy Policy
	// indexed is non-nil when policy implements IndexedPolicy; set once at
	// construction so the hot path pays no type assertion.
	indexed IndexedPolicy
	table   *PriorityTable
	rng     *xrand.Rand

	// banks holds the per-(channel,bank) FIFOs, indexed by
	// channel*banksPerChan + rank*banksPerRank + bank.
	banks        []bankQueues
	banksPerChan int
	banksPerRank int
	readLen      int   // total queued (not yet issued) reads
	writeLen     int   // total queued writes
	chanReads    []int // per channel: queued reads
	chanWrites   []int

	pendingReads  []int // per core: queued + in-flight reads
	pendingWrites []int

	// lc flags latency-critical cores (all false unless SetLatencyCritical
	// was called); the slice backs ctx.LC, so policies always index a valid
	// vector.
	lc []bool

	draining     bool
	drainHigh    int
	drainLow     int
	ctrlOverhead int64

	// nextAttempt[ch] skips issue scans that cannot succeed before the
	// earliest bank-ready time observed at the last failed scan.
	nextAttempt []int64

	// comp holds scheduled read-data returns ordered by (time, seq).
	comp    compHeap
	compSeq uint64
	seq     uint64

	// free is the head of the Request slot free-list, linked via nextFree.
	free *Request

	core []CoreStats

	// aggregate counters
	readsIssued   uint64
	writesIssued  uint64
	drainEntries  uint64
	enqueueFailRd uint64
	enqueueFailWr uint64
	bytesRead     uint64
	bytesWritten  uint64
	// readQSum and writeQSum add up the queue depths of every cycle, ticked
	// or skipped, and occCycles counts those cycles, so the mean depths are
	// exact ratios whichever way the run loop advanced time.
	readQSum, writeQSum uint64
	occCycles           uint64

	// version counts mutations of the state NextEventAt derives from (the
	// completion heap, per-channel queue counts and issue-scan wake-ups), so
	// callers can cache the horizon and revalidate with one integer compare.
	version uint64

	// trace, when non-nil, records recent scheduling decisions.
	trace *decisionRing

	// drainObs, when non-nil, observes write-drain mode transitions
	// (telemetry); nil-checked on the two transition edges only, so the
	// steady-state Tick cost is unchanged.
	drainObs func(now int64, draining bool)

	// ctx and view are reused across picks; scratch buffers below likewise
	// avoid per-cycle allocation.
	ctx           Context
	view          CandidateView
	scratchCands  []Candidate
	scratchScores []float64
	scratchFixed  []float64
}

// New builds a controller over the given DRAM system. table may be nil for
// policies that do not consult memory efficiency; a policy that does consult
// Scores will then see zeros.
func New(cfg *config.Config, sys *dram.System, policy Policy, table *PriorityTable, rng *xrand.Rand) (*Controller, error) {
	if policy == nil {
		return nil, fmt.Errorf("memctrl: nil policy")
	}
	if rng == nil {
		return nil, fmt.Errorf("memctrl: nil rng")
	}
	banksPerChan := cfg.Memory.RanksPerChan * cfg.Memory.BanksPerRank
	mc := &Controller{
		cfg:           cfg,
		sys:           sys,
		policy:        policy,
		table:         table,
		rng:           rng,
		banks:         make([]bankQueues, cfg.Memory.Channels*banksPerChan),
		banksPerChan:  banksPerChan,
		banksPerRank:  cfg.Memory.BanksPerRank,
		chanReads:     make([]int, len(sys.Channels)),
		chanWrites:    make([]int, len(sys.Channels)),
		pendingReads:  make([]int, cfg.Cores),
		pendingWrites: make([]int, cfg.Cores),
		lc:            make([]bool, cfg.Cores),
		drainHigh:     int(cfg.Memory.DrainHigh * float64(cfg.Memory.WriteQueueCap)),
		drainLow:      int(cfg.Memory.DrainLow * float64(cfg.Memory.WriteQueueCap)),
		ctrlOverhead:  cfg.DRAMCycles().CtrlOverhead,
		nextAttempt:   make([]int64, len(sys.Channels)),
		core:          make([]CoreStats, cfg.Cores),
		scratchScores: make([]float64, cfg.Cores),
		scratchFixed:  make([]float64, cfg.Cores),
	}
	if mc.drainHigh < 1 {
		mc.drainHigh = 1
	}
	mc.indexed, _ = policy.(IndexedPolicy)
	mc.ctx = Context{
		Cores:         cfg.Cores,
		PendingReads:  mc.pendingReads,
		LC:            mc.lc,
		Scores:        mc.scratchScores,
		FixedME:       mc.scratchFixed,
		RNG:           mc.rng,
		SameRowQueued: mc.sameRowQueued, // bound once: no closure per pick
	}
	return mc, nil
}

// Policy returns the active scheduling policy.
func (mc *Controller) Policy() Policy { return mc.policy }

// Table returns the priority table (may be nil).
func (mc *Controller) Table() *PriorityTable { return mc.table }

// PendingReadsOf returns the outstanding read count for core (the
// controller-side counter the priority tables are indexed with).
func (mc *Controller) PendingReadsOf(core int) int { return mc.pendingReads[core] }

// ReadQueueLen returns the number of queued (not yet issued) reads.
func (mc *Controller) ReadQueueLen() int { return mc.readLen }

// WriteQueueLen returns the number of queued writes.
func (mc *Controller) WriteQueueLen() int { return mc.writeLen }

// Draining reports whether the controller is in write-drain mode.
func (mc *Controller) Draining() bool { return mc.draining }

// CoreStatsOf returns a pointer to the per-core statistics for core.
func (mc *Controller) CoreStatsOf(core int) *CoreStats { return &mc.core[core] }

// SetLatencyCritical assigns per-core latency-critical flags (serving-class
// experiments); lc must have one entry per core. The flags are copied into
// the controller's own vector (the one ctx.LC aliases), so later mutation of
// the argument has no effect. Flags only inform policies and per-class
// reporting — the controller's own mechanics (admission, drain, completion
// timing) never read them.
func (mc *Controller) SetLatencyCritical(lc []bool) error {
	if len(lc) != len(mc.lc) {
		return fmt.Errorf("memctrl: %d latency-critical flags for %d cores", len(lc), len(mc.lc))
	}
	copy(mc.lc, lc)
	return nil
}

// LatencyCritical reports whether core is flagged latency-critical.
func (mc *Controller) LatencyCritical(core int) bool { return mc.lc[core] }

// ReadsIssued returns the number of read transactions issued to DRAM.
func (mc *Controller) ReadsIssued() uint64 { return mc.readsIssued }

// WritesIssued returns the number of write transactions issued to DRAM.
func (mc *Controller) WritesIssued() uint64 { return mc.writesIssued }

// DrainEntries returns how many times write-drain mode was entered.
func (mc *Controller) DrainEntries() uint64 { return mc.drainEntries }

// RejectedReads returns how many read admissions failed on a full buffer.
func (mc *Controller) RejectedReads() uint64 { return mc.enqueueFailRd }

// RejectedWrites returns how many write admissions failed on a full buffer.
func (mc *Controller) RejectedWrites() uint64 { return mc.enqueueFailWr }

// QueueOccupancy returns the mean per-cycle (read, write) queue depths.
func (mc *Controller) QueueOccupancy() (read, write float64) {
	if mc.occCycles == 0 {
		return 0, 0
	}
	n := float64(mc.occCycles)
	return float64(mc.readQSum) / n, float64(mc.writeQSum) / n
}

// BytesTransferred returns total (read, written) bytes moved on the buses.
func (mc *Controller) BytesTransferred() (read, written uint64) {
	return mc.bytesRead, mc.bytesWritten
}

// ResetStats zeroes every statistic (per-core and aggregate) while leaving
// queue and DRAM state untouched. Run loops call it at the boundary between
// warmup and measurement; requests in flight across the boundary are
// attributed to the measurement window.
func (mc *Controller) ResetStats() {
	for i := range mc.core {
		mc.core[i] = CoreStats{}
	}
	mc.readsIssued, mc.writesIssued, mc.drainEntries = 0, 0, 0
	mc.enqueueFailRd, mc.enqueueFailWr = 0, 0
	mc.bytesRead, mc.bytesWritten = 0, 0
	mc.readQSum, mc.writeQSum, mc.occCycles = 0, 0, 0
}

// alloc takes a Request slot from the free-list, or grows the pool by one.
func (mc *Controller) alloc() *Request {
	if r := mc.free; r != nil {
		mc.free = r.nextFree
		r.nextFree = nil
		return r
	}
	return new(Request)
}

// release clears a retired Request (dropping its completion closure for GC)
// and returns its slot to the free-list.
func (mc *Controller) release(r *Request) {
	*r = Request{nextFree: mc.free}
	mc.free = r
}

// bankOf returns the dense index of req's (channel, bank) FIFO pair.
func (mc *Controller) bankOf(r *Request) int {
	c := r.Coord
	return c.Channel*mc.banksPerChan + c.Rank*mc.banksPerRank + c.Bank
}

// EnqueueRead admits a demand read. It returns false when the read
// buffer is full or the per-core pending bound is reached; the caller (L2
// MSHR) must retry later. sink.ReadReturned(core, line, t) fires when the
// data is delivered to the core side at cycle t; sink must not be nil.
func (mc *Controller) EnqueueRead(sink ReadSink, core int, line uint64, now int64) bool {
	if mc.readLen >= mc.cfg.Memory.ReadQueueCap ||
		mc.pendingReads[core] >= mc.cfg.Memory.MaxPendingPerCore {
		mc.enqueueFailRd++
		return false
	}
	r := mc.alloc()
	*r = Request{
		ID:     mc.nextID(),
		Kind:   Read,
		Core:   core,
		Line:   line,
		Coord:  mc.sys.Mapper.Map(line),
		Arrive: now,
		sink:   sink,
	}
	mc.banks[mc.bankOf(r)].rd.push(r)
	mc.readLen++
	mc.chanReads[r.Coord.Channel]++
	mc.pendingReads[core]++
	mc.wake(now)
	mc.version++
	return true
}

// EnqueueWrite admits a write-back. Returns false when the write buffer is
// full; the caller must retry.
func (mc *Controller) EnqueueWrite(core int, line uint64, now int64) bool {
	if mc.writeLen >= mc.cfg.Memory.WriteQueueCap {
		mc.enqueueFailWr++
		return false
	}
	r := mc.alloc()
	*r = Request{
		ID:     mc.nextID(),
		Kind:   Write,
		Core:   core,
		Line:   line,
		Coord:  mc.sys.Mapper.Map(line),
		Arrive: now,
	}
	mc.banks[mc.bankOf(r)].wr.push(r)
	mc.writeLen++
	mc.chanWrites[r.Coord.Channel]++
	mc.pendingWrites[core]++
	mc.wake(now)
	mc.version++
	return true
}

func (mc *Controller) nextID() uint64 {
	mc.seq++
	return mc.seq
}

// wake clears scan-skipping so the next Tick reconsiders every channel.
func (mc *Controller) wake(now int64) {
	for i := range mc.nextAttempt {
		if mc.nextAttempt[i] > now {
			mc.nextAttempt[i] = now
		}
	}
}

// Tick advances the controller by one cycle: fires due completions and
// attempts to issue at most one transaction per channel.
func (mc *Controller) Tick(now int64) {
	mc.runCompletions(now)
	mc.readQSum += uint64(mc.readLen)
	mc.writeQSum += uint64(mc.writeLen)
	mc.occCycles++
	mc.updateDrain(now)
	for chIdx := range mc.sys.Channels {
		if mc.nextAttempt[chIdx] > now {
			continue
		}
		mc.tryIssue(chIdx, now)
	}
}

// runCompletions fires every read-data return due at or before now, in
// (time, issue order).
func (mc *Controller) runCompletions(now int64) {
	for len(mc.comp) > 0 && mc.comp[0].at <= now {
		c := mc.comp.pop()
		mc.version++
		r := c.req
		mc.pendingReads[r.Core]--
		cs := &mc.core[r.Core]
		cs.ReadsCompleted++
		cs.LatHist.Observe(c.at - r.Arrive)
		cs.ServiceSum += uint64(c.at - c.issuedAt)
		sink, core, line := r.sink, r.Core, r.Line
		mc.release(r)
		sink.ReadReturned(core, line, c.at)
	}
}

// Quiescent reports whether the controller holds no queued requests and no
// in-flight completions, used by run loops to drain at end of simulation.
func (mc *Controller) Quiescent() bool {
	return mc.readLen == 0 && mc.writeLen == 0 && len(mc.comp) == 0
}

// farFuture is the NextEventAt value when no completion or issue is pending.
const farFuture = int64(1)<<62 - 1

// WriteQueueFull reports whether a write admission would be rejected right
// now; the cache hierarchy uses it to decide whether a parked write-back
// retry can succeed on the next Tick.
func (mc *Controller) WriteQueueFull() bool {
	return mc.writeLen >= mc.cfg.Memory.WriteQueueCap
}

// AbsorbRejectedWrites accounts k rejected write admissions at once, matching
// the k per-cycle EnqueueWrite failures a skipped quiescent stretch would
// have recorded.
func (mc *Controller) AbsorbRejectedWrites(k uint64) {
	mc.enqueueFailWr += k
}

// NextEventAt implements the simulator's next-event time-advance contract.
// Called after Tick(now), it returns the earliest cycle at which the
// controller can act: the completion-heap head (read data reaching the core
// side) or, per channel with queued work, the issue-scan wake-up time
// nextAttempt — which tryIssue derived from the DRAM banks' ReadyAt and the
// channel's in-flight window, so device timing is what ultimately bounds the
// skip. A channel with work whose scan is not suppressed may issue next
// cycle, so now+1 is returned. Channels without queued work are ignored:
// enqueues reset their nextAttempt through wake, and enqueues only happen
// while some other component is active.
func (mc *Controller) NextEventAt(now int64) int64 {
	next := farFuture
	if len(mc.comp) > 0 {
		next = mc.comp[0].at
	}
	for ch := range mc.nextAttempt {
		if mc.chanReads[ch] == 0 && mc.chanWrites[ch] == 0 {
			continue
		}
		t := mc.nextAttempt[ch]
		if t <= now {
			return now + 1
		}
		if t < next {
			next = t
		}
	}
	return next
}

// Version is a change counter over the state NextEventAt reads (completion
// heap, per-channel queue counts, issue-scan wake-ups). Equal versions across
// two calls guarantee the controller's horizon did not move in between,
// modulo the now-dependent "may issue next cycle" clause — callers must still
// discard cached values that are not strictly in their future.
func (mc *Controller) Version() uint64 { return mc.version }

// AbsorbStall accounts k skipped Ticks' queue depths at the depths frozen
// over the skipped stretch (no admission, issue or completion happens while
// every component is quiescent, so the depths are constant).
func (mc *Controller) AbsorbStall(k int64) {
	mc.readQSum += uint64(mc.readLen) * uint64(k)
	mc.writeQSum += uint64(mc.writeLen) * uint64(k)
	mc.occCycles += uint64(k)
}

func (mc *Controller) updateDrain(now int64) {
	if !mc.draining && mc.writeLen >= mc.drainHigh {
		mc.draining = true
		mc.drainEntries++
		if mc.drainObs != nil {
			mc.drainObs(now, true)
		}
	} else if mc.draining && mc.writeLen <= mc.drainLow {
		mc.draining = false
		if mc.drainObs != nil {
			mc.drainObs(now, false)
		}
	}
}

// SetDrainObserver installs an observer of write-drain mode transitions (nil
// removes it): obs(now, true) fires on the cycle drain mode is entered,
// obs(now, false) when it is left. Transitions only happen inside Tick, never
// during a skipped quiescent stretch (the write-queue depth is frozen then),
// so observers see every edge at its exact cycle.
func (mc *Controller) SetDrainObserver(obs func(now int64, draining bool)) {
	mc.drainObs = obs
}

// tryIssue attempts one issue on channel chIdx.
func (mc *Controller) tryIssue(chIdx int, now int64) {
	// Every path below moves the horizon: either a transaction issues (queues
	// and the completion heap change) or nextAttempt is pushed forward.
	mc.version++
	ch := mc.sys.Channels[chIdx]
	ch.Sync(now)

	// Read-bypass-write: reads first under normal conditions; writes first in
	// drain mode; writes opportunistically when no reads target this channel.
	primary, secondary := Read, Write
	if mc.draining {
		primary, secondary = Write, Read
	}

	cands, queuedEarliest, queuedAny := mc.gather(primary, ch, chIdx, now)
	if len(cands) == 0 && !queuedAny {
		cands, queuedEarliest, queuedAny = mc.gather(secondary, ch, chIdx, now)
	}
	if len(cands) == 0 {
		if queuedAny {
			// Nothing issuable now: sleep until the earliest bank-ready time.
			// With a full in-flight window the bus is the binding constraint,
			// so the wake-up is pushed to the first slot release — no scan
			// before max(bank ready, slot free) can succeed.
			if queuedEarliest <= now {
				queuedEarliest = now + 1
			}
			if free, full := ch.NextInflightFree(); full && free > queuedEarliest {
				queuedEarliest = free
			}
			mc.nextAttempt[chIdx] = queuedEarliest
		} else {
			// Channel has no queued work at all; wake() on enqueue resets this.
			mc.nextAttempt[chIdx] = now + 1<<30
		}
		return
	}

	pick := mc.pick(cands, now)
	req := cands[pick].Req
	res := ch.Issue(req.Coord, now, mc.autoPrecharge(req))
	if mc.trace != nil {
		mc.trace.add(Decision{
			Cycle:      now,
			Channel:    chIdx,
			Core:       req.Core,
			Kind:       req.Kind,
			Class:      res.Class,
			Line:       req.Line,
			WaitCycles: now - req.Arrive,
			Candidates: len(cands),
			QueueDepth: mc.readLen,
		})
	}
	mc.remove(req)

	lineBytes := uint64(mc.cfg.L2.LineBytes)
	if req.Kind == Read {
		mc.readsIssued++
		mc.bytesRead += lineBytes
		cs := &mc.core[req.Core]
		cs.ReadsIssued++
		cs.QueueDelaySum += uint64(now - req.Arrive)
		mc.comp.push(completion{
			at:       res.DataDone + mc.ctrlOverhead,
			seq:      mc.compSeq,
			req:      req,
			issuedAt: now,
		})
		mc.compSeq++
	} else {
		mc.writesIssued++
		mc.bytesWritten += lineBytes
		mc.pendingWrites[req.Core]--
		mc.core[req.Core].WritesRetired++
		mc.release(req)
	}
}

// gather collects issuable candidates of the given kind on channel chIdx by
// scanning the channel's bank FIFOs: O(banks) readiness checks, then only
// the requests parked on ready banks. Candidates are returned in ascending
// request-ID order (identical to a scan of the old global queue). It also
// reports the earliest bank-ready time among the channel's non-issuable
// queued requests and whether any queued request targets the channel at all.
// The caller must ch.Sync(now) first.
func (mc *Controller) gather(kind Kind, ch *dram.Channel, chIdx int, now int64) ([]Candidate, int64, bool) {
	earliest := int64(1<<62 - 1)
	queued := mc.chanReads[chIdx]
	if kind == Write {
		queued = mc.chanWrites[chIdx]
	}
	if queued == 0 {
		return nil, earliest, false
	}
	cands := mc.scratchCands[:0]
	slot := ch.HasInflightSlot()
	base := chIdx * mc.banksPerChan
	runs := 0
	for b := 0; b < mc.banksPerChan; b++ {
		g := &mc.banks[base+b]
		q := &g.rd
		if kind == Write {
			q = &g.wr
		}
		n := q.len()
		if n == 0 {
			continue
		}
		bank := ch.BankAt(b)
		if !slot || bank.ReadyAt > now {
			// Every request on this bank is blocked; one ReadyAt stands in
			// for all of them (the old per-request scan computed the same
			// minimum, one request at a time).
			if bank.ReadyAt < earliest {
				earliest = bank.ReadyAt
			}
			continue
		}
		// Bank ready: every queued request is issuable. Classify against the
		// bank state once instead of per-request WouldHit/Classify calls.
		openRow := int64(-1)
		if bank.State == dram.BankActive {
			openRow = bank.OpenRow
		}
		for i := 0; i < n; i++ {
			r := q.at(i)
			hit := r.Coord.Row == openRow
			class := dram.AccessConflict
			if hit {
				class = dram.AccessHit
			} else if bank.State == dram.BankPrecharged {
				class = dram.AccessClosed
			}
			cands = append(cands, Candidate{Req: r, RowHit: hit, Class: class})
		}
		runs++
	}
	// Each bank contributed an ascending-ID run; merge the runs into global
	// admission order so policies see candidates exactly as the legacy
	// full-queue scan produced them. Insertion sort: candidate counts are
	// small and the input is piecewise sorted.
	if runs > 1 {
		sortCandidatesByID(cands)
	}
	mc.scratchCands = cands[:0]
	return cands, earliest, true
}

// sortCandidatesByID orders candidates by ascending request ID (admission
// order). IDs are unique, so the order is total and deterministic.
func sortCandidatesByID(c []Candidate) {
	for i := 1; i < len(c); i++ {
		x := c[i]
		j := i - 1
		for j >= 0 && c[j].Req.ID > x.Req.ID {
			c[j+1] = c[j]
			j--
		}
		c[j+1] = x
	}
}

// pick builds the policy context and delegates candidate selection: indexed
// policies receive the CandidateView, slice-based policies the backing
// slice (the legacy adapter path). Context and view are reused across calls.
func (mc *Controller) pick(cands []Candidate, now int64) int {
	if len(cands) == 1 {
		return 0
	}
	mc.ctx.Now = now
	if mc.table != nil {
		for core := 0; core < mc.cfg.Cores; core++ {
			mc.ctx.Scores[core] = mc.table.Score(core, mc.pendingReads[core])
			mc.ctx.FixedME[core] = mc.table.Score(core, 1)
		}
	} else {
		for core := 0; core < mc.cfg.Cores; core++ {
			mc.ctx.Scores[core] = 0
			mc.ctx.FixedME[core] = 0
		}
	}
	var idx int
	if mc.indexed != nil {
		mc.view.cands = cands
		idx = mc.indexed.PickIndexed(&mc.view, &mc.ctx)
	} else {
		idx = mc.policy.Pick(cands, &mc.ctx)
	}
	if idx < 0 || idx >= len(cands) {
		panic(fmt.Sprintf("memctrl: policy %q picked out-of-range index %d of %d",
			mc.policy.Name(), idx, len(cands)))
	}
	return idx
}

// autoPrecharge decides row management for the transaction serving req,
// according to the configured row policy (paper default: close page, keeping
// the row open only while another queued request wants it).
func (mc *Controller) autoPrecharge(req *Request) bool {
	switch mc.cfg.Memory.RowPolicy {
	case config.OpenPage:
		return false
	case config.ClosePageStrict:
		return true
	default: // config.ClosePageHitAware
		return !mc.rowStillWanted(req)
	}
}

// rowStillWanted reports whether any other queued request targets the same
// (bank, row) as req — the close-page controller keeps the row open exactly
// in that case. Only req's own bank FIFOs can hold such a request, so the
// scan is O(bank queue depth), not O(all queued requests).
func (mc *Controller) rowStillWanted(req *Request) bool {
	g := &mc.banks[mc.bankOf(req)]
	row := req.Coord.Row
	for i := 0; i < g.rd.len(); i++ {
		if r := g.rd.at(i); r != req && r.Coord.Row == row {
			return true
		}
	}
	for i := 0; i < g.wr.len(); i++ {
		if r := g.wr.at(i); r != req && r.Coord.Row == row {
			return true
		}
	}
	return false
}

// sameRowQueued counts queued requests (including req itself) that target
// req's DRAM row; it backs Context.SameRowQueued for burst policies.
func (mc *Controller) sameRowQueued(req *Request) int {
	g := &mc.banks[mc.bankOf(req)]
	row := req.Coord.Row
	n := 1 // req itself
	for i := 0; i < g.rd.len(); i++ {
		if r := g.rd.at(i); r != req && r.Coord.Row == row {
			n++
		}
	}
	for i := 0; i < g.wr.len(); i++ {
		if r := g.wr.at(i); r != req && r.Coord.Row == row {
			n++
		}
	}
	return n
}

// remove deletes req from its bank FIFO (one splice, order preserved) and
// maintains the incremental occupancy counters.
func (mc *Controller) remove(req *Request) {
	g := &mc.banks[mc.bankOf(req)]
	q := &g.rd
	if req.Kind == Write {
		q = &g.wr
	}
	i := q.indexOf(req)
	if i < 0 {
		panic("memctrl: removing request not in queue")
	}
	q.removeAt(i)
	if req.Kind == Write {
		mc.writeLen--
		mc.chanWrites[req.Coord.Channel]--
	} else {
		mc.readLen--
		mc.chanReads[req.Coord.Channel]--
	}
}

// AverageReadLatency returns the mean read latency in cycles across all
// cores, weighted by request count: the latency sum of every core's reads
// over their count.
func (mc *Controller) AverageReadLatency() float64 {
	var all stats.LatencyHist
	for i := range mc.core {
		all.Merge(&mc.core[i].LatHist)
	}
	return all.Mean()
}
