package memctrl_test

import (
	"strings"
	"testing"

	"memsched/internal/config"
	"memsched/internal/dram"
	"memsched/internal/memctrl"
	"memsched/internal/sched"
	"memsched/internal/xrand"
)

// readDone is the tests' memctrl.ReadSink: a callback for one read's data
// return. A nil readDone discards the completion.
type readDone func(now int64)

func (f readDone) ReadReturned(_ int, _ uint64, now int64) {
	if f != nil {
		f(now)
	}
}

// enqueueRead admits a read whose data return calls done (nil: no one waits).
func enqueueRead(mc *memctrl.Controller, core int, line uint64, now int64, done func(int64)) bool {
	return mc.EnqueueRead(readDone(done), core, line, now)
}

// lineFor builds a line address that maps to the given channel with a
// chosen bank stride multiple, exploiting the LSB-channel mapping.
func lineFor(channel int, n uint64) uint64 {
	return n*16 + uint64(channel) // 16 = bank stride for the default geometry
}

func newController(t *testing.T, cores int, policy string, mes []float64) (*memctrl.Controller, *dram.System, *config.Config) {
	t.Helper()
	cfg := config.Default(cores)
	sys := dram.NewSystem(&cfg)
	pol, err := sched.New(policy, cores)
	if err != nil {
		t.Fatal(err)
	}
	var table *memctrl.PriorityTable
	if mes != nil {
		table, err = memctrl.NewPriorityTable(mes, cfg.Memory.MaxPendingPerCore, cfg.Memory.PriorityBits)
		if err != nil {
			t.Fatal(err)
		}
	}
	mc, err := memctrl.New(&cfg, sys, pol, table, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return mc, sys, &cfg
}

func runUntil(mc *memctrl.Controller, from int64, pred func() bool, limit int64) int64 {
	now := from
	for !pred() {
		mc.Tick(now)
		now++
		if now-from > limit {
			return -1
		}
	}
	return now
}

func TestReadCompletesWithExpectedLatency(t *testing.T) {
	mc, _, _ := newController(t, 1, "hf-rf", nil)
	var doneAt int64 = -1
	if !enqueueRead(mc, 0, lineFor(0, 1), 0, func(now int64) { doneAt = now }) {
		t.Fatal("enqueue rejected on empty controller")
	}
	if mc.PendingReadsOf(0) != 1 {
		t.Fatalf("pending = %d, want 1", mc.PendingReadsOf(0))
	}
	end := runUntil(mc, 0, func() bool { return doneAt >= 0 }, 10000)
	if end < 0 {
		t.Fatal("read never completed")
	}
	// Closed-bank access: tRCD+tCL (80) + burst (16) + controller overhead (48).
	if doneAt != 80+16+48 {
		t.Fatalf("completion at %d, want 144", doneAt)
	}
	if mc.PendingReadsOf(0) != 0 {
		t.Fatal("pending count not decremented on completion")
	}
	if mc.ReadsIssued() != 1 {
		t.Fatalf("ReadsIssued = %d", mc.ReadsIssued())
	}
	cs := mc.CoreStatsOf(0)
	if cs.ReadsCompleted != 1 || cs.LatHist.Mean() != 144 {
		t.Fatalf("core stats = %d completed, mean %v", cs.ReadsCompleted, cs.LatHist.Mean())
	}
}

func TestReadBypassesWrite(t *testing.T) {
	mc, _, _ := newController(t, 1, "hf-rf", nil)
	// Write arrives first, read second, same channel: the read must be
	// served first (read-bypass-write), so the write retires later.
	if !mc.EnqueueWrite(0, lineFor(0, 5), 0) {
		t.Fatal("write rejected")
	}
	var readDone int64 = -1
	enqueueRead(mc, 0, lineFor(0, 9), 0, func(now int64) { readDone = now })
	runUntil(mc, 0, func() bool { return mc.Quiescent() }, 10000)
	if readDone < 0 {
		t.Fatal("read never completed")
	}
	if mc.WritesIssued() != 1 {
		t.Fatal("write never issued")
	}
	// The read used the bus first: its data phase ended at 96, the write's
	// must have ended later. Read completion (with overhead) is 144; if the
	// write had gone first the read would finish no earlier than ~240.
	if readDone != 144 {
		t.Fatalf("read completed at %d; write was not bypassed", readDone)
	}
}

func TestWriteDrainHysteresis(t *testing.T) {
	mc, _, cfg := newController(t, 1, "hf-rf", nil)
	high := int(cfg.Memory.DrainHigh * float64(cfg.Memory.WriteQueueCap))
	for i := 0; i < high; i++ {
		if !mc.EnqueueWrite(0, lineFor(0, uint64(i)+100), 0) {
			t.Fatalf("write %d rejected below capacity", i)
		}
	}
	mc.Tick(0)
	if !mc.Draining() {
		t.Fatalf("controller not draining at %d queued writes", high)
	}
	low := int(cfg.Memory.DrainLow * float64(cfg.Memory.WriteQueueCap))
	end := runUntil(mc, 1, func() bool { return !mc.Draining() }, 1_000_000)
	if end < 0 {
		t.Fatal("drain mode never exited")
	}
	if got := mc.WriteQueueLen(); got > low {
		t.Fatalf("exited drain at %d queued writes, want <= %d", got, low)
	}
	if mc.DrainEntries() != 1 {
		t.Fatalf("DrainEntries = %d, want 1", mc.DrainEntries())
	}
}

func TestDrainPrefersWritesOverReads(t *testing.T) {
	mc, _, cfg := newController(t, 1, "hf-rf", nil)
	high := int(cfg.Memory.DrainHigh * float64(cfg.Memory.WriteQueueCap))
	for i := 0; i < high; i++ {
		mc.EnqueueWrite(0, lineFor(0, uint64(i)+100), 0)
	}
	var readDone int64 = -1
	enqueueRead(mc, 0, lineFor(0, 1), 0, func(now int64) { readDone = now })
	mc.Tick(0) // enters drain mode and issues a write
	if !mc.Draining() {
		t.Fatal("expected drain mode")
	}
	if mc.WritesIssued() != 1 || mc.ReadsIssued() != 0 {
		t.Fatalf("in drain mode issued reads=%d writes=%d, want the write first",
			mc.ReadsIssued(), mc.WritesIssued())
	}
	runUntil(mc, 1, func() bool { return readDone >= 0 }, 1_000_000)
}

func TestReadQueueCapacity(t *testing.T) {
	mc, _, cfg := newController(t, 1, "hf-rf", nil)
	// The per-core pending bound equals the queue capacity here (64), so
	// fill to capacity without ticking (nothing issues).
	accepted := 0
	for i := 0; i < cfg.Memory.ReadQueueCap+10; i++ {
		if enqueueRead(mc, 0, lineFor(0, uint64(i)), 0, nil) {
			accepted++
		}
	}
	if accepted != cfg.Memory.ReadQueueCap {
		t.Fatalf("accepted %d reads, want %d", accepted, cfg.Memory.ReadQueueCap)
	}
	if mc.RejectedReads() != 10 {
		t.Fatalf("RejectedReads = %d, want 10", mc.RejectedReads())
	}
}

func TestPerCorePendingBound(t *testing.T) {
	cfg := config.Default(2)
	cfg.Memory.ReadQueueCap = 128 // above the per-core bound of 64
	sys := dram.NewSystem(&cfg)
	pol, _ := sched.New("hf-rf", 2)
	mc, err := memctrl.New(&cfg, sys, pol, nil, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 70; i++ {
		enqueueRead(mc, 0, lineFor(0, uint64(i)), 0, nil)
	}
	if mc.PendingReadsOf(0) != cfg.Memory.MaxPendingPerCore {
		t.Fatalf("core 0 pending = %d, want %d", mc.PendingReadsOf(0), cfg.Memory.MaxPendingPerCore)
	}
	// The other core must still be admissible.
	if !enqueueRead(mc, 1, lineFor(0, 1000), 0, nil) {
		t.Fatal("core 1 rejected although only core 0 is at its bound")
	}
}

func TestHitFirstOrdersQueue(t *testing.T) {
	mc, sys, _ := newController(t, 1, "hf-rf", nil)
	// Queue, at time 0: an access to row 0 (issues first by age), an OLDER
	// conflicting access to row 1 of the same bank, and a YOUNGER row-0
	// access. While the row-0 access is in flight the row stays open
	// (another row-0 request is queued), so the younger request becomes a
	// row hit and must bypass the older conflict.
	var hitDone, conflictDone int64 = -1, -1
	firstLine := uint64(0)           // bank 0, row 0, col 0
	conflictLine := uint64(16 * 128) // bank 0, row 1
	hitLine := uint64(16)            // bank 0, row 0, col 1
	if sys.Mapper.RowOf(conflictLine).GlobalBank != sys.Mapper.RowOf(hitLine).GlobalBank {
		t.Fatal("test setup: lines not in same bank")
	}
	enqueueRead(mc, 0, firstLine, 0, nil)
	enqueueRead(mc, 0, conflictLine, 0, func(t int64) { conflictDone = t }) // older
	enqueueRead(mc, 0, hitLine, 0, func(t int64) { hitDone = t })           // younger, row hit
	runUntil(mc, 0, func() bool { return hitDone >= 0 && conflictDone >= 0 }, 100000)
	if hitDone >= conflictDone {
		t.Fatalf("hit completed at %d, conflict at %d: hit-first violated", hitDone, conflictDone)
	}
}

func TestClosePageKeepsWantedRowOpen(t *testing.T) {
	mc, sys, _ := newController(t, 1, "hf-rf", nil)
	// Two queued reads to the same row: the first must leave the row open
	// (no auto-precharge), so the second is a row hit.
	done := 0
	enqueueRead(mc, 0, 0, 0, func(int64) { done++ })
	enqueueRead(mc, 0, 16, 0, func(int64) { done++ }) // same bank, same row, next column
	runUntil(mc, 0, func() bool { return done == 2 }, 100000)
	st := sys.Channels[0].Stats()
	if st.Hits != 1 {
		t.Fatalf("hits = %d, want 1 (second access rides the open row)", st.Hits)
	}
}

func TestClosePageAutoPrechargesUnwantedRow(t *testing.T) {
	mc, sys, _ := newController(t, 1, "hf-rf", nil)
	done := 0
	enqueueRead(mc, 0, 0, 0, func(int64) { done++ })
	runUntil(mc, 0, func() bool { return done == 1 }, 100000)
	// No same-row request was queued: the bank must have auto-precharged.
	b := sys.Channels[0].Bank(sys.Mapper.Map(0))
	if b.State != dram.BankPrecharged {
		t.Fatalf("bank state = %v, want precharged (close page)", b.State)
	}
}

func TestRequestConservation(t *testing.T) {
	mc, _, _ := newController(t, 2, "hf-rf", nil)
	const n = 50
	completed := 0
	for i := 0; i < n; i++ {
		core := i % 2
		if !enqueueRead(mc, core, uint64(i*7), int64(i), func(int64) { completed++ }) {
			t.Fatalf("read %d rejected", i)
		}
		mc.EnqueueWrite(1-core, uint64(100000+i*13), int64(i))
		mc.Tick(int64(i))
	}
	end := runUntil(mc, n, func() bool { return mc.Quiescent() }, 1_000_000)
	if end < 0 {
		t.Fatal("controller did not quiesce")
	}
	if completed != n {
		t.Fatalf("%d/%d reads completed: requests lost or duplicated", completed, n)
	}
	if mc.ReadsIssued() != n {
		t.Fatalf("ReadsIssued = %d, want %d", mc.ReadsIssued(), n)
	}
	if int(mc.WritesIssued()) != n {
		t.Fatalf("WritesIssued = %d, want %d", mc.WritesIssued(), n)
	}
	rd, wr := mc.BytesTransferred()
	if rd != n*64 || wr != n*64 {
		t.Fatalf("bytes = %d/%d, want %d/%d", rd, wr, n*64, n*64)
	}
}

func TestAverageReadLatencyWeighted(t *testing.T) {
	mc, _, _ := newController(t, 2, "hf-rf", nil)
	done := 0
	enqueueRead(mc, 0, lineFor(0, 1), 0, func(int64) { done++ })
	enqueueRead(mc, 1, lineFor(1, 2), 0, func(int64) { done++ })
	runUntil(mc, 0, func() bool { return done == 2 }, 100000)
	avg := mc.AverageReadLatency()
	if avg <= 0 {
		t.Fatalf("AverageReadLatency = %v", avg)
	}
	a := mc.CoreStatsOf(0).LatHist.Mean()
	b := mc.CoreStatsOf(1).LatHist.Mean()
	if avg < minF(a, b) || avg > maxF(a, b) {
		t.Fatalf("avg %v outside per-core means [%v, %v]", avg, minF(a, b), maxF(a, b))
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func TestMELREQPrefersHighEfficiencyCore(t *testing.T) {
	// Core 0: ME 100; core 1: ME 1. With equal pending counts, core 0's
	// requests must complete first under me-lreq when both target the same
	// bank (forced serialization).
	mc, _, _ := newController(t, 2, "me-lreq", []float64{100, 1})
	var doneLow, doneHigh int64 = -1, -1
	// Same channel, same bank, different rows: strictly serialized.
	enqueueRead(mc, 1, 0, 0, func(t int64) { doneLow = t })         // low-ME core enqueues FIRST
	enqueueRead(mc, 0, 16*128*3, 0, func(t int64) { doneHigh = t }) // high-ME core second
	runUntil(mc, 0, func() bool { return doneLow >= 0 && doneHigh >= 0 }, 100000)
	if doneHigh >= doneLow {
		t.Fatalf("high-ME core finished at %d, low-ME at %d: ME priority not applied",
			doneHigh, doneLow)
	}
}

func TestControllerAccessors(t *testing.T) {
	mc, _, _ := newController(t, 2, "me-lreq", []float64{1, 5})
	if mc.Policy().Name() != "me-lreq" {
		t.Fatalf("Policy() = %q", mc.Policy().Name())
	}
	if mc.Table() == nil || mc.Table().ME(1) != 5 {
		t.Fatal("Table() not wired")
	}
	if mc.AverageReadLatency() != 0 {
		t.Fatal("fresh controller has nonzero latency")
	}
	if rd, wr := mc.BytesTransferred(); rd != 0 || wr != 0 {
		t.Fatal("fresh controller moved bytes")
	}
	if mc.WriteQueueLen() != 0 || mc.ReadQueueLen() != 0 {
		t.Fatal("fresh controller has queued requests")
	}
}

func TestControllerResetStats(t *testing.T) {
	mc, _, _ := newController(t, 1, "hf-rf", nil)
	done := false
	enqueueRead(mc, 0, lineFor(0, 1), 0, func(int64) { done = true })
	runUntil(mc, 0, func() bool { return done }, 100000)
	if mc.ReadsIssued() != 1 {
		t.Fatal("setup failed")
	}
	mc.ResetStats()
	if mc.ReadsIssued() != 0 || mc.CoreStatsOf(0).ReadsCompleted != 0 {
		t.Fatal("ResetStats left counters")
	}
	if rd, _ := mc.BytesTransferred(); rd != 0 {
		t.Fatal("ResetStats left bytes")
	}
	// The controller still works after a reset.
	done = false
	enqueueRead(mc, 0, lineFor(0, 2), 1000, func(int64) { done = true })
	if runUntil(mc, 1000, func() bool { return done }, 100000) < 0 {
		t.Fatal("controller broken after ResetStats")
	}
}

func TestRejectedWritesCounted(t *testing.T) {
	mc, _, cfg := newController(t, 1, "hf-rf", nil)
	for i := 0; i < cfg.Memory.WriteQueueCap+5; i++ {
		mc.EnqueueWrite(0, lineFor(0, uint64(i)+10), 0)
	}
	if mc.RejectedWrites() != 5 {
		t.Fatalf("RejectedWrites = %d, want 5", mc.RejectedWrites())
	}
}

func TestDecisionTrace(t *testing.T) {
	mc, _, _ := newController(t, 2, "hf-rf", nil)
	if mc.Decisions() != nil {
		t.Fatal("trace on by default")
	}
	mc.EnableDecisionTrace(4)
	done := 0
	for i := 0; i < 8; i++ {
		enqueueRead(mc, i%2, lineFor(0, uint64(i*137)), 0, func(int64) { done++ })
	}
	runUntil(mc, 0, func() bool { return done == 8 }, 1_000_000)
	ds := mc.Decisions()
	if len(ds) != 4 {
		t.Fatalf("trace holds %d decisions, want ring cap 4", len(ds))
	}
	for i := 1; i < len(ds); i++ {
		if ds[i].Cycle < ds[i-1].Cycle {
			t.Fatal("decisions not oldest-first")
		}
	}
	var sb strings.Builder
	if err := mc.DumpDecisions(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Count(sb.String(), "\n") != 4 {
		t.Fatalf("dump:\n%s", sb.String())
	}
	mc.EnableDecisionTrace(0)
	if mc.Decisions() != nil {
		t.Fatal("disable did not clear trace")
	}
}

func TestLatencyDecomposition(t *testing.T) {
	mc, _, _ := newController(t, 1, "hf-rf", nil)
	done := 0
	// Both reads arrive at cycle 0, so each one's latency is its completion
	// cycle.
	var latSum uint64
	onDone := func(at int64) {
		done++
		latSum += uint64(at)
	}
	// Two same-bank different-row reads: the second queues behind the first.
	enqueueRead(mc, 0, 0, 0, onDone)
	enqueueRead(mc, 0, 16*128, 0, onDone)
	runUntil(mc, 0, func() bool { return done == 2 }, 100000)
	cs := mc.CoreStatsOf(0)
	if cs.ReadsIssued != 2 || cs.ReadsCompleted != 2 || cs.LatHist.N() != 2 {
		t.Fatalf("decomposition samples: %d issued, %d completed, %d latencies",
			cs.ReadsIssued, cs.ReadsCompleted, cs.LatHist.N())
	}
	// The second request waited, so the queue delays add up to more than 0.
	if cs.QueueDelaySum == 0 {
		t.Fatal("no queueing delay recorded for a blocked request")
	}
	// Queue delay + service time is each read's latency, exactly.
	if sum := cs.QueueDelaySum + cs.ServiceSum; sum != latSum {
		t.Fatalf("queue %d + service %d = %d, want the latency sum %d",
			cs.QueueDelaySum, cs.ServiceSum, sum, latSum)
	}
	if got := cs.LatHist.Mean() * 2; got != float64(latSum) {
		t.Fatalf("latency histogram sum %v, want %d", got, latSum)
	}
}
