package cache

import (
	"runtime"
	"testing"

	"memsched/internal/config"
	"memsched/internal/dram"
	"memsched/internal/memctrl"
	"memsched/internal/sched"
	"memsched/internal/trace"
	"memsched/internal/xrand"
)

func newHierarchy(t *testing.T, cores int, perfect bool) (*Hierarchy, *memctrl.Controller, *config.Config) {
	t.Helper()
	cfg := config.Default(cores)
	cfg.PerfectMemory = perfect
	sys := dram.NewSystem(&cfg)
	pol, err := sched.New("hf-rf", cores)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := memctrl.New(&cfg, sys, pol, nil, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return NewHierarchy(&cfg, mc), mc, &cfg
}

// drive ticks hierarchy and controller together until pred or limit cycles.
func drive(h *Hierarchy, mc *memctrl.Controller, from int64, pred func() bool, limit int64) int64 {
	now := from
	for !pred() {
		h.Tick(now)
		mc.Tick(now)
		now++
		if now-from > limit {
			return -1
		}
	}
	return now
}

func TestL1HitIsSynchronous(t *testing.T) {
	h, mc, cfg := newHierarchy(t, 1, false)
	// Warm the line.
	done := false
	_, async, ok := h.Access(0, 5, false, 0, func(int64) { done = true })
	if !ok || !async {
		t.Fatalf("cold access: async=%v ok=%v, want async miss", async, ok)
	}
	if drive(h, mc, 0, func() bool { return done }, 100000) < 0 {
		t.Fatal("miss never completed")
	}
	lat, async, ok := h.Access(0, 5, false, 1000, nil)
	if !ok || async {
		t.Fatalf("warm access should hit synchronously (async=%v ok=%v)", async, ok)
	}
	if lat != int64(cfg.L1D.HitLatency) {
		t.Fatalf("hit latency = %d, want %d", lat, cfg.L1D.HitLatency)
	}
	cs := h.CoreStats(0)
	if cs.Loads != 2 || cs.L1Hits != 1 || cs.L1Misses != 1 {
		t.Fatalf("counters: loads=%d hits=%d misses=%d", cs.Loads, cs.L1Hits, cs.L1Misses)
	}
}

func TestMissGoesToMemoryOnce(t *testing.T) {
	h, mc, _ := newHierarchy(t, 1, false)
	done := 0
	h.Access(0, 77, false, 0, func(int64) { done++ })
	if drive(h, mc, 0, func() bool { return done == 1 }, 100000) < 0 {
		t.Fatal("miss never completed")
	}
	if mc.ReadsIssued() != 1 {
		t.Fatalf("DRAM reads = %d, want 1", mc.ReadsIssued())
	}
	cs := h.CoreStats(0)
	if cs.L2Misses != 1 || cs.MemReads != 1 {
		t.Fatalf("L2Misses=%d MemReads=%d", cs.L2Misses, cs.MemReads)
	}
	// L2 now holds the line: another core... same core after L1 eviction
	// would hit L2. Simulate by invalidating L1 directly.
	h.L1D(0).Invalidate(77)
	done = 0
	h.Access(0, 77, false, 5000, func(int64) { done++ })
	if drive(h, mc, 5000, func() bool { return done == 1 }, 100000) < 0 {
		t.Fatal("L2 hit never completed")
	}
	if mc.ReadsIssued() != 1 {
		t.Fatalf("L2 hit went to memory: reads = %d", mc.ReadsIssued())
	}
	if cs.L2Hits != 1 {
		t.Fatalf("L2Hits = %d, want 1", cs.L2Hits)
	}
}

func TestMergedMissesSingleFetch(t *testing.T) {
	h, mc, _ := newHierarchy(t, 2, false)
	// Two cores miss on the same line: L2 MSHR must merge into one DRAM read.
	done := 0
	h.Access(0, 99, false, 0, func(int64) { done++ })
	h.Access(1, 99, false, 0, func(int64) { done++ })
	if drive(h, mc, 0, func() bool { return done == 2 }, 100000) < 0 {
		t.Fatal("merged misses never completed")
	}
	if mc.ReadsIssued() != 1 {
		t.Fatalf("DRAM reads = %d, want 1 (merged)", mc.ReadsIssued())
	}
}

func TestSameCoreMergeAtL1(t *testing.T) {
	h, mc, _ := newHierarchy(t, 1, false)
	done := 0
	h.Access(0, 42, false, 0, func(int64) { done++ })
	h.Access(0, 42, true, 0, func(int64) { done++ }) // store to same line merges
	if drive(h, mc, 0, func() bool { return done == 2 }, 100000) < 0 {
		t.Fatal("merged L1 misses never completed")
	}
	if mc.ReadsIssued() != 1 {
		t.Fatalf("DRAM reads = %d, want 1", mc.ReadsIssued())
	}
	// The merged store must have dirtied the L1 line.
	victimProducesWriteback(t, h, mc)
}

// victimProducesWriteback evicts line 42 from L1 (2-way sets) by filling its
// set and checks a write-back reaches L2 (dirty state) or memory.
func victimProducesWriteback(t *testing.T, h *Hierarchy, mc *memctrl.Controller) {
	t.Helper()
	sets := h.L1D(0).Sets()
	done := 0
	for i := 1; i <= 2; i++ {
		h.Access(0, 42+uint64(i*sets), false, 10000, func(int64) { done++ })
	}
	if drive(h, mc, 10000, func() bool { return done == 2 }, 1000000) < 0 {
		t.Fatal("evicting accesses never completed")
	}
	if h.L1D(0).Peek(42) {
		t.Fatal("line 42 still in L1; eviction did not happen")
	}
	// L2 holds 42 (it was filled there) and must now be dirty: evicting it
	// from L2 would produce a memory write. Cheap check: L2 Lookup(42,false)
	// hits.
	if !h.L2().Peek(42) {
		t.Fatal("dirty L1 victim vanished: not in L2")
	}
}

func TestMSHRStructuralHazard(t *testing.T) {
	h, _, cfg := newHierarchy(t, 1, false)
	// Exhaust the 32 L1D MSHRs with distinct lines (no ticking: nothing
	// completes). Use large strides to avoid set conflicts mattering.
	accepted := 0
	for i := 0; i < cfg.L1D.MSHRs+5; i++ {
		_, _, ok := h.Access(0, uint64(i*1000), false, 0, nil)
		if ok {
			accepted++
		}
	}
	if accepted != cfg.L1D.MSHRs {
		t.Fatalf("accepted %d misses, want %d (MSHR bound)", accepted, cfg.L1D.MSHRs)
	}
	// A hit must still be serviceable... no lines are resident, so check a
	// merge is still allowed instead.
	if _, _, ok := h.Access(0, 0, false, 0, nil); !ok {
		t.Fatal("merge to outstanding line rejected while MSHRs full")
	}
}

func TestPerfectMemoryNeverTouchesDRAM(t *testing.T) {
	h, mc, _ := newHierarchy(t, 1, true)
	done := 0
	for i := 0; i < 20; i++ {
		h.Access(0, uint64(i*500), false, int64(i), func(int64) { done++ })
	}
	if drive(h, mc, 20, func() bool { return done == 20 }, 100000) < 0 {
		t.Fatal("perfect-memory accesses never completed")
	}
	if mc.ReadsIssued() != 0 || mc.WritesIssued() != 0 {
		t.Fatalf("perfect memory issued DRAM traffic: %d reads %d writes",
			mc.ReadsIssued(), mc.WritesIssued())
	}
}

func TestPerfectMemoryIsFaster(t *testing.T) {
	run := func(perfect bool) int64 {
		h, mc, _ := newHierarchy(t, 1, perfect)
		done := 0
		const n = 50
		issued := 0
		now := int64(0)
		for done < n {
			// Issue as many as the MSHRs accept, retrying each cycle.
			for issued < n {
				if _, _, ok := h.Access(0, uint64(issued*100), false, now, func(int64) { done++ }); !ok {
					break
				}
				issued++
			}
			h.Tick(now)
			mc.Tick(now)
			now++
			if now > 10_000_000 {
				t.Fatal("accesses never completed")
			}
		}
		return now
	}
	slow := run(false)
	fast := run(true)
	if fast >= slow {
		t.Fatalf("perfect memory (%d cycles) not faster than DDR2 (%d cycles)", fast, slow)
	}
}

func TestQuiescent(t *testing.T) {
	h, mc, _ := newHierarchy(t, 1, false)
	if !h.Quiescent() {
		t.Fatal("fresh hierarchy not quiescent")
	}
	done := false
	h.Access(0, 1, false, 0, func(int64) { done = true })
	if h.Quiescent() {
		t.Fatal("hierarchy with outstanding miss reports quiescent")
	}
	drive(h, mc, 0, func() bool { return done && h.Quiescent() && mc.Quiescent() }, 100000)
}

func TestAccessInstrPath(t *testing.T) {
	h, mc, cfg := newHierarchy(t, 1, false)
	done := 0
	_, async, ok := h.AccessInstr(0, 42, 0, func(int64) { done++ })
	if !ok || !async {
		t.Fatalf("cold I-fetch: async=%v ok=%v", async, ok)
	}
	if drive(h, mc, 0, func() bool { return done == 1 }, 100000) < 0 {
		t.Fatal("I-fetch never completed")
	}
	// Warm: synchronous L1I hit at the configured latency.
	lat, async, ok := h.AccessInstr(0, 42, 5000, nil)
	if !ok || async || lat != int64(cfg.L1I.HitLatency) {
		t.Fatalf("warm I-fetch: lat=%d async=%v ok=%v", lat, async, ok)
	}
	cs := h.CoreStats(0)
	if cs.IFetches != 2 || cs.L1IMisses != 1 {
		t.Fatalf("counters: fetches=%d misses=%d", cs.IFetches, cs.L1IMisses)
	}
	if !h.L1I(0).Peek(42) {
		t.Fatal("line not in L1I")
	}
}

func TestInstrAndDataShareL2(t *testing.T) {
	h, mc, _ := newHierarchy(t, 1, false)
	// Fetch a line as data first; an instruction fetch of the same line must
	// then hit in L2 (no second DRAM read).
	done := 0
	h.Access(0, 7, false, 0, func(int64) { done++ })
	drive(h, mc, 0, func() bool { return done == 1 }, 100000)
	h.AccessInstr(0, 7, 5000, func(int64) { done++ })
	drive(h, mc, 5000, func() bool { return done == 2 }, 100000)
	if mc.ReadsIssued() != 1 {
		t.Fatalf("DRAM reads = %d, want 1 (I-fetch should hit L2)", mc.ReadsIssued())
	}
}

func TestL2StreamPrefetch(t *testing.T) {
	mk := func(prefetch bool) (*Hierarchy, *memctrl.Controller) {
		cfg := config.Default(1)
		cfg.L2StreamPrefetch = prefetch
		sys := dram.NewSystem(&cfg)
		pol, _ := sched.New("hf-rf", 1)
		mc, err := memctrl.New(&cfg, sys, pol, nil, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		return NewHierarchy(&cfg, mc), mc
	}
	// Without prefetch: a miss on line 100 fetches only line 100.
	h, mc := mk(false)
	done := 0
	h.Access(0, 100, false, 0, func(int64) { done++ })
	drive(h, mc, 0, func() bool { return done == 1 }, 100000)
	if mc.ReadsIssued() != 1 {
		t.Fatalf("no-prefetch reads = %d", mc.ReadsIssued())
	}
	// With prefetch: line 101 is fetched too, so a subsequent access to 101
	// hits in L2 without another DRAM read for it... total reads stay 2.
	h, mc = mk(true)
	done = 0
	h.Access(0, 100, false, 0, func(int64) { done++ })
	drive(h, mc, 0, func() bool { return done == 1 && h.Quiescent() }, 100000)
	if mc.ReadsIssued() != 2 {
		t.Fatalf("prefetch reads = %d, want 2 (demand + prefetch)", mc.ReadsIssued())
	}
	if h.CoreStats(0).Prefetches != 1 {
		t.Fatalf("Prefetches = %d", h.CoreStats(0).Prefetches)
	}
	if !h.L2().Peek(101) {
		t.Fatal("prefetched line not in L2")
	}
	// The prefetched line services a demand access from L2: it is an L2 hit,
	// so no further DRAM traffic (misses, not hits, trigger prefetches).
	done = 0
	h.Access(0, 101, false, 50_000, func(int64) { done++ })
	drive(h, mc, 50_000, func() bool { return done == 1 }, 100000)
	if mc.ReadsIssued() != 2 {
		t.Fatalf("reads after L2-hit access = %d, want 2", mc.ReadsIssued())
	}
	if h.CoreStats(0).L2Hits == 0 {
		t.Fatal("prefetched line did not produce an L2 hit")
	}
	// The last line a trace can address is fetched alone: the prefetcher
	// does not step onto trace.LineLimit, which has no tag word.
	h, mc = mk(true)
	done = 0
	h.Access(0, trace.LineLimit-1, false, 0, func(int64) { done++ })
	drive(h, mc, 0, func() bool { return done == 1 && h.Quiescent() }, 100000)
	if mc.ReadsIssued() != 1 || h.CoreStats(0).Prefetches != 0 {
		t.Fatalf("last line: %d reads, %d prefetches, want 1 and 0", mc.ReadsIssued(), h.CoreStats(0).Prefetches)
	}
}

// TestParkedRequestsSleep fills the 64-entry L2 miss file from three cores
// with 32 distinct-line misses each, so 32 requests wait on the full file.
// Between the last memory read leaving and the first DRAM return nothing can
// change for them: the hierarchy's horizon must stay put (Version does not
// move and NextEventAt lies beyond the next cycle), so the run loop can skip
// those cycles. Every access must still complete exactly once.
func TestParkedRequestsSleep(t *testing.T) {
	const cores, perCore = 3, 32
	h, mc, cfg := newHierarchy(t, cores, false)
	if cfg.L1D.MSHRs < perCore || cfg.L2.MSHRs != 64 {
		t.Fatalf("test assumes >= %d L1D and 64 L2 MSHRs, have %d and %d", perCore, cfg.L1D.MSHRs, cfg.L2.MSHRs)
	}
	type key struct {
		core int
		line uint64
	}
	done := map[key]int{}
	for c := 0; c < cores; c++ {
		for i := 0; i < perCore; i++ {
			k := key{c, uint64(c)<<20 | uint64(i)}
			if _, async, ok := h.Access(c, k.line, false, 0, func(int64) { done[k]++ }); !ok || !async {
				t.Fatalf("access %+v: async=%v ok=%v, want an accepted miss", k, async, ok)
			}
		}
	}
	memReads := func() uint64 {
		var n uint64
		for c := 0; c < cores; c++ {
			n += h.CoreStats(c).MemReads
		}
		return n
	}

	var ver uint64
	settled, slept := false, 0
	now := int64(0)
	for ; len(done) == 0; now++ {
		if now > 100_000 {
			t.Fatal("no access completed")
		}
		h.Tick(now)
		mc.Tick(now)
		if len(done) > 0 {
			break // the first DRAM return: parked requests may proceed
		}
		if !settled {
			if h.L2MSHRLen() == cfg.L2.MSHRs && memReads() == uint64(cfg.L2.MSHRs) {
				settled, ver = true, h.Version()
			}
			continue
		}
		if v := h.Version(); v != ver {
			t.Fatalf("cycle %d: Version moved %d -> %d while every waiting request was blocked", now, ver, v)
		}
		if next := h.NextEventAt(now); next <= now+1 {
			t.Fatalf("cycle %d: NextEventAt = %d, want beyond the next cycle", now, next)
		}
		slept++
	}
	if !settled || slept < 10 {
		t.Fatalf("settled=%v after %d sleeping cycles; the file never filled ahead of DRAM", settled, slept)
	}

	end := drive(h, mc, now+1, func() bool {
		return len(done) == cores*perCore && h.Quiescent() && mc.Quiescent()
	}, 1_000_000)
	if end < 0 {
		t.Fatalf("%d of %d accesses completed", len(done), cores*perCore)
	}
	for k, n := range done {
		if n != 1 {
			t.Errorf("access %+v completed %d times", k, n)
		}
	}
	if got := memReads(); got != cores*perCore {
		t.Errorf("memory reads = %d, want %d", got, cores*perCore)
	}
}

// TestLineLimitPanics pins that a line with no tag word, which only a buggy
// in-process generator can produce, stops the simulation instead of aliasing
// another line: shifted into a tag word, trace.LineLimit+5 would read as 5.
func TestLineLimitPanics(t *testing.T) {
	h, _, _ := newHierarchy(t, 1, false)
	h.L1D(0).Insert(5, true)
	for _, line := range []uint64{trace.LineLimit + 5, 1<<64 - 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Access(line %#x) did not panic", line)
				}
			}()
			h.Access(0, line, false, 1, nil)
		}()
	}
}

// TestHierarchyHostBytes pins the host memory one simulation's caches take:
// one 8-byte tag word per frame plus a fixed overhead, mostly the two
// next-cycle buffers and the miss files' tables (24 KiB at 8 cores). The
// stamped frames this layout replaced took 30 (L2) and 36 (L1) bytes per
// frame, 2.6 MB for the Table 1 machine at 8 cores.
func TestHierarchyHostBytes(t *testing.T) {
	cfg := config.Default(8)
	frames := cfg.L2.SizeBytes/cfg.L2.LineBytes +
		cfg.Cores*(cfg.L1D.SizeBytes/cfg.L1D.LineBytes+cfg.L1I.SizeBytes/cfg.L1I.LineBytes)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		NewHierarchy(&cfg, nil)
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(8*frames + 60<<10); got > limit {
		t.Fatalf("NewHierarchy(config.Default(8)) allocates %d B, want at most %d (8 B x %d frames + 60 KiB)", got, limit, frames)
	}
	t.Logf("NewHierarchy(config.Default(8)): %d B for %d frames", got, frames)
}
