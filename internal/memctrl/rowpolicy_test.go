package memctrl_test

import (
	"testing"

	"memsched/internal/config"
	"memsched/internal/dram"
	"memsched/internal/memctrl"
	"memsched/internal/sched"
	"memsched/internal/xrand"
)

func controllerWithPolicy(t *testing.T, rp config.RowPolicy) (*memctrl.Controller, *dram.System) {
	t.Helper()
	cfg := config.Default(1)
	cfg.Memory.RowPolicy = rp
	sys := dram.NewSystem(&cfg)
	pol, err := sched.New("hf-rf", 1)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := memctrl.New(&cfg, sys, pol, nil, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return mc, sys
}

func bankState(sys *dram.System, line uint64) dram.Bank {
	return sys.Channels[0].Bank(sys.Mapper.Map(line))
}

func TestOpenPageKeepsRowOpen(t *testing.T) {
	mc, sys := controllerWithPolicy(t, config.OpenPage)
	done := 0
	enqueueRead(mc, 0, 0, 0, func(int64) { done++ })
	runUntil(mc, 0, func() bool { return done == 1 }, 100_000)
	if b := bankState(sys, 0); b.State != dram.BankActive || b.OpenRow != 0 {
		t.Fatalf("open-page bank = %+v, want active row 0", b)
	}
	// A much later access to the same row must be a hit even though nothing
	// was queued meanwhile.
	done = 0
	enqueueRead(mc, 0, 16, 100_000, func(int64) { done++ })
	runUntil(mc, 100_000, func() bool { return done == 1 }, 100_000)
	if sys.Channels[0].Stats().Hits != 1 {
		t.Fatal("open page did not produce a row hit on re-reference")
	}
}

func TestStrictClosePageNeverHits(t *testing.T) {
	mc, sys := controllerWithPolicy(t, config.ClosePageStrict)
	done := 0
	// Two same-row requests queued together: hit-aware close page would keep
	// the row open; strict must precharge anyway.
	enqueueRead(mc, 0, 0, 0, func(int64) { done++ })
	enqueueRead(mc, 0, 16, 0, func(int64) { done++ })
	runUntil(mc, 0, func() bool { return done == 2 }, 100_000)
	st := sys.Channels[0].Stats()
	if st.Hits != 0 {
		t.Fatalf("strict close page produced %d hits", st.Hits)
	}
	if b := bankState(sys, 0); b.State != dram.BankPrecharged {
		t.Fatalf("strict close page left bank %v", b.State)
	}
}

func TestHitAwareBeatsStrictOnStreams(t *testing.T) {
	// Sanity: with queued same-row traffic, hit-aware close page must finish
	// no later than strict close page.
	run := func(rp config.RowPolicy) int64 {
		mc, _ := controllerWithPolicy(t, rp)
		done := 0
		for i := uint64(0); i < 8; i++ {
			enqueueRead(mc, 0, i*16, 0, func(int64) { done++ }) // same bank, same row
		}
		end := runUntil(mc, 0, func() bool { return done == 8 }, 1_000_000)
		if end < 0 {
			t.Fatal("requests never completed")
		}
		return end
	}
	if aware, strict := run(config.ClosePageHitAware), run(config.ClosePageStrict); aware > strict {
		t.Fatalf("hit-aware (%d cycles) slower than strict (%d cycles)", aware, strict)
	}
}

func TestRefreshEndToEnd(t *testing.T) {
	cfg := config.Default(1)
	cfg.Memory.EnableRefresh()
	sys := dram.NewSystem(&cfg)
	pol, _ := sched.New("hf-rf", 1)
	mc, err := memctrl.New(&cfg, sys, pol, nil, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Trickle reads across several refresh intervals (injected as simulated
	// time actually passes, so issues interleave with refreshes); everything
	// must still complete and refreshes must be recorded.
	timing := cfg.DRAMCycles()
	done, injected := 0, 0
	now := int64(0)
	for done < 10 {
		if injected < 10 && now == int64(injected)*timing.TREFI/2 {
			if enqueueRead(mc, 0, uint64(injected*37), now, func(int64) { done++ }) {
				injected++
			}
		}
		mc.Tick(now)
		now++
		if now > timing.TREFI*20 {
			t.Fatalf("reads stalled under refresh: %d/10", done)
		}
	}
	total := sys.TotalStats()
	if total.Refreshes == 0 {
		t.Fatal("no refreshes recorded")
	}
}
