package memctrl_test

import (
	"testing"

	"memsched/internal/config"
	"memsched/internal/dram"
	"memsched/internal/memctrl"
	"memsched/internal/sched"
	"memsched/internal/xrand"
)

// benchController builds a 4-core me-lreq controller with a priority table,
// the configuration the acceptance benchmarks run.
func benchController(b *testing.B) *memctrl.Controller {
	b.Helper()
	cfg := config.Default(4)
	sys := dram.NewSystem(&cfg)
	pol, err := sched.New("me-lreq", 4)
	if err != nil {
		b.Fatal(err)
	}
	table, err := memctrl.NewPriorityTable([]float64{0.9, 0.7, 0.5, 0.3},
		cfg.Memory.MaxPendingPerCore, cfg.Memory.PriorityBits)
	if err != nil {
		b.Fatal(err)
	}
	mc, err := memctrl.New(&cfg, sys, pol, table, xrand.New(42))
	if err != nil {
		b.Fatal(err)
	}
	return mc
}

// BenchmarkControllerSteadyState measures the controller hot path in
// isolation: admission, per-channel scheduling scans, DRAM issue, and read
// completion, with the queues kept busy. The indexed layout keeps this loop
// allocation-free in steady state (allocs/op ~ 0 once the request pool and
// scratch buffers have warmed up) — versus one Request, one completion
// closure, and per-scan candidate slices per request before the rework.
func BenchmarkControllerSteadyState(b *testing.B) {
	mc := benchController(b)
	rng := xrand.New(7)
	b.ReportAllocs()
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		// Keep a steady supply of traffic across cores, banks, and rows;
		// admission failures just mean the queues are already full.
		for core := 0; core < 4; core++ {
			line := rng.Uint64n(1 << 20)
			enqueueRead(mc, core, line, now, nil)
			if i%4 == 0 {
				mc.EnqueueWrite(core, line+1, now)
			}
		}
		mc.Tick(now)
		now++
	}
}

// BenchmarkControllerDrain measures scheduling with deep queues and no new
// admissions: pure gather/pick/issue work.
func BenchmarkControllerDrain(b *testing.B) {
	mc := benchController(b)
	rng := xrand.New(11)
	b.ReportAllocs()
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		if mc.ReadQueueLen() == 0 {
			b.StopTimer()
			for n := 0; n < 48; n++ {
				enqueueRead(mc, n%4, rng.Uint64n(1<<20), now, nil)
			}
			b.StartTimer()
		}
		mc.Tick(now)
		now++
	}
}
