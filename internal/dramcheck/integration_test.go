package dramcheck_test

import (
	"testing"

	"memsched/internal/config"
	"memsched/internal/dram"
	"memsched/internal/dramcheck"
	"memsched/internal/memctrl"
	"memsched/internal/sched"
	"memsched/internal/xrand"
)

// TestModelObeysTimingUnderEveryPolicy drives the real controller + DRAM
// model with pseudo-random 4-core traffic under every scheduling policy and
// cross-validates every issued transaction against the independent protocol
// mirror. This is the strongest correctness statement the repository makes
// about its memory model.
// readCount is the test's memctrl.ReadSink: it counts read-data returns.
type readCount int

func (n *readCount) ReadReturned(int, uint64, int64) { *n++ }

func TestModelObeysTimingUnderEveryPolicy(t *testing.T) {
	policies := []string{"fcfs", "hf-rf", "rr", "lreq", "me", "me-lreq", "fq", "burst", "fix:3210"}
	for _, name := range policies {
		t.Run(name, func(t *testing.T) {
			cfg := config.Default(4)
			sys := dram.NewSystem(&cfg)
			timing := cfg.DRAMCycles()

			checkers := make([]*dramcheck.Checker, len(sys.Channels))
			for i, ch := range sys.Channels {
				checkers[i] = dramcheck.New(timing, cfg.Memory.RanksPerChan, cfg.Memory.BanksPerRank)
				checkers[i].Attach(ch)
			}

			pol, err := sched.New(name, 4)
			if err != nil {
				t.Fatal(err)
			}
			table, err := memctrl.NewPriorityTable([]float64{1, 4, 27, 192}, 64, 10)
			if err != nil {
				t.Fatal(err)
			}
			mc, err := memctrl.New(&cfg, sys, pol, table, xrand.New(11))
			if err != nil {
				t.Fatal(err)
			}

			rng := xrand.New(1234)
			var completed readCount
			injected, writes := 0, 0
			// Writes are bounded: an unbounded write flood exceeds the drain
			// rate and correctly locks the controller into drain mode.
			const target, writeCap = 600, 200
			now := int64(0)
			for completed < target {
				if injected < target && rng.Bernoulli(0.6) {
					core := rng.Intn(4)
					// Mix of streaming (row locality) and random lines.
					var line uint64
					if rng.Bernoulli(0.5) {
						line = uint64(injected * 4)
					} else {
						line = uint64(rng.Intn(1 << 22))
					}
					if mc.EnqueueRead(&completed, core, line, now) {
						injected++
					}
					if writes < writeCap && rng.Bernoulli(0.25) {
						if mc.EnqueueWrite(core, uint64(rng.Intn(1<<22)), now) {
							writes++
						}
					}
				}
				mc.Tick(now)
				now++
				if now > 5_000_000 {
					t.Fatalf("stalled: %d/%d reads", completed, target)
				}
			}

			var seen uint64
			for i, k := range checkers {
				seen += k.Transactions()
				for _, v := range k.Violations() {
					t.Errorf("channel %d: %s", i, v)
				}
			}
			if seen < target {
				t.Fatalf("checkers saw %d transactions, expected at least %d", seen, target)
			}
		})
	}
}
