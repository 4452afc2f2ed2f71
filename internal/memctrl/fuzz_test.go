package memctrl_test

import (
	"os"
	"path/filepath"
	"testing"

	"memsched/internal/config"
	"memsched/internal/dram"
	"memsched/internal/dramcheck"
	"memsched/internal/memctrl"
	"memsched/internal/sched"
	"memsched/internal/xrand"
)

// fuzzPolicies is the policy pool the first input byte indexes into; every
// registry family is represented so the fuzzer exercises each pick path.
var fuzzPolicies = []string{"fcfs", "hf-rf", "rr", "lreq", "me", "me-lreq", "fq", "burst", "bliss", "cads", "fix:3210", "dash"}

// FuzzControllerTiming drives a 4-core controller with an arbitrary
// byte-stream-decoded sequence of read/write admissions and tick bursts while
// an independent dramcheck.Checker audits every transaction each channel
// issues. The property: no input sequence can make the controller violate
// DRAM timing (bank ready windows, bus reservation, row-state bookkeeping).
//
// Byte protocol: byte 0 selects the policy; each following byte's low 2 bits
// select an op (read, write, tick, tick burst) and the high 6 bits carry the
// operands, with one extension byte for address entropy on enqueues.
func FuzzControllerTiming(f *testing.F) {
	// Handwritten seeds: one of each op class, a drain-provoking write burst,
	// and a mixed stream long enough to fill bank queues.
	f.Add([]byte{0})
	f.Add([]byte{5, 0x00, 0x11, 0x42, 0x03, 0x07, 0xff})
	seed := make([]byte, 0, 512)
	seed = append(seed, 8)
	for i := 0; i < 120; i++ {
		seed = append(seed, byte(i*7+1), byte(i*13+5))
		if i%9 == 0 {
			seed = append(seed, 0x0b) // tick burst
		}
	}
	f.Add(seed)
	// Deadline-aware seed: byte 0x5f selects dash (0x5f % 12 == 11) with LC
	// flags on cores 0 and 2 (high nibble 0b0101), followed by a mixed
	// read/write stream so urgent LC picks interleave with BE row hits.
	dashSeed := make([]byte, 0, 256)
	dashSeed = append(dashSeed, 0x5f)
	for i := 0; i < 90; i++ {
		dashSeed = append(dashSeed, byte(i*11+3), byte(i*5+1))
		if i%7 == 0 {
			dashSeed = append(dashSeed, 0x1f) // tick burst
		}
	}
	f.Add(dashSeed)
	// Golden fixture bytes as found corpus: structured JSON exercises the
	// decoder with realistic-looking biased byte distributions.
	if paths, err := filepath.Glob(filepath.Join("..", "sim", "testdata", "golden", "*.json")); err == nil {
		for i, p := range paths {
			if i >= 4 {
				break
			}
			if blob, err := os.ReadFile(p); err == nil {
				if len(blob) > 1024 {
					blob = blob[:1024]
				}
				f.Add(blob)
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const cores = 4
		cfg := config.Default(cores)
		pol, err := sched.New(fuzzPolicies[int(data[0])%len(fuzzPolicies)], cores)
		if err != nil {
			t.Fatal(err)
		}
		sys := dram.NewSystem(&cfg)
		checkers := make([]*dramcheck.Checker, len(sys.Channels))
		for i, ch := range sys.Channels {
			k := dramcheck.New(cfg.DRAMCycles(), cfg.Memory.RanksPerChan, cfg.Memory.BanksPerRank)
			k.Attach(ch)
			checkers[i] = k
		}
		table, err := memctrl.NewPriorityTable([]float64{2.0, 1.0, 0.5, 0.25},
			cfg.Memory.MaxPendingPerCore, cfg.Memory.PriorityBits)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := memctrl.New(&cfg, sys, pol, table, xrand.New(uint64(len(data))))
		if err != nil {
			t.Fatal(err)
		}
		// The high nibble of byte 0 is a per-core latency-critical mask, so
		// arbitrary inputs drive mixed LC/BE streams through every policy
		// (class-blind ones must ignore the flags; dash reads them).
		lc := make([]bool, cores)
		for c := 0; c < cores; c++ {
			lc[c] = data[0]>>(4+c)&1 == 1
		}
		if err := mc.SetLatencyCritical(lc); err != nil {
			t.Fatal(err)
		}

		now := int64(0)
		mc.Tick(now)
		for i := 1; i < len(data); i++ {
			b := data[i]
			switch b & 3 {
			case 0, 1: // enqueue read (0) or write (1)
				line := uint64(b >> 2)
				if i+1 < len(data) {
					i++
					line |= uint64(data[i]) << 6
				}
				core := int(line) % cores
				if b&3 == 0 {
					enqueueRead(mc, core, line, now, nil)
				} else {
					mc.EnqueueWrite(core, line, now)
				}
			case 2: // single tick
				now++
				mc.Tick(now)
			case 3: // tick burst of 1..64 cycles
				for k := int64(b>>2) + 1; k > 0; k-- {
					now++
					mc.Tick(now)
				}
			}
		}
		// Drain everything so in-flight work is audited end to end.
		for limit := now + 500_000; !mc.Quiescent(); {
			now++
			if now > limit {
				t.Fatalf("controller failed to drain: %d reads, %d writes queued",
					mc.ReadQueueLen(), mc.WriteQueueLen())
			}
			mc.Tick(now)
		}
		var audited uint64
		for ci, k := range checkers {
			for _, v := range k.Violations() {
				t.Errorf("channel %d: %s", ci, v)
			}
			audited += k.Transactions()
		}
		if issued := mc.ReadsIssued() + mc.WritesIssued(); audited != issued {
			t.Errorf("checker audited %d transactions, controller issued %d", audited, issued)
		}
	})
}
