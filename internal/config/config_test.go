package config

import (
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		cfg := Default(n)
		if err := cfg.Validate(); err != nil {
			t.Errorf("Default(%d) invalid: %v", n, err)
		}
	}
}

func TestDefaultMatchesTable1(t *testing.T) {
	cfg := Default(4)
	if cfg.Core.FreqGHz != 3.2 {
		t.Errorf("freq = %v, want 3.2", cfg.Core.FreqGHz)
	}
	if cfg.Core.IssueWidth != 4 || cfg.Core.PipelineDepth != 16 {
		t.Errorf("issue/pipeline = %d/%d, want 4/16", cfg.Core.IssueWidth, cfg.Core.PipelineDepth)
	}
	if cfg.Core.ROBSize != 196 || cfg.Core.IQSize != 64 || cfg.Core.LQSize != 32 || cfg.Core.SQSize != 32 {
		t.Errorf("ROB/IQ/LQ/SQ = %d/%d/%d/%d, want 196/64/32/32",
			cfg.Core.ROBSize, cfg.Core.IQSize, cfg.Core.LQSize, cfg.Core.SQSize)
	}
	if cfg.L1D.SizeBytes != 64<<10 || cfg.L1D.Assoc != 2 || cfg.L1D.HitLatency != 3 {
		t.Errorf("L1D = %+v, want 64KB 2-way 3-cycle", cfg.L1D)
	}
	if cfg.L1I.HitLatency != 1 {
		t.Errorf("L1I latency = %d, want 1", cfg.L1I.HitLatency)
	}
	if cfg.L2.SizeBytes != 4<<20 || cfg.L2.Assoc != 4 || cfg.L2.HitLatency != 15 {
		t.Errorf("L2 = %+v, want 4MB 4-way 15-cycle", cfg.L2)
	}
	if cfg.L1D.MSHRs != 32 || cfg.L1I.MSHRs != 8 || cfg.L2.MSHRs != 64 {
		t.Errorf("MSHRs = %d/%d/%d, want 32/8/64", cfg.L1D.MSHRs, cfg.L1I.MSHRs, cfg.L2.MSHRs)
	}
	if cfg.Memory.Channels != 2 || cfg.Memory.RanksPerChan != 2 || cfg.Memory.BanksPerRank != 4 {
		t.Errorf("memory geometry = %d/%d/%d, want 2/2/4",
			cfg.Memory.Channels, cfg.Memory.RanksPerChan, cfg.Memory.BanksPerRank)
	}
	if cfg.Memory.ReadQueueCap != 64 {
		t.Errorf("read queue = %d, want 64", cfg.Memory.ReadQueueCap)
	}
	if cfg.Memory.MaxPendingPerCore != 64 || cfg.Memory.PriorityBits != 10 {
		t.Errorf("table geometry = %d entries x %d bits, want 64 x 10",
			cfg.Memory.MaxPendingPerCore, cfg.Memory.PriorityBits)
	}
}

func TestNsToCycles(t *testing.T) {
	cfg := Default(1)
	cases := []struct {
		ns   float64
		want int64
	}{
		{12.5, 40}, // precharge / row / column access
		{15.0, 48}, // controller overhead
		{5.0, 16},  // 64B burst on 12.8 GB/s channel
		{0, 0},
	}
	for _, c := range cases {
		if got := cfg.NsToCycles(c.ns); got != c.want {
			t.Errorf("NsToCycles(%v) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestDRAMCycles(t *testing.T) {
	cfg := Default(1)
	d := cfg.DRAMCycles()
	if d.TRP != 40 || d.TRCD != 40 || d.TCL != 40 {
		t.Errorf("tRP/tRCD/tCL = %d/%d/%d, want 40/40/40", d.TRP, d.TRCD, d.TCL)
	}
	if d.Burst != 16 {
		t.Errorf("burst = %d, want 16", d.Burst)
	}
	if d.CtrlOverhead != 48 {
		t.Errorf("ctrl overhead = %d, want 48", d.CtrlOverhead)
	}
}

func TestTotalBanks(t *testing.T) {
	cfg := Default(4)
	if got := cfg.Memory.TotalBanks(); got != 16 {
		t.Errorf("TotalBanks = %d, want 16 (2ch x 2rank x 4bank)", got)
	}
}

func TestLinesPerRow(t *testing.T) {
	cfg := Default(4)
	if got := cfg.Memory.LinesPerRow(64); got != 128 {
		t.Errorf("LinesPerRow = %d, want 128", got)
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
		frag string
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }, "cores"},
		{"too many cores", func(c *Config) { c.Cores = 100 }, "cores"},
		{"zero freq", func(c *Config) { c.Core.FreqGHz = 0 }, "frequency"},
		{"zero issue", func(c *Config) { c.Core.IssueWidth = 0 }, "issue"},
		{"tiny rob", func(c *Config) { c.Core.ROBSize = 1 }, "ROB"},
		{"bad branch rate", func(c *Config) { c.Core.BranchMissPct = 2 }, "mispred"},
		{"non-pow2 line", func(c *Config) { c.L1D.LineBytes = 48 }, "line"},
		{"line mismatch", func(c *Config) { c.L1D.LineBytes = 32; c.L1D.SizeBytes = 64 << 10 }, "line sizes differ"},
		{"zero assoc", func(c *Config) { c.L2.Assoc = 0 }, "assoc"},
		{"zero mshr", func(c *Config) { c.L2.MSHRs = 0 }, "MSHR"},
		{"non-pow2 channels", func(c *Config) { c.Memory.Channels = 3 }, "channels"},
		{"row too small", func(c *Config) { c.Memory.RowBytes = 32 }, "row"},
		{"queue zero", func(c *Config) { c.Memory.ReadQueueCap = 0 }, "read queue"},
		{"inverted drain", func(c *Config) { c.Memory.DrainHigh = 0.1; c.Memory.DrainLow = 0.5 }, "drain"},
		{"priority bits", func(c *Config) { c.Memory.PriorityBits = 99 }, "priority bits"},
		// Assoc*LineBytes wraps to 0 here; it must be refused, not divided by.
		{"wrapping assoc", func(c *Config) { c.L2.Assoc = 1 << 58 }, "L2 associativity"},
		{"1 TiB L2", func(c *Config) { c.L2.SizeBytes = 1 << 40 }, "L2 size"},
		{"2^40 ROB", func(c *Config) { c.Core.ROBSize = 1 << 40 }, "ROB"},
		{"huge L1 MSHRs", func(c *Config) { c.L1D.MSHRs = 1 << 20 }, "MSHR"},
		{"huge read queue", func(c *Config) { c.Memory.ReadQueueCap = 1 << 20 }, "read queue"},
		{"huge pending", func(c *Config) { c.Memory.MaxPendingPerCore = 1 << 20 }, "pending"},
		{"huge banks", func(c *Config) { c.Memory.BanksPerRank = 1 << 20 }, "banks"},
		{"huge rows", func(c *Config) { c.Memory.RowBytes = 1 << 30 }, "row bytes"},
		{"all caches too big", func(c *Config) { *c = Default(64); c.L1D.SizeBytes = 64 << 20 }, "blocks in all"},
	}
	for _, m := range mutations {
		cfg := Default(4)
		m.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted invalid config", m.name)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(m.frag)) {
			t.Errorf("%s: error %q does not mention %q", m.name, err, m.frag)
		}
	}
}

// TestBoundsAdmitSweptMachines pins that the upper bounds leave room for the
// largest machines the experiments and the sweep knobs' documented values
// build: 64 cores, a 64 MiB L2, 128-entry controller queues, 4 channels and
// 16 banks per rank.
func TestBoundsAdmitSweptMachines(t *testing.T) {
	cfg := Default(64)
	cfg.L2.SizeBytes = 64 << 20
	cfg.Memory.ReadQueueCap, cfg.Memory.WriteQueueCap = 128, 128
	cfg.Memory.Channels, cfg.Memory.BanksPerRank = 4, 16
	cfg.Core.ROBSize, cfg.Core.LQSize = 1024, 256
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPerfectMemoryFlagDefaultsOff(t *testing.T) {
	if Default(2).PerfectMemory {
		t.Fatal("PerfectMemory should default to false")
	}
}

func TestExactPriorityAllowed(t *testing.T) {
	cfg := Default(2)
	cfg.Memory.PriorityBits = 0 // exact mode
	if err := cfg.Validate(); err != nil {
		t.Fatalf("PriorityBits=0 (exact) should validate: %v", err)
	}
}

func TestRowPolicyString(t *testing.T) {
	cases := map[RowPolicy]string{
		ClosePageHitAware: "close-hit-aware",
		OpenPage:          "open",
		ClosePageStrict:   "close-strict",
		RowPolicy(9):      "RowPolicy(9)",
	}
	for rp, want := range cases {
		if got := rp.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", rp, got, want)
		}
	}
}

func TestRowPolicyValidation(t *testing.T) {
	cfg := Default(2)
	cfg.Memory.RowPolicy = RowPolicy(9)
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown row policy accepted")
	}
	for _, rp := range []RowPolicy{ClosePageHitAware, OpenPage, ClosePageStrict} {
		cfg.Memory.RowPolicy = rp
		if err := cfg.Validate(); err != nil {
			t.Errorf("row policy %v rejected: %v", rp, err)
		}
	}
}

func TestEnableRefresh(t *testing.T) {
	cfg := Default(2)
	cfg.Memory.EnableRefresh()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	d := cfg.DRAMCycles()
	if d.TREFI != 24960 { // 7800 ns x 3.2 GHz
		t.Errorf("TREFI = %d cycles, want 24960", d.TREFI)
	}
	if d.TRFC != 408 { // 127.5 ns x 3.2
		t.Errorf("TRFC = %d cycles, want 408", d.TRFC)
	}
}

func TestRefreshValidation(t *testing.T) {
	cfg := Default(2)
	cfg.Memory.Timing.TREFIns = 1000
	cfg.Memory.Timing.TRFCns = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("tREFI without tRFC accepted")
	}
	cfg.Memory.Timing.TRFCns = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative tRFC accepted")
	}
}

func TestFunctionalUnitValidation(t *testing.T) {
	cfg := Default(2)
	cfg.Core.FPMults = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero FP multipliers accepted")
	}
}

func TestCyclesPerNs(t *testing.T) {
	cfg := Default(1)
	if got := cfg.CyclesPerNs(); got != 3.2 {
		t.Errorf("CyclesPerNs = %v, want 3.2", got)
	}
}
