// Package config defines every tunable parameter of the simulated system and
// provides the defaults from Table 1 of the paper (ICPP 2008).
//
// All latencies are expressed in CPU cycles at the configured core frequency.
// Helpers convert the nanosecond figures the paper quotes (DDR2-800 5-5-5,
// 12.5 ns precharge / row access / column access, 15 ns controller overhead)
// into cycles so the rest of the simulator never deals with wall-clock time.
package config

import (
	"errors"
	"fmt"
)

// CoreConfig describes one out-of-order processor core (paper Table 1:
// 3.2 GHz, 4-issue, 16-stage pipeline, ROB 196, IQ 64, LQ 32, SQ 32).
type CoreConfig struct {
	FreqGHz       float64 // core clock; the global simulation clock
	IssueWidth    int     // instructions dispatched and retired per cycle
	PipelineDepth int     // front-end refill penalty after a branch mispredict
	ROBSize       int     // reorder buffer entries
	IQSize        int     // instruction queue entries (issue window)
	LQSize        int     // load queue entries
	SQSize        int     // store queue entries
	IntALULat     int     // integer ALU latency, cycles
	IntMultLat    int     // integer multiply latency, cycles
	FPALULat      int     // FP add latency, cycles
	FPMultLat     int     // FP multiply latency, cycles
	IntALUs       int     // integer ALU count (issue bandwidth per cycle)
	IntMults      int     // integer multiplier count
	FPALUs        int     // FP adder count
	FPMults       int     // FP multiplier count
	BranchMissPct float64 // fraction of branches mispredicted (hybrid predictor proxy)
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes  int // total capacity
	Assoc      int // ways per set
	LineBytes  int // block size
	HitLatency int // access latency in cycles
	MSHRs      int // outstanding misses supported
}

// DRAMTiming holds DDR2 timing parameters in nanoseconds; ToCycles converts
// them to CPU cycles for the simulator core.
type DRAMTiming struct {
	TRPns   float64 // precharge
	TRCDns  float64 // row activate to column command
	TCLns   float64 // column access (CAS) latency
	BurstNs float64 // data transfer time for one cache line on the channel
	// Refresh: every TREFIns one bank (round-robin) is blocked for TRFCns.
	// Zero TREFIns disables refresh (the paper's model omits it; enabling it
	// is an ablation).
	TREFIns float64
	TRFCns  float64
}

// RowPolicy selects the controller's row-buffer management.
type RowPolicy uint8

const (
	// ClosePageHitAware is the paper's policy: auto-precharge after an
	// access unless another queued request targets the same row.
	ClosePageHitAware RowPolicy = iota
	// OpenPage leaves the row open unconditionally; a later conflict pays
	// the precharge. The paper mentions (and rejects) this mode for its
	// cache-line-interleaved system; it is provided for the ablation.
	OpenPage
	// ClosePageStrict always auto-precharges, even with queued same-row
	// requests — the naive close-page baseline.
	ClosePageStrict
)

// String implements fmt.Stringer.
func (p RowPolicy) String() string {
	switch p {
	case ClosePageHitAware:
		return "close-hit-aware"
	case OpenPage:
		return "open"
	case ClosePageStrict:
		return "close-strict"
	default:
		return fmt.Sprintf("RowPolicy(%d)", uint8(p))
	}
}

// MemoryConfig describes the DRAM subsystem (paper Table 1: 2 logic channels,
// 2 DIMMs per physical channel, 4 banks per DIMM, 800 MT/s, 16 B per logic
// channel => 12.8 GB/s per logic channel, close page, cacheline interleave).
type MemoryConfig struct {
	Channels       int // logic channels, each independently scheduled
	RanksPerChan   int // DIMM pairs operating in lockstep per logic channel
	BanksPerRank   int
	RowBytes       int     // row buffer size per bank
	BusBytesPerNs  float64 // logic channel bandwidth: 12.8 GB/s = 12.8 B/ns
	Timing         DRAMTiming
	CtrlOverheadNs float64 // fixed memory-controller overhead per transaction
	ReadQueueCap   int     // controller read buffer entries (shared by cores)
	WriteQueueCap  int     // controller write buffer entries
	// Write drain watermarks, as fractions of WriteQueueCap. When the write
	// queue reaches HighWatermark the controller drains writes ahead of reads
	// until it falls to LowWatermark (paper: 1/2 and 1/4 of the buffer).
	DrainHigh float64
	DrainLow  float64
	// MaxPendingPerCore bounds the per-core outstanding read count tracked by
	// the priority tables (paper: 64, giving 64-entry tables per core).
	MaxPendingPerCore int
	// PriorityBits is the width of each quantized priority-table entry
	// (paper: 10 bits). 0 selects exact (non-quantized) priorities.
	PriorityBits int
	// RowPolicy selects row-buffer management (default: the paper's
	// hit-aware close page).
	RowPolicy RowPolicy
	// PageInterleave switches the address mapping from the paper's
	// cache-line interleaving to page interleaving (consecutive lines fill
	// a row before changing banks) — the layout the paper pairs with
	// open-page mode and deliberately rejects; provided for the ablation.
	PageInterleave bool
}

// Config is the full system configuration.
type Config struct {
	Cores           int
	Core            CoreConfig
	L1I             CacheConfig
	L1D             CacheConfig
	L2              CacheConfig // shared
	L2PortsPerCycle int         // simultaneous L2 accesses per cycle (contention proxy)
	Memory          MemoryConfig
	// PerfectMemory short-circuits the DRAM: every L2 miss completes in one
	// cycle. Used only to classify MEM vs ILP applications (paper Section 4.2).
	PerfectMemory bool
	// L2StreamPrefetch enables a simple next-line stream prefetcher at the
	// L2: each demand L2 miss also fetches the sequentially next line.
	// Off by default — the paper's system has no prefetcher — and provided
	// for the ablation (prefetching interacts with scheduling by adding
	// low-criticality traffic the policies must order).
	L2StreamPrefetch bool
}

// Default returns the configuration of paper Table 1 for n cores.
func Default(n int) Config {
	return Config{
		Cores: n,
		Core: CoreConfig{
			FreqGHz:       3.2,
			IssueWidth:    4,
			PipelineDepth: 16,
			ROBSize:       196,
			IQSize:        64,
			LQSize:        32,
			SQSize:        32,
			IntALULat:     1,
			IntMultLat:    3,
			FPALULat:      2,
			FPMultLat:     4,
			IntALUs:       4,
			IntMults:      2,
			FPALUs:        2,
			FPMults:       1,
			BranchMissPct: 0.03,
		},
		L1I:             CacheConfig{SizeBytes: 64 << 10, Assoc: 2, LineBytes: 64, HitLatency: 1, MSHRs: 8},
		L1D:             CacheConfig{SizeBytes: 64 << 10, Assoc: 2, LineBytes: 64, HitLatency: 3, MSHRs: 32},
		L2:              CacheConfig{SizeBytes: 4 << 20, Assoc: 4, LineBytes: 64, HitLatency: 15, MSHRs: 64},
		L2PortsPerCycle: 4,
		Memory: MemoryConfig{
			Channels:     2,
			RanksPerChan: 2,
			BanksPerRank: 4,
			RowBytes:     8 << 10,
			// 16 B / logic channel @ 800 MT/s => 12.8 GB/s = 12.8 B/ns.
			BusBytesPerNs: 12.8,
			Timing: DRAMTiming{
				TRPns:  12.5,
				TRCDns: 12.5,
				TCLns:  12.5,
				// 64 B line over 12.8 B/ns = 5 ns.
				BurstNs: 5.0,
			},
			CtrlOverheadNs:    15.0,
			ReadQueueCap:      64,
			WriteQueueCap:     64,
			DrainHigh:         0.5,
			DrainLow:          0.25,
			MaxPendingPerCore: 64,
			PriorityBits:      10,
		},
	}
}

// CyclesPerNs returns the number of CPU cycles per nanosecond.
func (c *Config) CyclesPerNs() float64 { return c.Core.FreqGHz }

// NsToCycles converts a nanosecond latency to an integer cycle count,
// rounding to nearest.
func (c *Config) NsToCycles(ns float64) int64 {
	return int64(ns*c.Core.FreqGHz + 0.5)
}

// DRAMCycles is the DRAM timing converted to CPU cycles.
type DRAMCycles struct {
	TRP, TRCD, TCL, Burst, CtrlOverhead int64
	// TREFI and TRFC are zero when refresh is disabled.
	TREFI, TRFC int64
}

// DRAMCycles converts the configured DRAM timing into CPU cycles.
func (c *Config) DRAMCycles() DRAMCycles {
	return DRAMCycles{
		TRP:          c.NsToCycles(c.Memory.Timing.TRPns),
		TRCD:         c.NsToCycles(c.Memory.Timing.TRCDns),
		TCL:          c.NsToCycles(c.Memory.Timing.TCLns),
		Burst:        c.NsToCycles(c.Memory.Timing.BurstNs),
		CtrlOverhead: c.NsToCycles(c.Memory.CtrlOverheadNs),
		TREFI:        c.NsToCycles(c.Memory.Timing.TREFIns),
		TRFC:         c.NsToCycles(c.Memory.Timing.TRFCns),
	}
}

// EnableRefresh turns on DDR2-typical auto-refresh timing (7.8 us average
// refresh interval, 127.5 ns refresh cycle for 1 Gb devices).
func (m *MemoryConfig) EnableRefresh() {
	m.Timing.TREFIns = 7800
	m.Timing.TRFCns = 127.5
}

// TotalBanks returns the number of independently schedulable banks.
func (m *MemoryConfig) TotalBanks() int {
	return m.Channels * m.RanksPerChan * m.BanksPerRank
}

// LinesPerRow returns cache lines per DRAM row for the given line size.
func (m *MemoryConfig) LinesPerRow(lineBytes int) int {
	return m.RowBytes / lineBytes
}

var errConfig = errors.New("config: invalid")

func check(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("%w: %s", errConfig, fmt.Sprintf(format, args...))
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Upper bounds on the fields that size a host allocation, so that no config
// that passes Validate, such as one submitted to sweepd, can make a
// simulation allocate without limit. Each is far above the Table 1 machine
// and every machine the experiments and fixtures use.
const (
	// maxFrames bounds the blocks of one cache and of all caches together:
	// at 8 bytes per tag word the tag store stays within 32 MiB.
	maxFrames    = 1 << 22
	maxAssoc     = 64
	maxLineBytes = 4096
	maxMSHRs     = 1024
	// maxEntries bounds the ROB, IQ, LQ and SQ, the controller's read and
	// write queues and MaxPendingPerCore.
	maxEntries = 4096
	// maxUnits bounds the channels, the ranks per channel and the banks per
	// rank.
	maxUnits    = 32
	maxRowBytes = 1 << 16
)

// Validate checks structural invariants the simulator relies on. It returns
// the first violation found.
func (c *Config) Validate() error {
	checks := []error{
		check(c.Cores >= 1 && c.Cores <= 64, "cores %d out of [1,64]", c.Cores),
		check(c.Core.FreqGHz > 0, "core frequency must be positive"),
		check(c.Core.IssueWidth >= 1, "issue width must be >= 1"),
		check(c.Core.ROBSize >= c.Core.IssueWidth, "ROB smaller than issue width"),
		check(c.Core.LQSize >= 1 && c.Core.SQSize >= 1, "LQ/SQ must be >= 1"),
		check(c.Core.ROBSize <= maxEntries && c.Core.IQSize <= maxEntries &&
			c.Core.LQSize <= maxEntries && c.Core.SQSize <= maxEntries,
			"ROB/IQ/LQ/SQ must be <= %d", maxEntries),
		check(c.Core.IntALUs >= 1 && c.Core.IntMults >= 1 &&
			c.Core.FPALUs >= 1 && c.Core.FPMults >= 1,
			"functional unit counts must be >= 1"),
		check(c.Core.BranchMissPct >= 0 && c.Core.BranchMissPct <= 1,
			"branch misprediction rate %v out of [0,1]", c.Core.BranchMissPct),
		c.validateCache("L1I", c.L1I),
		c.validateCache("L1D", c.L1D),
		c.validateCache("L2", c.L2),
		check(c.L1D.LineBytes == c.L2.LineBytes, "L1D/L2 line sizes differ"),
		check(c.L2PortsPerCycle >= 1, "L2 ports must be >= 1"),
		check(isPow2(c.Memory.Channels) && c.Memory.Channels <= maxUnits,
			"channels %d not a power of two in [1,%d]", c.Memory.Channels, maxUnits),
		check(isPow2(c.Memory.RanksPerChan) && c.Memory.RanksPerChan <= maxUnits,
			"ranks %d not a power of two in [1,%d]", c.Memory.RanksPerChan, maxUnits),
		check(isPow2(c.Memory.BanksPerRank) && c.Memory.BanksPerRank <= maxUnits,
			"banks %d not a power of two in [1,%d]", c.Memory.BanksPerRank, maxUnits),
		check(isPow2(c.Memory.RowBytes) && c.Memory.RowBytes <= maxRowBytes,
			"row bytes %d not a power of two in [1,%d]", c.Memory.RowBytes, maxRowBytes),
		check(c.Memory.RowBytes >= c.L2.LineBytes, "row smaller than a cache line"),
		check(c.Memory.BusBytesPerNs > 0, "bus bandwidth must be positive"),
		check(c.Memory.Timing.TRPns >= 0 && c.Memory.Timing.TRCDns >= 0 &&
			c.Memory.Timing.TCLns >= 0, "DRAM timings must be non-negative"),
		check(c.Memory.Timing.BurstNs > 0, "burst time must be positive"),
		check(c.Memory.ReadQueueCap >= 1 && c.Memory.ReadQueueCap <= maxEntries,
			"read queue capacity must be in [1,%d]", maxEntries),
		check(c.Memory.WriteQueueCap >= 1 && c.Memory.WriteQueueCap <= maxEntries,
			"write queue capacity must be in [1,%d]", maxEntries),
		check(c.Memory.DrainHigh > c.Memory.DrainLow, "drain high watermark must exceed low"),
		check(c.Memory.DrainHigh <= 1 && c.Memory.DrainLow >= 0, "drain watermarks out of [0,1]"),
		check(c.Memory.MaxPendingPerCore >= 1 && c.Memory.MaxPendingPerCore <= maxEntries,
			"max pending per core must be in [1,%d]", maxEntries),
		check(c.Memory.PriorityBits >= 0 && c.Memory.PriorityBits <= 30,
			"priority bits %d out of [0,30]", c.Memory.PriorityBits),
		check(c.Memory.RowPolicy <= ClosePageStrict,
			"unknown row policy %d", c.Memory.RowPolicy),
		check(c.Memory.Timing.TREFIns >= 0 && c.Memory.Timing.TRFCns >= 0,
			"refresh timings must be non-negative"),
		check(c.Memory.Timing.TREFIns == 0 || c.Memory.Timing.TRFCns > 0,
			"refresh enabled (tREFI > 0) requires tRFC > 0"),
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	// Each cache holds at most maxFrames blocks, so this cannot overflow.
	frames := c.L2.SizeBytes/c.L2.LineBytes +
		c.Cores*(c.L1I.SizeBytes/c.L1I.LineBytes+c.L1D.SizeBytes/c.L1D.LineBytes)
	if frames > maxFrames {
		return check(false, "caches hold %d blocks in all, above %d", frames, maxFrames)
	}
	return nil
}

func (c *Config) validateCache(name string, cc CacheConfig) error {
	// The operands are bounded before they are multiplied.
	switch {
	case !isPow2(cc.LineBytes) || cc.LineBytes > maxLineBytes:
		return check(false, "%s line size %d not a power of two in [1,%d]", name, cc.LineBytes, maxLineBytes)
	case cc.Assoc < 1 || cc.Assoc > maxAssoc:
		return check(false, "%s associativity %d out of [1,%d]", name, cc.Assoc, maxAssoc)
	case cc.SizeBytes/cc.LineBytes > maxFrames:
		return check(false, "%s size %d holds more than %d blocks", name, cc.SizeBytes, maxFrames)
	case cc.SizeBytes < cc.Assoc*cc.LineBytes:
		return check(false, "%s size %d smaller than one set", name, cc.SizeBytes)
	case !isPow2(cc.SizeBytes / (cc.Assoc * cc.LineBytes)):
		return check(false, "%s set count %d not a power of two", name, cc.SizeBytes/(cc.Assoc*cc.LineBytes))
	case cc.HitLatency < 1:
		return check(false, "%s hit latency %d < 1", name, cc.HitLatency)
	case cc.MSHRs < 1 || cc.MSHRs > maxMSHRs:
		return check(false, "%s MSHR count %d out of [1,%d]", name, cc.MSHRs, maxMSHRs)
	}
	return nil
}
