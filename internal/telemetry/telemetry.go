// Package telemetry is the opt-in epoch-sampled observability layer of the
// simulator. A Collector attached to a run samples per-core, per-channel and
// controller-level time series at fixed cycle epochs — IPC, pending reads,
// ROB and MSHR occupancy, bandwidth, row-hit rate, write-drain phases, and
// the live ME/PendingRead priorities the controller computes — plus an
// optional per-bank DRAM command timeline captured through the same
// dram.Channel observer hook the timing checker uses. Snapshots export as
// CSV, JSON and Chrome trace-event files (see export.go).
//
// Design constraints, in order:
//
//   - Inert when disabled: a run without a Collector must be byte-identical
//     (results and allocations) to a build without this package. The sim
//     package only touches telemetry behind nil checks.
//   - Exact under cycle skipping: every sampled quantity is either an integer
//     counter or derived from integer counters at epoch boundaries, and
//     NextEventAt clamps next-event time advance to those boundaries (the
//     same contract as sim.OnlineEstimator), so a skipping run and a naive
//     run produce identical series — DiffSnapshots enforces ints exact,
//     floats within 1e-9.
//   - Allocation-conscious when enabled: sampling appends to grown-once
//     slices and per-epoch records; nothing allocates per cycle.
package telemetry

import (
	"fmt"
	"reflect"

	"memsched/internal/addr"
	"memsched/internal/cache"
	"memsched/internal/config"
	"memsched/internal/cpu"
	"memsched/internal/dram"
	"memsched/internal/memctrl"
	"memsched/internal/stats"
)

// DefaultEpoch is the sampling window in cycles when Options.Epoch is zero:
// fine enough to resolve write-drain bursts and priority flips, coarse enough
// that a full-length run stays in the low thousands of records.
const DefaultEpoch int64 = 10_000

// DefaultMaxCommands bounds the DRAM command timeline when
// Options.MaxCommands is zero; past it commands are counted, not stored.
const DefaultMaxCommands = 100_000

// Options configures telemetry for one run. A nil *Options on sim.Options /
// sim.RunSpec disables telemetry entirely.
type Options struct {
	// Epoch is the sampling window in cycles; 0 selects DefaultEpoch.
	Epoch int64
	// Dir, when non-empty, is the directory the Snapshot is exported to
	// after a successful run (cores.csv, channels.csv, controller.csv,
	// telemetry.json, trace.json).
	Dir string
	// Commands enables the per-bank DRAM command timeline. It installs the
	// dram.Channel observer, so it cannot be combined with another observer
	// (e.g. an attached dramcheck.Checker) on the same channels.
	Commands bool
	// MaxCommands bounds the stored command timeline; 0 selects
	// DefaultMaxCommands. Overflow is counted in Snapshot.CommandsDropped.
	MaxCommands int
	// Sink, when non-nil, receives the completed Snapshot at the end of the
	// measurement phase — the in-memory escape hatch for callers that go
	// through sim.Run and never see the System.
	Sink func(*Snapshot)
}

// CoreSample is one core's slice of an epoch.
type CoreSample struct {
	// Retired, MemReads and MemWrites are deltas over the epoch.
	Retired   uint64
	MemReads  uint64
	MemWrites uint64
	// IPC is Retired over the epoch's cycle count.
	IPC float64
	// PendingReads, ROBOccupancy and MSHROccupancy are instantaneous values
	// at the epoch boundary (pending reads is the controller-side counter
	// the priority tables are indexed with; MSHR occupancy is the core's
	// L1D miss file).
	PendingReads  int
	ROBOccupancy  int
	MSHROccupancy int
	// Priority is the live table score ME[i]/PendingRead[i] the controller
	// would use for this core right now (0 when the policy has no table).
	Priority float64
}

// ChannelSample is one channel's slice of an epoch. The counts are deltas
// over the epoch; the rates are derived from them.
type ChannelSample struct {
	Hits      uint64
	Closed    uint64
	Conflicts uint64
	// RowHitRate is Hits over all accesses of the epoch (0 when idle).
	RowHitRate float64
	// BusBusyCycles is the data-bus occupancy gained this epoch;
	// BusUtilization divides it by the epoch's cycle count.
	BusBusyCycles  int64
	BusUtilization float64
	// BandwidthGBs is the line-sized traffic of the epoch over its wall time.
	BandwidthGBs float64
}

// CtrlSample is the shared controller's slice of an epoch; queue depths and
// drain state are instantaneous at the boundary, DrainEntries cumulative.
type CtrlSample struct {
	ReadQueueLen  int
	WriteQueueLen int
	L2MSHRLen     int
	Draining      bool
	DrainEntries  uint64
}

// ClassLatSample is one serving class's read-latency distribution over the
// epoch: the delta of the class's cumulative log-spaced histogram between
// the two boundary cycles, so Reads counts exactly the completions that fell
// inside the window and the percentiles describe those completions alone.
// All-integer, hence exact under cycle skipping.
type ClassLatSample struct {
	Reads uint64
	P50   int64
	P95   int64
	P99   int64
	P999  int64
}

// Epoch is one sampling window. EndCycle is relative to the measurement
// start; Cycles is the window length (the final window may be shorter).
type Epoch struct {
	Index    int
	EndCycle int64
	Cycles   int64
	Cores    []CoreSample
	Channels []ChannelSample
	Ctrl     CtrlSample
	// ClassLat is indexed by serving class (0 = BE, 1 = LC, matching
	// workload.ServiceClass); with no classes assigned every completion lands
	// in the BE entry.
	ClassLat [2]ClassLatSample
}

// Command is one DRAM transaction on the per-bank timeline. Cycle fields are
// relative to the measurement start; Class is the row-buffer outcome string
// ("hit", "closed", "conflict").
type Command struct {
	Channel       int
	Rank          int
	Bank          int
	Row           int64
	Class         string
	Start         int64
	DataStart     int64
	DataDone      int64
	AutoPrecharge bool
}

// Phase is one closed write-drain interval, [Start, End) relative to the
// measurement start.
type Phase struct {
	Start int64
	End   int64
}

// Snapshot is the complete telemetry record of one measurement window.
type Snapshot struct {
	// EpochLen is the configured window; StartCycle the absolute cycle the
	// measurement began at; TotalCycles the measured length.
	EpochLen    int64
	StartCycle  int64
	TotalCycles int64
	// Geometry, so exports can label series without the config.
	Cores        int
	Channels     int
	RanksPerChan int
	BanksPerRank int

	Epochs      []Epoch
	DrainPhases []Phase
	// Commands is the DRAM command timeline (empty unless Options.Commands);
	// CommandsDropped counts overflow past MaxCommands.
	Commands        []Command
	CommandsDropped uint64
}

// Collector samples a running system. It is built by sim.New when telemetry
// is requested, lies dormant through warmup, and is driven by the run loop:
// Start at the measurement boundary, Tick every executed cycle, NextEventAt
// from the next-event scan, Finish after the last core commits.
type Collector struct {
	opts  Options
	cfg   *config.Config
	cores []*cpu.Core
	hier  *cache.Hierarchy
	mc    *memctrl.Controller
	dsys  *dram.System

	started bool
	t0      int64
	next    int64 // absolute cycle of the next boundary sample
	last    int64 // absolute cycle of the previous sample (t0-1 initially)

	lastRetired []uint64
	lastReads   []uint64
	lastWrites  []uint64
	lastChan    []dram.Stats
	// lastClassLat holds the per-class cumulative latency histograms at the
	// previous boundary; the epoch sample is the integer delta against them.
	lastClassLat [2]stats.LatencyHist

	// openDrain is the relative start of the drain phase in progress, -1 when
	// none.
	openDrain int64

	snap Snapshot
}

// NewCollector builds a collector over an assembled system's components.
// It observes nothing until Start.
func NewCollector(opts Options, cfg *config.Config, cores []*cpu.Core,
	hier *cache.Hierarchy, mc *memctrl.Controller, dsys *dram.System) *Collector {
	if opts.Epoch <= 0 {
		opts.Epoch = DefaultEpoch
	}
	if opts.MaxCommands <= 0 {
		opts.MaxCommands = DefaultMaxCommands
	}
	n := len(cores)
	return &Collector{
		opts:        opts,
		cfg:         cfg,
		cores:       cores,
		hier:        hier,
		mc:          mc,
		dsys:        dsys,
		lastRetired: make([]uint64, n),
		lastReads:   make([]uint64, n),
		lastWrites:  make([]uint64, n),
		lastChan:    make([]dram.Stats, len(dsys.Channels)),
		openDrain:   -1,
		snap: Snapshot{
			EpochLen:     opts.Epoch,
			Cores:        n,
			Channels:     len(dsys.Channels),
			RanksPerChan: cfg.Memory.RanksPerChan,
			BanksPerRank: cfg.Memory.BanksPerRank,
		},
	}
}

// Epoch returns the sampling window in cycles.
func (c *Collector) Epoch() int64 { return c.opts.Epoch }

// Snapshot returns the collected record; complete only after Finish.
func (c *Collector) Snapshot() *Snapshot { return &c.snap }

// Start arms the collector at the measurement boundary: counter baselines are
// taken (warmup resets have already run), the first epoch ends after Epoch
// executed cycles, and the drain and command observers are installed. now is
// the first measured cycle.
func (c *Collector) Start(now int64) {
	c.started = true
	c.t0 = now
	c.snap.StartCycle = now
	// The run loop ticks cycles now..now+Epoch-1 and then samples inside the
	// boundary tick, so the boundary is Epoch-1 past now and each window spans
	// exactly Epoch executed cycles (next - last).
	c.last = now - 1
	c.next = now + c.opts.Epoch - 1
	for i, core := range c.cores {
		c.lastRetired[i] = core.Retired()
		cs := c.mc.CoreStatsOf(i)
		c.lastReads[i] = cs.ReadsCompleted
		c.lastWrites[i] = cs.WritesRetired
	}
	for i, ch := range c.dsys.Channels {
		c.lastChan[i] = ch.Stats()
	}
	c.lastClassLat = c.classCumulative()
	if c.mc.Draining() {
		c.openDrain = 0
	}
	c.mc.SetDrainObserver(c.drainChanged)
	if c.opts.Commands {
		for i, ch := range c.dsys.Channels {
			i := i
			ch.SetObserver(func(coord addr.Coord, res dram.Result, autoPrecharge bool) {
				c.observeCommand(i, coord, res, autoPrecharge)
			})
		}
	}
}

// NextEventAt implements the next-event time-advance contract: the collector
// acts only at epoch boundaries, so a quiescent skip must not jump past one —
// otherwise the boundary sample would be taken late and the skipping and
// naive runs would bin deltas into different epochs.
func (c *Collector) NextEventAt(int64) int64 {
	if !c.started {
		return cpu.FarFuture
	}
	return c.next
}

// Tick advances the collector; the run loop calls it once per executed cycle,
// after every component has ticked, so boundary samples see the cycle's final
// state.
func (c *Collector) Tick(now int64) {
	if !c.started || now < c.next {
		return
	}
	c.sample(now)
	c.next += c.opts.Epoch
}

// Finish closes the record at end (the last executed cycle): a final partial
// epoch is sampled if any cycles are pending, the open drain phase (if any)
// is closed, observers are uninstalled, and the Sink fires.
func (c *Collector) Finish(end int64) {
	if !c.started {
		return
	}
	if end > c.last {
		c.sample(end)
	}
	c.snap.TotalCycles = end - c.t0 + 1
	if c.openDrain >= 0 {
		c.snap.DrainPhases = append(c.snap.DrainPhases, Phase{Start: c.openDrain, End: c.snap.TotalCycles})
		c.openDrain = -1
	}
	c.mc.SetDrainObserver(nil)
	if c.opts.Commands {
		for _, ch := range c.dsys.Channels {
			ch.SetObserver(nil)
		}
	}
	c.started = false
	if c.opts.Sink != nil {
		c.opts.Sink(&c.snap)
	}
}

// sample appends one epoch record covering (last, now].
func (c *Collector) sample(now int64) {
	dCycles := now - c.last
	ep := Epoch{
		Index:    len(c.snap.Epochs),
		EndCycle: now - c.t0 + 1,
		Cycles:   dCycles,
		Cores:    make([]CoreSample, len(c.cores)),
		Channels: make([]ChannelSample, len(c.dsys.Channels)),
	}
	table := c.mc.Table()
	for i, core := range c.cores {
		retired := core.Retired()
		cs := c.mc.CoreStatsOf(i)
		s := &ep.Cores[i]
		s.Retired = retired - c.lastRetired[i]
		s.MemReads = cs.ReadsCompleted - c.lastReads[i]
		s.MemWrites = cs.WritesRetired - c.lastWrites[i]
		c.lastRetired[i] = retired
		c.lastReads[i] = cs.ReadsCompleted
		c.lastWrites[i] = cs.WritesRetired
		s.IPC = float64(s.Retired) / float64(dCycles)
		s.PendingReads = c.mc.PendingReadsOf(i)
		s.ROBOccupancy = core.ROBOccupancy()
		s.MSHROccupancy = c.hier.L1DMSHRLen(i)
		if table != nil {
			s.Priority = table.Score(i, s.PendingReads)
		}
	}
	ns := float64(dCycles) / c.cfg.CyclesPerNs()
	lineBytes := float64(c.cfg.L2.LineBytes)
	for i, ch := range c.dsys.Channels {
		st := ch.Stats()
		prev := c.lastChan[i]
		c.lastChan[i] = st
		s := &ep.Channels[i]
		s.Hits = st.Hits - prev.Hits
		s.Closed = st.Closed - prev.Closed
		s.Conflicts = st.Conflicts - prev.Conflicts
		s.BusBusyCycles = st.BusBusyCycles - prev.BusBusyCycles
		if acc := s.Hits + s.Closed + s.Conflicts; acc > 0 {
			s.RowHitRate = float64(s.Hits) / float64(acc)
			s.BandwidthGBs = float64(acc) * lineBytes / ns
		}
		s.BusUtilization = float64(s.BusBusyCycles) / float64(dCycles)
	}
	ep.Ctrl = CtrlSample{
		ReadQueueLen:  c.mc.ReadQueueLen(),
		WriteQueueLen: c.mc.WriteQueueLen(),
		L2MSHRLen:     c.hier.L2MSHRLen(),
		Draining:      c.mc.Draining(),
		DrainEntries:  c.mc.DrainEntries(),
	}
	cum := c.classCumulative()
	for cls := range cum {
		delta := cum[cls]
		delta.Sub(&c.lastClassLat[cls])
		ep.ClassLat[cls] = ClassLatSample{
			Reads: delta.N(),
			P50:   delta.Quantile(0.50),
			P95:   delta.Quantile(0.95),
			P99:   delta.Quantile(0.99),
			P999:  delta.Quantile(0.999),
		}
	}
	c.lastClassLat = cum
	c.snap.Epochs = append(c.snap.Epochs, ep)
	c.last = now
}

// classCumulative merges the controller's live per-core latency histograms
// by serving class (0 = BE, 1 = LC). Histograms are fixed-size structs, so
// the merge allocates nothing.
func (c *Collector) classCumulative() [2]stats.LatencyHist {
	var cum [2]stats.LatencyHist
	for i := range c.cores {
		cls := 0
		if c.mc.LatencyCritical(i) {
			cls = 1
		}
		cum[cls].Merge(&c.mc.CoreStatsOf(i).LatHist)
	}
	return cum
}

// drainChanged is the controller's drain observer: transitions are recorded
// as closed [enter, leave) phases relative to the measurement start.
func (c *Collector) drainChanged(now int64, draining bool) {
	if draining {
		c.openDrain = now - c.t0
		return
	}
	if c.openDrain >= 0 {
		c.snap.DrainPhases = append(c.snap.DrainPhases, Phase{Start: c.openDrain, End: now - c.t0})
		c.openDrain = -1
	}
}

// observeCommand is the per-channel DRAM observer.
func (c *Collector) observeCommand(channel int, coord addr.Coord, res dram.Result, autoPrecharge bool) {
	if len(c.snap.Commands) >= c.opts.MaxCommands {
		c.snap.CommandsDropped++
		return
	}
	c.snap.Commands = append(c.snap.Commands, Command{
		Channel:       channel,
		Rank:          coord.Rank,
		Bank:          coord.Bank,
		Row:           coord.Row,
		Class:         res.Class.String(),
		Start:         res.Start - c.t0,
		DataStart:     res.DataStart - c.t0,
		DataDone:      res.DataDone - c.t0,
		AutoPrecharge: autoPrecharge,
	})
}

// DiffSnapshots compares two Snapshots with the same contract DiffResults
// applies to Results: integer, string and boolean fields identical, floats
// within floatTol relative. It backs the epoch-alignment regression test
// (skipping vs naive run loops must produce the same series).
func DiffSnapshots(got, want *Snapshot, floatTol float64) []string {
	var diffs []string
	diffSnapValues("", reflect.ValueOf(*got), reflect.ValueOf(*want), floatTol, &diffs)
	return diffs
}

func diffSnapValues(path string, got, want reflect.Value, floatTol float64, diffs *[]string) {
	switch got.Kind() {
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			f := got.Type().Field(i)
			diffSnapValues(path+"."+f.Name, got.Field(i), want.Field(i), floatTol, diffs)
		}
	case reflect.Slice, reflect.Array:
		if got.Len() != want.Len() {
			*diffs = append(*diffs, fmt.Sprintf("%s: length %d != %d", path, got.Len(), want.Len()))
			return
		}
		for i := 0; i < got.Len(); i++ {
			diffSnapValues(fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i), floatTol, diffs)
		}
	case reflect.Float32, reflect.Float64:
		g, w := got.Float(), want.Float()
		scale := 1.0
		for _, v := range []float64{g, w, -g, -w} {
			if v > scale {
				scale = v
			}
		}
		if d := g - w; d > floatTol*scale || d < -floatTol*scale {
			*diffs = append(*diffs, fmt.Sprintf("%s: %v != %v (rel tol %g)", path, g, w, floatTol))
		}
	default:
		if !reflect.DeepEqual(got.Interface(), want.Interface()) {
			*diffs = append(*diffs, fmt.Sprintf("%s: %v != %v", path, got.Interface(), want.Interface()))
		}
	}
}
