// Command sweep explores the memory-system design space: it runs one
// workload under one policy across a sweep of a single configuration knob
// and reports how the paper's metrics move.
//
// Usage:
//
//	sweep -mix 4MEM-1 -knob channels -values 1,2,4
//	sweep -mix 8MEM-4 -policy lreq -knob buffer -values 16,32,64,128
//	sweep -mix 8MIX-2 -knob banks -values 4,8,16 -parallel 4
//	sweep -knob channels -values 1,2,4 -resume sweep.ckpt.json
//	sweep -knobs                       # list sweepable knobs
//
// Knobs: channels, banks, buffer, prioritybits, drainhigh, rowpolicy,
// prefetch, refresh, l2mb, robsize, lqsize.
//
// With -telemetry DIR each point additionally records epoch-sampled telemetry
// (package telemetry) and exports CSV/JSON/Chrome-trace files under
// DIR/<knob>=<value>; -epoch sets the sampling window in cycles.
//
// The knob values run on internal/runner's worker pool: -parallel sets the
// pool width (output is identical for every width, 1 included), -resume names
// a JSON checkpoint that persists completed points and lets an interrupted
// sweep pick up where it stopped, and Ctrl-C cancels mid-simulation.
//
// With -remote ADDR the matrix is not simulated locally: it is submitted to a
// sweepd coordinator (see cmd/sweepd), which shards the points across worker
// processes and serves repeated points from its content-addressed result
// cache. Profiling still runs locally (it feeds the job specs), progress
// streams live from the coordinator, and the printed table is identical to a
// local run of the same matrix.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"memsched/internal/cliflags"
	"memsched/internal/config"
	"memsched/internal/lab"
	"memsched/internal/metrics"
	"memsched/internal/prof"
	"memsched/internal/report"
	"memsched/internal/runner"
	"memsched/internal/sched"
	"memsched/internal/sim"
	"memsched/internal/sweepd"
	"memsched/internal/telemetry"
	"memsched/internal/workload"
)

var (
	mixFlag    = flag.String("mix", "4MEM-1", "Table 3 workload to sweep")
	policyFlag = flag.String("policy", "me-lreq", "scheduling policy")
	knobFlag   = flag.String("knob", "", "configuration knob to sweep")
	valuesFlag = flag.String("values", "", "comma-separated knob values")
	instrFlag  = flag.Uint64("instr", 150_000, "instructions per core")
	seedFlag   = flag.Uint64("seed", sim.EvalSeed, "evaluation seed")
	listFlag   = flag.Bool("knobs", false, "list sweepable knobs and exit")
	parallel   = cliflags.Parallel(flag.CommandLine)
	resumeFlag = cliflags.Resume(flag.CommandLine)
	progress   = cliflags.Progress(flag.CommandLine)
	timeoutFlg = cliflags.Timeout(flag.CommandLine)
	remoteFlag = flag.String("remote", "", "submit the sweep to a sweepd coordinator at this address instead of running locally")
	cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf    = flag.String("memprofile", "", "write a heap profile to this file at exit")
	telemDir   = flag.String("telemetry", "", "directory for per-point telemetry exports (CSV/JSON/trace-event under DIR/<knob>=<value>)")
	epochFlag  = flag.Int64("epoch", 0, "telemetry sampling epoch in cycles (0 = default)")
)

// knob applies one string-encoded value to a configuration.
type knob struct {
	describe string
	apply    func(*config.Config, string) error
}

func intKnob(describe string, set func(*config.Config, int)) knob {
	return knob{describe: describe, apply: func(c *config.Config, s string) error {
		v, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("%q is not an integer", s)
		}
		set(c, v)
		return nil
	}}
}

func boolKnob(describe string, set func(*config.Config, bool)) knob {
	return knob{describe: describe, apply: func(c *config.Config, s string) error {
		v, err := strconv.ParseBool(s)
		if err != nil {
			return fmt.Errorf("%q is not a boolean", s)
		}
		set(c, v)
		return nil
	}}
}

var knobs = map[string]knob{
	"channels": intKnob("logic memory channels",
		func(c *config.Config, v int) { c.Memory.Channels = v }),
	"banks": intKnob("banks per rank",
		func(c *config.Config, v int) { c.Memory.BanksPerRank = v }),
	"buffer": intKnob("controller read+write buffer entries",
		func(c *config.Config, v int) { c.Memory.ReadQueueCap = v; c.Memory.WriteQueueCap = v }),
	"prioritybits": intKnob("priority-table entry width (0 = exact)",
		func(c *config.Config, v int) { c.Memory.PriorityBits = v }),
	"robsize": intKnob("reorder buffer entries per core",
		func(c *config.Config, v int) { c.Core.ROBSize = v }),
	"lqsize": intKnob("load queue entries per core",
		func(c *config.Config, v int) { c.Core.LQSize = v }),
	"l2mb": intKnob("shared L2 capacity in MiB",
		func(c *config.Config, v int) { c.L2.SizeBytes = v << 20 }),
	"prefetch": boolKnob("L2 next-line stream prefetcher",
		func(c *config.Config, v bool) { c.L2StreamPrefetch = v }),
	"refresh": boolKnob("DDR2 auto-refresh",
		func(c *config.Config, v bool) {
			if v {
				c.Memory.EnableRefresh()
			}
		}),
	"drainhigh": {describe: "write-drain high watermark (low = half of it)",
		apply: func(c *config.Config, s string) error {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return fmt.Errorf("%q is not a float", s)
			}
			c.Memory.DrainHigh = v
			c.Memory.DrainLow = v / 2
			return nil
		}},
	"rowpolicy": {describe: "row policy: close-hit-aware | open | close-strict",
		apply: func(c *config.Config, s string) error {
			switch s {
			case "close-hit-aware":
				c.Memory.RowPolicy = config.ClosePageHitAware
			case "open":
				c.Memory.RowPolicy = config.OpenPage
			case "close-strict":
				c.Memory.RowPolicy = config.ClosePageStrict
			default:
				return fmt.Errorf("unknown row policy %q", s)
			}
			return nil
		}},
}

func main() {
	flag.Parse()
	if *listFlag {
		names := make([]string, 0, len(knobs))
		for n := range knobs {
			names = append(names, n)
		}
		sort.Strings(names)
		t := report.NewTable("Sweepable knobs", "knob", "meaning")
		for _, n := range names {
			t.AddRow(n, knobs[n].describe)
		}
		t.WriteText(os.Stdout)
		return
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// sweepPoint is one knob value's aggregated metrics — the unit the runner
// checkpoints, so it must round-trip through JSON.
type sweepPoint struct {
	Speedup    float64 `json:"speedup"`
	Unfairness float64 `json:"unfairness"`
	ReadLat    float64 `json:"read_lat"`
	P95Lat     int64   `json:"p95_lat"`
	BusUtil    float64 `json:"bus_util"`
	RowHitRate float64 `json:"row_hit_rate"`
}

// point derives one knob value's table row from a finished run. Local and
// remote sweeps both go through here, which is what keeps their tables
// identical.
func point(res sim.Result, singles []float64) (sweepPoint, error) {
	sp, err := metrics.SMTSpeedup(res.IPCs(), singles)
	if err != nil {
		return sweepPoint{}, err
	}
	u, err := metrics.Unfairness(res.IPCs(), singles)
	if err != nil {
		return sweepPoint{}, err
	}
	var p95 int64
	for _, c := range res.Cores {
		if c.P95ReadLatency > p95 {
			p95 = c.P95ReadLatency
		}
	}
	return sweepPoint{Speedup: sp, Unfairness: u, ReadLat: res.AvgReadLatency,
		P95Lat: p95, BusUtil: res.BusUtilization, RowHitRate: res.DRAM.HitRate()}, nil
}

func run(ctx context.Context) error {
	k, ok := knobs[*knobFlag]
	if !ok {
		return fmt.Errorf("unknown knob %q (try -knobs)", *knobFlag)
	}
	if *valuesFlag == "" {
		return fmt.Errorf("-values is required")
	}
	mix, err := workload.MixByName(*mixFlag)
	if err != nil {
		return err
	}
	apps, err := mix.Apps()
	if err != nil {
		return err
	}
	// Fail on a bad policy name — with the registry in the message — before
	// burning profiling or simulation time (or a remote submission) on it.
	if _, err := sched.New(*policyFlag, len(apps)); err != nil {
		return err
	}

	// Profiling and single-core references are knob-independent (they use
	// the default machine, as the paper's methodology does).
	l := lab.New(lab.Options{Instr: *instrFlag, ProfInstr: *instrFlag, Seed: *seedFlag})
	mes, singles, err := l.MixVectors(ctx, mix)
	if err != nil {
		return err
	}

	var values []string
	for _, raw := range strings.Split(*valuesFlag, ",") {
		raw = strings.TrimSpace(raw)
		// Validate every value before burning simulation time on any of them.
		cfg := config.Default(len(apps))
		if err := k.apply(&cfg, raw); err != nil {
			return err
		}
		values = append(values, raw)
	}

	meta := fmt.Sprintf("sweep mix=%s policy=%s knob=%s instr=%d seed=%#x",
		mix.Name, *policyFlag, *knobFlag, *instrFlag, *seedFlag)
	var points []sweepPoint
	if *remoteFlag != "" {
		points, err = runRemote(ctx, k, values, len(apps), mes, singles, meta)
	} else {
		points, err = runLocal(ctx, k, values, apps, mes, singles, meta)
	}
	if err != nil {
		return err
	}

	t := report.NewTable(
		fmt.Sprintf("sweep of %s on %s under %s (%s)", *knobFlag, mix.Name, *policyFlag, k.describe),
		*knobFlag, "SMT speedup", "unfairness", "read lat", "p95 lat", "bus util", "row hits")
	chart := report.NewChart("", 36)
	for i, p := range points {
		t.AddRow(values[i],
			fmt.Sprintf("%.3f", p.Speedup),
			fmt.Sprintf("%.3f", p.Unfairness),
			fmt.Sprintf("%.0f", p.ReadLat),
			fmt.Sprintf("<%d", p.P95Lat),
			fmt.Sprintf("%.1f%%", 100*p.BusUtil),
			fmt.Sprintf("%.1f%%", 100*p.RowHitRate))
		chart.Add(fmt.Sprintf("%s=%s", *knobFlag, values[i]), p.Speedup)
	}
	if err := t.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return chart.WriteText(os.Stdout)
}

// runLocal fans the knob values across the in-process worker pool. Outcomes
// come back in admission order, so the table is identical for every -parallel.
func runLocal(ctx context.Context, k knob, values []string, apps []workload.App,
	mes, singles []float64, meta string) ([]sweepPoint, error) {
	outs, err := runner.Run(ctx, runner.NewJobs(values),
		func(ctx context.Context, j runner.Job) (sweepPoint, error) {
			cfg := config.Default(len(apps))
			if err := k.apply(&cfg, j.Key); err != nil {
				return sweepPoint{}, err
			}
			spec := sim.RunSpec{Config: &cfg, Apps: apps,
				Policy: *policyFlag, Instr: *instrFlag, ME: mes, Seed: *seedFlag}
			if *telemDir != "" {
				// One export directory per point; points run concurrently, so
				// the per-point directories keep writers disjoint.
				spec.Telemetry = &telemetry.Options{Epoch: *epochFlag, Commands: true,
					Dir: filepath.Join(*telemDir, fmt.Sprintf("%s=%s", *knobFlag, j.Key))}
			}
			res, err := sim.Run(ctx, spec)
			if err != nil {
				return sweepPoint{}, fmt.Errorf("%s=%s: %w", *knobFlag, j.Key, err)
			}
			return point(res, singles)
		},
		runner.Options{
			Workers:    *parallel,
			JobTimeout: *timeoutFlg,
			Progress:   *progress,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
			Checkpoint: *resumeFlag,
			Meta:       meta,
		})
	if err != nil {
		return nil, err
	}
	if err := runner.FirstError(outs); err != nil {
		return nil, err
	}
	points := make([]sweepPoint, len(outs))
	for i, o := range outs {
		points[i] = o.Value
	}
	return points, nil
}

// runRemote submits the matrix to a sweepd coordinator, streams progress, and
// derives the same sweepPoints a local run would. Profiling vectors (mes,
// singles) were computed locally and travel inside the job specs, so a remote
// outcome is byte-identical to a local run of the same point.
func runRemote(ctx context.Context, k knob, values []string, cores int,
	mes, singles []float64, meta string) ([]sweepPoint, error) {
	if *telemDir != "" {
		return nil, fmt.Errorf("-telemetry is not supported with -remote (telemetry exports are worker-local)")
	}
	if *resumeFlag != "" {
		return nil, fmt.Errorf("-resume applies to local runs; remote sweeps resume from the coordinator's result cache")
	}
	jobs := make([]sweepd.JobV1, len(values))
	for i, v := range values {
		cfg := config.Default(cores)
		if err := k.apply(&cfg, v); err != nil {
			return nil, err
		}
		jobs[i] = sweepd.JobV1{ID: i, Key: fmt.Sprintf("%s=%s", *knobFlag, v),
			Spec: sweepd.JobSpecV1{
				Mix:    *mixFlag,
				Policy: *policyFlag,
				Instr:  *instrFlag,
				ME:     mes,
				Seed:   *seedFlag,
				Config: &cfg,
			}}
	}
	client := sweepd.NewClient(*remoteFlag)
	sub, err := client.Submit(ctx, sweepd.SweepRequestV1{Meta: meta, Jobs: jobs})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "sweep: submitted %s to %s: %d points (%d cached, %d coalesced)\n",
		sub.SweepID, *remoteFlag, sub.Jobs, sub.CacheHits, sub.Coalesced)
	if *progress > 0 {
		if err := client.Watch(ctx, sub.SweepID, func(ev sweepd.EventV1) {
			if ev.Type != "job" {
				return
			}
			state := "done"
			switch {
			case ev.Err != "":
				state = "FAILED: " + ev.Err
			case ev.CacheHit:
				state = "cached"
			case ev.Worker != "":
				state = "done on " + ev.Worker
			}
			fmt.Fprintf(os.Stderr, "sweep: %d/%d %s %s\n", ev.Completed, ev.Total, ev.Key, state)
		}); err != nil {
			return nil, err
		}
	}
	resp, err := client.Outcomes(ctx, sub.SweepID, true)
	if err != nil {
		return nil, err
	}
	points := make([]sweepPoint, len(resp.Outcomes))
	for i := range resp.Outcomes {
		res, err := resp.Outcomes[i].Result()
		if err != nil {
			return nil, err
		}
		if points[i], err = point(res, singles); err != nil {
			return nil, err
		}
	}
	return points, nil
}
