// Command memsched runs one workload under one scheduling policy and prints
// detailed statistics. It is the interactive front end to the library; use
// cmd/experiments to regenerate the paper's tables and figures.
//
// Usage:
//
//	memsched -mix 4MEM-1 -policy me-lreq -instr 200000
//	memsched -apps swim,mcf,gzip,eon -policy lreq
//	memsched -mix 4MEM-1 -policy me-lreq -profile     # profile first (Eq. 1)
//	memsched -list                                     # show apps and mixes
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"memsched/internal/metrics"
	"memsched/internal/report"
	"memsched/internal/sched"
	"memsched/internal/sim"
	"memsched/internal/workload"
)

var (
	mixFlag     = flag.String("mix", "", "Table 3 workload name (e.g. 4MEM-1)")
	appsFlag    = flag.String("apps", "", "comma-separated application names (alternative to -mix)")
	policyFlag  = flag.String("policy", "me-lreq", "scheduling policy ("+strings.Join(sched.Names(), "|")+")")
	instrFlag   = flag.Uint64("instr", 200_000, "instructions per core")
	seedFlag    = flag.Uint64("seed", sim.EvalSeed, "simulation seed")
	profileFlag = flag.Bool("profile", false, "run single-core profiling to obtain ME values (otherwise Table 2 values are used)")
	onlineFlag  = flag.Bool("online", false, "estimate ME online instead of loading it up front")
	listFlag    = flag.Bool("list", false, "list applications, mixes and policies, then exit")
	jsonFlag    = flag.Bool("json", false, "emit the result as JSON instead of tables")
	appFileFlag = flag.String("appfile", "", "JSON file of custom application profiles to run (see workload.LoadApps)")
	traceFlag   = flag.Int("trace", 0, "print the last N scheduling decisions after the run")
	classFlag   = flag.String("class", "", "serving class per core, one letter each: L=latency-critical, B=best-effort (e.g. LBBB)")
)

func main() {
	flag.Parse()
	if *listFlag {
		list()
		return
	}
	apps, label, err := selectApps()
	if err != nil {
		fatal(err)
	}

	var mes []float64
	if *profileFlag {
		fmt.Fprintf(os.Stderr, "profiling %d applications (%d instructions each)...\n", len(apps), *instrFlag)
		_, mes, err = sim.ProfileAllContext(context.Background(), apps, *instrFlag, sim.ProfileSeed)
		if err != nil {
			fatal(err)
		}
	}

	classes, err := workload.ParseServiceClasses(*classFlag, len(apps))
	if err != nil {
		fatal(err)
	}

	sys, err := sim.New(sim.Options{
		Policy:   *policyFlag,
		Apps:     apps,
		ME:       mes,
		Seed:     *seedFlag,
		OnlineME: *onlineFlag,
		Classes:  classes,
	})
	if err != nil {
		fatal(err)
	}
	if *traceFlag > 0 {
		sys.Controller().EnableDecisionTrace(*traceFlag)
	}
	res, err := sys.RunContext(context.Background(), *instrFlag, 0)
	if err != nil {
		fatal(err)
	}
	if *traceFlag > 0 {
		fmt.Printf("last %d scheduling decisions:\n", *traceFlag)
		if err := sys.Controller().DumpDecisions(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *jsonFlag {
		printJSON(label, res, mes)
		return
	}
	printResult(label, apps, res, mes)
}

// printJSON emits a machine-readable result record.
func printJSON(label string, res sim.Result, mes []float64) {
	record := struct {
		Workload string     `json:"workload"`
		ME       []float64  `json:"memoryEfficiency,omitempty"`
		Result   sim.Result `json:"result"`
	}{Workload: label, ME: mes, Result: res}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(record); err != nil {
		fatal(err)
	}
}

func selectApps() ([]workload.App, string, error) {
	switch {
	case *appFileFlag != "":
		if *mixFlag != "" || *appsFlag != "" {
			return nil, "", fmt.Errorf("-appfile cannot be combined with -mix/-apps")
		}
		f, err := os.Open(*appFileFlag)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		apps, err := workload.LoadApps(f)
		return apps, *appFileFlag, err
	case *mixFlag != "" && *appsFlag != "":
		return nil, "", fmt.Errorf("give either -mix or -apps, not both")
	case *mixFlag != "":
		mix, err := workload.MixByName(*mixFlag)
		if err != nil {
			return nil, "", err
		}
		apps, err := mix.Apps()
		return apps, mix.Name, err
	case *appsFlag != "":
		var apps []workload.App
		for _, name := range strings.Split(*appsFlag, ",") {
			a, err := workload.ByName(strings.TrimSpace(name))
			if err != nil {
				return nil, "", err
			}
			apps = append(apps, a)
		}
		return apps, *appsFlag, nil
	default:
		return nil, "", fmt.Errorf("-mix, -apps or -appfile is required (try -list)")
	}
}

func printResult(label string, apps []workload.App, res sim.Result, mes []float64) {
	fmt.Printf("workload %s under %s: %d cycles, avg read latency %.0f cycles, %d write-drain episodes\n",
		label, res.Policy, res.TotalCycles, res.AvgReadLatency, res.Drains)
	d := res.DRAM
	fmt.Printf("DRAM: %d accesses, %.1f%% row hits, %.1f%% closed, %.1f%% conflicts\n",
		d.Accesses(),
		100*float64(d.Hits)/nz(d.Accesses()),
		100*float64(d.Closed)/nz(d.Accesses()),
		100*float64(d.Conflicts)/nz(d.Accesses()))
	fmt.Printf("bus utilization %.1f%%, mean queue depth %.1f reads / %.1f writes\n",
		100*res.BusUtilization, res.ReadQueueOcc, res.WriteQueueOcc)
	fmt.Printf("DRAM energy: %.0f uJ total (%.0f%% background), avg %.0f mW, %.1f pJ/bit dynamic\n",
		res.Energy.TotalNJ/1000,
		100*res.Energy.BackgroundNJ/nzf(res.Energy.TotalNJ),
		res.Energy.AvgPowerMW, res.Energy.EnergyPerBitPJ)

	t := report.NewTable("", "core", "app", "class", "svc", "IPC", "read lat", "p95 lat", "p99 lat", "BW GB/s", "L2 MPKI", "mem rd", "mem wr")
	for i, c := range res.Cores {
		t.AddRow(fmt.Sprint(i), c.App, c.Class.String(), c.Service.String(),
			fmt.Sprintf("%.3f", c.IPC),
			fmt.Sprintf("%.0f", c.AvgReadLatency),
			fmt.Sprintf("<%d", c.P95ReadLatency),
			fmt.Sprintf("<%d", c.ReadLatencyP99),
			fmt.Sprintf("%.2f", c.BandwidthGBs),
			fmt.Sprintf("%.1f", c.L2MissesPerKI),
			fmt.Sprint(c.MemReads), fmt.Sprint(c.MemWrites))
	}
	if err := t.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
	// The per-class tail breakdown only means something once at least one
	// core is latency-critical; a classless run is all best-effort.
	if res.ClassLat[workload.LC].Cores > 0 {
		for _, cl := range res.ClassLat {
			if cl.Cores == 0 {
				continue
			}
			fmt.Printf("%s (%d cores): %d reads, mean %.0f, p50 %d, p95 %d, p99 %d, p99.9 %d cycles\n",
				cl.Class, cl.Cores, cl.Reads, cl.MeanReadLatency, cl.P50, cl.P95, cl.P99, cl.P999)
		}
	}
	fmt.Printf("aggregate IPC: %.3f\n", sumIPC(res))
	// With profiled ME values in hand, also report the SMT-speedup metric
	// using fresh single-core reference runs.
	if mes == nil {
		return
	}
	singles := make([]float64, len(apps))
	for i, a := range apps {
		p, err := sim.ProfileAppContext(context.Background(), a, res.Cores[i].Retired, *seedFlag)
		if err != nil {
			fatal(err)
		}
		singles[i] = p.IPC
	}
	sp, err := metrics.SMTSpeedup(ipcs(res), singles)
	if err != nil {
		fatal(err)
	}
	u, err := metrics.Unfairness(ipcs(res), singles)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("SMT speedup: %.3f of %d   unfairness: %.3f\n", sp, len(apps), u)
}

func ipcs(res sim.Result) []float64 {
	out := make([]float64, len(res.Cores))
	for i, c := range res.Cores {
		out[i] = c.IPC
	}
	return out
}

func sumIPC(res sim.Result) float64 {
	s := 0.0
	for _, c := range res.Cores {
		s += c.IPC
	}
	return s
}

func nzf(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

func nz(v uint64) float64 {
	if v == 0 {
		return 1
	}
	return float64(v)
}

func list() {
	t := report.NewTable("Applications (Table 2)", "name", "code", "class", "paper ME")
	for _, a := range workload.Apps() {
		t.AddRow(a.Name, string(a.Code), a.Class.String(), fmt.Sprintf("%.0f", a.PaperME))
	}
	t.WriteText(os.Stdout)
	fmt.Println()
	m := report.NewTable("Workload mixes (Table 3)", "name", "codes")
	for _, mix := range workload.Mixes() {
		m.AddRow(mix.Name, mix.Codes)
	}
	m.WriteText(os.Stdout)
	fmt.Println()
	fmt.Println("policies: " + strings.Join(sched.Names(), ", ") + " (e.g. fix:3210)")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memsched:", err)
	os.Exit(1)
}
