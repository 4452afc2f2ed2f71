// Command tracegen records, inspects, and replays instruction traces.
//
// The simulator normally drives cores with live synthetic generators;
// tracegen freezes a generator's output into the compact binary trace format
// of internal/trace, so slices can be archived, diffed across versions, or
// replayed bit-exactly.
//
// Usage:
//
//	tracegen -app swim -n 1000000 -o swim.trace       # record
//	tracegen -stats swim.trace                        # inspect
//	tracegen -replay swim.trace -policy me-lreq       # simulate from a trace
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"memsched/internal/report"
	"memsched/internal/sim"
	"memsched/internal/trace"
	"memsched/internal/workload"
)

var (
	appFlag    = flag.String("app", "", "application to record (Table 2 name, e.g. swim)")
	nFlag      = flag.Uint64("n", 1_000_000, "instructions to record")
	outFlag    = flag.String("o", "", "output trace file")
	seedFlag   = flag.Uint64("seed", uint64(sim.ProfileSeed), "generator seed")
	statsFlag  = flag.String("stats", "", "trace file to summarize")
	replayFlag = flag.String("replay", "", "trace file to replay on a single core")
	policyFlag = flag.String("policy", "hf-rf", "policy for -replay")
	instrFlag  = flag.Uint64("instr", 200_000, "instructions to simulate for -replay")
)

func main() {
	flag.Parse()
	var err error
	switch {
	case *statsFlag != "":
		err = statsCmd(*statsFlag)
	case *replayFlag != "":
		err = replayCmd(*replayFlag)
	case *appFlag != "" && *outFlag != "":
		err = recordCmd(*appFlag, *outFlag, *nFlag, *seedFlag)
	default:
		err = fmt.Errorf("need -app/-o to record, -stats to inspect, or -replay to simulate")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func recordCmd(appName, out string, n, seed uint64) error {
	app, err := workload.ByName(appName)
	if err != nil {
		return err
	}
	gen, err := trace.NewSynthetic(app.Params, 0, seed)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	var ins trace.Instr
	for i := uint64(0); i < n; i++ {
		gen.Next(&ins)
		if err := w.Write(&ins); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d instructions of %s to %s (%d bytes, %.2f bits/instr)\n",
		n, appName, out, info.Size(), float64(info.Size()*8)/float64(n))
	return nil
}

func statsCmd(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	counts := map[trace.Kind]uint64{}
	deps := uint64(0)
	lines := map[uint64]struct{}{}
	var ins trace.Instr
	for {
		if err := r.Read(&ins); err != nil {
			break
		}
		counts[ins.Kind]++
		if ins.DepOnLoad {
			deps++
		}
		if ins.Kind.IsMem() {
			lines[ins.Line] = struct{}{}
		}
	}
	total := r.Count()
	t := report.NewTable(fmt.Sprintf("%s: %d instructions", path, total), "metric", "value", "share")
	for k := trace.KindInt; k <= trace.KindStore; k++ {
		t.AddRow(k.String(), fmt.Sprint(counts[k]),
			fmt.Sprintf("%.1f%%", 100*float64(counts[k])/float64(total)))
	}
	t.AddRow("load-dependent", fmt.Sprint(deps),
		fmt.Sprintf("%.1f%%", 100*float64(deps)/float64(total)))
	t.AddRow("distinct lines", fmt.Sprint(len(lines)), "")
	return t.WriteText(os.Stdout)
}

func replayCmd(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	looper, err := trace.NewLooper(f)
	if err != nil {
		return err
	}
	// Replay traces carry no app identity; use a neutral profile for
	// metadata (the generator is overridden anyway).
	app, err := workload.ByName("swim")
	if err != nil {
		return err
	}
	app.Name = path
	sys, err := sim.New(sim.Options{
		Policy:     *policyFlag,
		Apps:       []workload.App{app},
		Generators: []trace.Generator{looper},
		Seed:       sim.EvalSeed,
	})
	if err != nil {
		return err
	}
	res, err := sys.RunContext(context.Background(), *instrFlag, 0)
	if err != nil {
		return err
	}
	c := res.Cores[0]
	fmt.Printf("replayed %s under %s: IPC=%.3f read latency=%.0f cycles BW=%.2f GB/s (loop of %d instructions)\n",
		path, res.Policy, c.IPC, c.AvgReadLatency, c.BandwidthGBs, looper.Len())
	return nil
}
