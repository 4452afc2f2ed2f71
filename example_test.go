package memsched_test

import (
	"context"
	"fmt"
	"log"

	"memsched"
)

// ExampleMixByName shows catalog lookups: Table 3 workloads resolve to the
// Table 2 applications they schedule.
func ExampleMixByName() {
	mix, err := memsched.MixByName("4MEM-1")
	if err != nil {
		log.Fatal(err)
	}
	apps, err := mix.Apps()
	if err != nil {
		log.Fatal(err)
	}
	for i, a := range apps {
		fmt.Printf("core %d: %s (%v, paper ME %.0f)\n", i, a.Name, a.Class, a.PaperME)
	}
	// Output:
	// core 0: wupwise (MEM, paper ME 15)
	// core 1: swim (MEM, paper ME 2)
	// core 2: mgrid (MEM, paper ME 4)
	// core 3: applu (MEM, paper ME 1)
}

// ExampleAppByCode resolves a Table 2 code letter.
func ExampleAppByCode() {
	app, err := memsched.AppByCode('k')
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(app.Name, app.Class)
	// Output:
	// mcf MEM
}

// ExampleSMTSpeedup computes the paper's throughput metric.
func ExampleSMTSpeedup() {
	multi := []float64{0.5, 1.0}  // IPCs under sharing
	single := []float64{1.0, 2.0} // IPCs alone
	sp, err := memsched.SMTSpeedup(multi, single)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.1f\n", sp)
	// Output:
	// 1.0
}

// ExampleUnfairness computes max slowdown over min slowdown.
func ExampleUnfairness() {
	multi := []float64{0.5, 2.0}
	single := []float64{1.0, 2.0}
	u, err := memsched.Unfairness(multi, single)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.1f\n", u)
	// Output:
	// 2.0
}

// ExampleRun runs a workload under the paper's scheduler via the
// context-aware RunSpec API. The context makes the simulation cancellable
// mid-run (hook it to signal.NotifyContext in a real tool). Output depends
// on the simulator model, so this example is compiled but not verified.
func ExampleRun() {
	mix, err := memsched.MixByName("2MEM-1")
	if err != nil {
		log.Fatal(err)
	}
	res, err := memsched.Run(context.Background(), memsched.RunSpec{
		Mix:    mix,
		Policy: "me-lreq",
		Instr:  50_000,
		Seed:   memsched.EvalSeed,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range res.Cores {
		fmt.Printf("%s: IPC %.3f, %d DRAM reads\n", c.App, c.IPC, c.MemReads)
	}
}

// ExampleProfileAppContext measures memory efficiency (Equation 1).
func ExampleProfileAppContext() {
	app, err := memsched.AppByName("swim")
	if err != nil {
		log.Fatal(err)
	}
	p, err := memsched.ProfileAppContext(context.Background(), app, 50_000, memsched.ProfileSeed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IPC=%.2f BW=%.1f GB/s ME=%.3f\n", p.IPC, p.BWGBs, p.ME)
}

// ExampleNewSystem builds a machine explicitly, with a custom configuration.
func ExampleNewSystem() {
	apps := []memsched.App{}
	for _, name := range []string{"mcf", "gzip"} {
		a, err := memsched.AppByName(name)
		if err != nil {
			log.Fatal(err)
		}
		apps = append(apps, a)
	}
	cfg := memsched.DefaultConfig(len(apps))
	cfg.Memory.Channels = 1 // halve the memory system
	sys, err := memsched.NewSystem(memsched.Options{
		Config: &cfg,
		Policy: "lreq",
		Apps:   apps,
		Seed:   memsched.EvalSeed,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.RunContext(context.Background(), 50_000, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("finished in %d cycles\n", res.TotalCycles)
}
