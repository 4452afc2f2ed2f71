package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json is generated from
// these tables (--write-manifest), and a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the simulator or the sweep service sees,
// measured on untraced passes (--trace 0). Every workload reports all of
// them; see README.md for what each means on each workload. The time
// bounds are the widest allowed: same-seed runs on a shared 2-CPU host
// spread by 5-15%.
var endToEnd = []metricDef{
	{"sim_minstr_per_s", "Minstr/s", "higher", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"cached_jobs_per_s", "1/s", "higher", 0.25},
	{"sweep_ms_p50", "ms", "lower", 0.25},
	{"sweep_ms_p90", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
}

// layerPackages maps the per-layer metric prefix to the Go package whose
// flat CPU-profile samples make up its host_self_frac.
var layerPackages = []struct{ layer, pkg string }{
	{"sim", "memsched/internal/sim"},
	{"memctrl", "memsched/internal/memctrl"},
	{"sched", "memsched/internal/sched"},
	{"dram", "memsched/internal/dram"},
	{"cpu", "memsched/internal/cpu"},
	{"trace", "memsched/internal/trace"},
	{"cache", "memsched/internal/cache"},
	{"stats", "memsched/internal/stats"},
	{"xrand", "memsched/internal/xrand"},
	{"sweepd", "memsched/internal/sweepd"},
	{"runtime", "runtime"},
	{"net_http", "net/http"},
	{"encoding_json", "encoding/json"},
	{"perfbench", "main"},
}

// layerOf names the layer a package's samples count toward ("" for none):
// runtime internals count as runtime, net/http's internals as net_http.
func layerOf(pkg string) string {
	for _, l := range layerPackages {
		if pkg == l.pkg || strings.HasPrefix(pkg, l.pkg+"/") {
			return l.layer
		}
	}
	if strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return ""
}

// perLayer is measured on a traced pass (--trace 1).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.skip_frac", "frac", "lower", 0},
		{"sim.ticked_cycles_per_run", "cycles", "lower", 0},
		{"sim.par_window_frac", "frac", "higher", 0},
		{"sim.par_engaged_frac", "frac", "higher", 0},
		{"sim.host_ns_per_ticked_cycle", "ns", "lower", 0},
		{"memctrl.reads_per_run", "count", "lower", 0},
		{"memctrl.read_q_occ", "count", "lower", 0},
		{"memctrl.queue_delay_cyc", "cycles", "lower", 0},
		{"memctrl.drains_per_run", "count", "lower", 0},
		{"sched.picks_per_run", "count", "lower", 0},
		{"sched.cands_per_pick", "count", "lower", 0},
		{"sched.pick_ns", "ns", "lower", 0},
		{"dram.row_hit_frac", "frac", "higher", 0},
		{"dram.bus_util", "frac", "higher", 0},
		{"cpu.retire_stall_frac", "frac", "lower", 0},
		{"trace.instrs_generated_per_run", "count", "lower", 0},
		{"trace.host_ns_per_instr", "ns", "lower", 0},
		{"cache.l2_mpki", "count", "lower", 0},
		{"runtime.gc_frac", "frac", "lower", 0},
		{"max_rss_mb", "MiB", "lower", 0},
		{"sweepd.submit_ms_p50", "ms", "lower", 0},
		{"sweepd.claim_ms_p50", "ms", "lower", 0},
		{"sweepd.claim_ms_p99", "ms", "lower", 0},
		{"sweepd.complete_ms_p50", "ms", "lower", 0},
		{"sweepd.complete_ms_p99", "ms", "lower", 0},
		{"sweepd.outcomes_wait_ms_p50", "ms", "lower", 0},
		{"sweepd.claims_per_job", "count", "lower", 0},
		{"sweepd.empty_claim_frac", "frac", "lower", 0},
		{"sweepd.cache_hit_frac", "frac", "higher", 0},
		{"sweep_ms.samples", "count", "higher", 0},
		{"trace_overhead_frac", "frac", "lower", 0},
		{"fail_frac", "frac", "lower", 0},
		{"host.gomaxprocs", "count", "higher", 0},
		{"host.num_cpu", "count", "higher", 0},
	}
	for _, l := range layerPackages {
		defs = append(defs, metricDef{l.layer + ".host_self_frac", "frac", "lower", 0})
	}
	return defs
}()

// workloadDef is one entry of BENCHMARK.json's workload list.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"mem8", "Fig. 2 8-core memory-bound mixes: full controller queues, busy DRAM, cycle skipping and parallel windows engage"},
	{"ilp4", "4-core compute-bound mixes: light DRAM traffic, so core, trace and cache costs show and controller changes should not"},
	{"sweepd", "sweep service with a stub worker: isolates HTTP, JSON, shard-lock and cache cost from simulation"},
}

// manifest is the BENCHMARK.json document.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// runSeconds is how long one run measures.
const runSeconds = 20

func buildManifest() manifest {
	per := make([]metricDef, len(perLayer))
	for i, d := range perLayer {
		per[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better}
	}
	return manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   per,
	}
}

func writeManifest(path string) error {
	blob, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// cpuClasses is the runtime's own CPU accounting, in CPU seconds.
type cpuClasses struct{ gc, idle, total float64 }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return cpuClasses{gc: val(0), idle: val(1), total: val(2)}
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
