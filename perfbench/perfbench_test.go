package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"

	"memsched/internal/sim"
	"memsched/internal/sweepd"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	cases := []struct {
		n     int
		p     float64
		value float64 // the rank reported, 1-based
	}{
		{200, 0.90, 180}, // p90 has 20 beyond it
		{200, 0.99, 190}, // p99 would have 2: falls back to 10 beyond
		{100, 0.90, 90},  // exactly 10 beyond
		{50, 0.90, 40},
		{15, 0.90, 8}, // too few for any tail: the median
		{1, 0.50, 1},
	}
	for _, c := range cases {
		got := percentile(xs(c.n), c.p)
		if got.Value != c.value || got.N != c.n {
			t.Errorf("n=%d p=%.2f: got value %v over %d samples, want %v", c.n, c.p, got.Value, got.N, c.value)
		}
		if beyond := c.n - int(got.Value); c.n >= 2*minTail+1 && beyond < minTail {
			t.Errorf("n=%d p=%.2f: reported a percentile with %d samples beyond it", c.n, c.p, beyond)
		}
	}
	if got := percentile(nil, 0.5); got.N != 0 || got.Value != 0 {
		t.Errorf("empty sample: got %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"memsched/internal/sim.(*System).tick":               "memsched/internal/sim",
		"memsched/internal/sim.(*System).RunContext.func1":   "memsched/internal/sim",
		"runtime.mallocgc":                                   "runtime",
		"net/http.(*conn).serve":                             "net/http",
		"encoding/json.(*encodeState).marshal":               "encoding/json",
		"sync/atomic.(*Pointer[go.shape.struct {}]).Load":    "sync/atomic",
		"internal/runtime/atomic.(*Uint32).Load":             "internal/runtime/atomic",
		"main.(*tracedGen).Next":                             "main",
		"memsched/internal/stats.(*LatencyHist).Observe":     "memsched/internal/stats",
		"memsched/internal/cache.(*Hierarchy).schedule[...]": "memsched/internal/cache",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb []byte

func (b pb) key(field, wire int) pb { return binary.AppendUvarint(b, uint64(field<<3|wire)) }
func (b pb) varint(field int, v uint64) pb {
	return binary.AppendUvarint(b.key(field, 0), v)
}
func (b pb) bytes(field int, p []byte) pb {
	return append(binary.AppendUvarint(b.key(field, 2), uint64(len(p))), p...)
}
func (b pb) packed(field int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(field, p)
}

func TestPackageSelfTimeAggregatesLeafPackages(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"memsched/internal/memctrl.(*Controller).Tick",
		"memsched/internal/sched.(*meLreq).PickIndexed",
		"runtime.mallocgc",
		"memsched/internal/sim.(*System).advance"}
	var prof pb
	for _, s := range strs {
		prof = prof.bytes(profStringTable, []byte(s))
	}
	for id, name := range map[uint64]uint64{1: 5, 2: 6, 3: 7, 4: 8} {
		prof = prof.bytes(profFunction, pb{}.varint(functionID, id).varint(functionName, name))
	}
	line := func(fn uint64) []byte { return pb{}.varint(lineFunctionID, fn) }
	// Location 10: sched's pick inlined into the controller's tick — the
	// first line is the innermost function, so the sample is sched's.
	prof = prof.bytes(profLocation, pb{}.varint(locationID, 10).bytes(locationLine, line(2)).bytes(locationLine, line(1)))
	prof = prof.bytes(profLocation, pb{}.varint(locationID, 11).bytes(locationLine, line(1)))
	prof = prof.bytes(profLocation, pb{}.varint(locationID, 12).bytes(locationLine, line(3)))
	prof = prof.bytes(profLocation, pb{}.varint(locationID, 13).bytes(locationLine, line(4)))
	// Samples: leaf first, then callers; values are {count, nanoseconds}.
	prof = prof.bytes(profSample, pb{}.packed(sampleLocationID, 10, 13).packed(sampleValue, 3, 30_000_000))
	prof = prof.bytes(profSample, pb{}.packed(sampleLocationID, 11, 13).packed(sampleValue, 5, 50_000_000))
	// A single location ID and unpacked values, as the encoder writes short
	// lists.
	prof = prof.bytes(profSample, pb{}.varint(sampleLocationID, 12).varint(sampleValue, 2).varint(sampleValue, 20_000_000))
	prof = prof.bytes(profSample, pb{}.packed(sampleLocationID, 13, 11, 13).packed(sampleValue, 1, 10_000_000))

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()
	got, total, err := packageSelfTime(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"memsched/internal/sched":   30_000_000,
		"memsched/internal/memctrl": 50_000_000,
		"runtime":                   20_000_000,
		"memsched/internal/sim":     10_000_000,
	}
	if !reflect.DeepEqual(got, want) || total != 110_000_000 {
		t.Errorf("got %v (total %d), want %v (total 110000000)", got, total, want)
	}
	if layerOf("memsched/internal/sched") != "sched" || layerOf("internal/runtime/atomic") != "runtime" ||
		layerOf("net/http/internal") != "net_http" || layerOf("os") != "" {
		t.Error("layerOf maps packages to the wrong layers")
	}
}

func TestPackageSelfTimeReadsRuntimeProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for i := 0; i < 50_000_000; i++ {
		x += i % 7
	}
	pprof.StopCPUProfile()
	if _, _, err := packageSelfTime(buf.Bytes()); err != nil {
		t.Fatalf("decoding a runtime/pprof profile (%d): %v", x, err)
	}
	if _, _, err := packageSelfTime(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

// stubResult simulates the service workload's stub job for the default seed.
func stubResult(t *testing.T, tr *tracer) (json.RawMessage, simStat) {
	t.Helper()
	spec := sweepd.JobSpecV1{Mix: "2MEM-1", Policy: "fcfs", Instr: sweepdInstr, Seed: defaultSeed}
	val, st, err := simulate(context.Background(), sweepd.JobV1{Key: "stub", Spec: spec}, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	return val, st
}

func TestDigestCheckCatchesPerturbedResult(t *testing.T) {
	val, _ := stubResult(t, nil)
	var res sim.Result
	if err := json.Unmarshal(val, &res); err != nil {
		t.Fatal(err)
	}
	b := &bench{workload: "sweepd", seed: defaultSeed, seen: map[string]uint64{}}
	if err := b.checkDigest("stub", digest(&res)); err != nil {
		t.Fatalf("unperturbed stub Result: %v", err)
	}
	perturb := map[string]func(r *sim.Result){
		"TotalCycles":       func(r *sim.Result) { r.TotalCycles++ },
		"Cores[1].Retired":  func(r *sim.Result) { r.Cores[1].Retired-- },
		"Cores[0].MemReads": func(r *sim.Result) { r.Cores[0].MemReads++ },
		"DRAM.Conflicts":    func(r *sim.Result) { r.DRAM.Conflicts++ },
		"ClassLat[0].Reads": func(r *sim.Result) { r.ClassLat[0].Reads++ },
	}
	for name, f := range perturb {
		var p sim.Result
		if err := json.Unmarshal(val, &p); err != nil {
			t.Fatal(err)
		}
		f(&p)
		fresh := &bench{workload: "sweepd", seed: defaultSeed, seen: map[string]uint64{}}
		if fresh.checkDigest("stub", digest(&p)) == nil {
			t.Errorf("perturbing %s passed the pinned-digest check", name)
		}
		if b.checkDigest("stub", digest(&p)) == nil {
			t.Errorf("perturbing %s passed the repeat check", name)
		}
		other := &bench{workload: "sweepd", seed: defaultSeed + 1, seen: map[string]uint64{"stub": digest(&res)}}
		if other.checkDigest("stub", digest(&p)) == nil {
			t.Errorf("perturbing %s passed the repeat check on a seed without pins", name)
		}
	}
}

func TestTracedRunIsIdentical(t *testing.T) {
	plain, _ := stubResult(t, nil)
	tr := newTracer()
	traced, st := stubResult(t, tr)
	if !bytes.Equal(plain, traced) {
		t.Fatal("the traced simulation's Result differs from the untraced one")
	}
	if st.picks == 0 || st.instrs == 0 || len(tr.spans) == 0 {
		t.Errorf("traced run counted %d picks and %d instructions in %d spans", st.picks, st.instrs, len(tr.spans))
	}
}

func TestManifestMatchesDeclarations(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with --write-manifest")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestServicePassChecksEveryOutcome(t *testing.T) {
	ctx := context.Background()
	b := &bench{workload: "sweepd", seed: defaultSeed, seen: map[string]uint64{}}
	if _, err := b.setup(ctx, nil, 0); err != nil {
		t.Fatal(err)
	}
	b.plan.rounds = b.plan.rounds[:1]
	b.plan.rounds[0] = b.plan.rounds[0][:4]
	tr := newTracer()
	ps, err := b.runPass(ctx, 0, 2, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	jobs := 2 * 4 * sweepdJobs
	if ps.failed != 0 || ps.freshJobs != jobs || ps.resubmitted != jobs*sweepdCachedReps ||
		ps.cacheHits != ps.resubmitted || ps.attempted != jobs*(1+sweepdCachedReps) {
		t.Errorf("pass: %d/%d failed, %d fresh, %d resubmitted, %d cache hits (%v)",
			ps.failed, ps.attempted, ps.freshJobs, ps.resubmitted, ps.cacheHits, ps.firstFailures)
	}
	if len(ps.sweepMs) != 8 || len(ps.w.claimMs) == 0 || len(tr.spans) == 0 {
		t.Errorf("recorded %d sweeps, %d claims, %d spans", len(ps.sweepMs), len(ps.w.claimMs), len(tr.spans))
	}

	// The checks catch a wrong payload, a missing outcome and a miss on
	// resubmission.
	jobs = len(b.plan.rounds[0][0])
	sweep := b.plan.rounds[0][0]
	outcomes := func(value json.RawMessage, cached bool) sweepd.OutcomesResponseV1 {
		out := sweepd.OutcomesResponseV1{Done: true}
		for _, j := range sweep {
			out.Outcomes = append(out.Outcomes, sweepd.OutcomeV1{ID: j.ID, Key: j.Key, Value: value, CacheHit: cached})
		}
		return out
	}
	fresh := map[string][]byte{}
	var sink passStats
	if n := b.checkFresh(&sink, sweep, outcomes(b.plan.stub, false), fresh); n != 0 {
		t.Errorf("%d of %d correct outcomes failed: %v", n, jobs, sink.firstFailures)
	}
	wrong := outcomes(b.plan.stub, false)
	wrong.Outcomes[3].Value = json.RawMessage(`{}`)
	if n := b.checkFresh(&sink, sweep, wrong, map[string][]byte{}); n != 1 {
		t.Errorf("one wrong payload failed %d jobs", n)
	}
	short := outcomes(b.plan.stub, false)
	short.Outcomes = short.Outcomes[1:]
	if n := b.checkFresh(&sink, sweep, short, map[string][]byte{}); n != jobs {
		t.Errorf("a missing outcome failed %d of %d jobs", n, jobs)
	}
	if n := checkCached(sweep, outcomes(b.plan.stub, true), fresh); n != 0 {
		t.Errorf("%d of %d cache hits failed", n, jobs)
	}
	if n := checkCached(sweep, outcomes(b.plan.stub, false), fresh); n != jobs {
		t.Errorf("%d of %d resubmitted jobs that missed the cache failed", n, jobs)
	}
}
