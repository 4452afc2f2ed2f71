package sim_test

import (
	"context"
	"sync/atomic"
	"testing"

	"memsched/internal/sim"
	"memsched/internal/telemetry"
	"memsched/internal/workload"
)

// TestTelemetrySkipAlignment extends the skip differential property to the
// telemetry layer: for every registered policy at 2, 4 and 8 cores, the epoch
// series sampled under next-event time advance must agree with the naive
// cycle-by-cycle loop exactly, floats included.
// This is the acceptance contract of the epoch-boundary skip clamp: if a skip
// ever jumped past a boundary, the late sample would bin deltas into the
// wrong epoch and the integer series would diverge.
func TestTelemetrySkipAlignment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulation pairs")
	}
	// fix:<order> encodes one priority digit per core, so each core count
	// gets its own spelling.
	fixFor := map[string]string{"2MEM-1": "fix:10", "4MEM-1": "fix:3210", "8MEM-4": "fix:76543210"}
	var totalSkipped atomic.Int64
	for _, mixName := range []string{"2MEM-1", "4MEM-1", "8MEM-4"} {
		for _, pol := range []string{"fcfs", "hf-rf", "rr", "lreq", "me", "me-lreq", "fq", "burst", fixFor[mixName]} {
			mixName, pol := mixName, pol
			t.Run(mixName+"/"+pol, func(t *testing.T) {
				t.Parallel()
				mix, err := workload.MixByName(mixName)
				if err != nil {
					t.Fatal(err)
				}
				run := func(noSkip bool) (*telemetry.Snapshot, sim.Result) {
					var snap *telemetry.Snapshot
					res, err := sim.Run(context.Background(), sim.RunSpec{
						Mix: mix, Policy: pol, Instr: 2_000, Seed: sim.EvalSeed,
						// Strict fixed priority starves the lowest core at 8
						// cores; give headroom beyond the default cycle bound.
						MaxCycles:   2_000_000,
						NoCycleSkip: noSkip,
						Telemetry: &telemetry.Options{
							Epoch: 500, Commands: true,
							Sink: func(s *telemetry.Snapshot) { snap = s },
						},
					})
					if err != nil {
						t.Fatalf("noSkip=%v: %v", noSkip, err)
					}
					return snap, res
				}
				skipSnap, skipRes := run(false)
				naiveSnap, naiveRes := run(true)
				for _, d := range telemetry.DiffSnapshots(skipSnap, naiveSnap, 0) {
					t.Error(d)
				}
				for _, d := range sim.DiffResults(skipRes, naiveRes, 0) {
					t.Error(d)
				}
				totalSkipped.Add(skipRes.SkippedCycles)
			})
		}
	}
	t.Cleanup(func() {
		// The alignment property is vacuous unless skipping engaged with
		// telemetry attached.
		if totalSkipped.Load() == 0 {
			t.Error("no case skipped any cycle; the epoch clamp was never exercised")
		}
	})
}
