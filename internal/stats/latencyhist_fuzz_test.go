package stats_test

import (
	"context"
	"encoding/json"
	"testing"

	"memsched/internal/sim"
	"memsched/internal/stats"
	"memsched/internal/workload"
)

// FuzzLatencyHistJSON checks that decoding never yields a histogram its own
// encoding cannot reproduce: whatever decodes must re-encode to bytes that
// decode to an equal histogram.
func FuzzLatencyHistJSON(f *testing.F) {
	for _, seed := range []string{
		`{"n":0,"sum":0,"max":0}`,
		`{"n":2,"sum":2,"max":1,"counts":{"1":1,"01":1}}`,
		`{"n":2,"sum":2,"max":1,"counts":{"1":1,"+1":1}}`,
		`{"n":0,"sum":0,"max":2,"counts":{"1":18446744073709551615,"2":1}}`,
	} {
		f.Add([]byte(seed))
	}
	// A real per-class histogram from a short classed run.
	mix, err := workload.MixByName("2MEM-1")
	if err != nil {
		f.Fatal(err)
	}
	classes, err := workload.ParseServiceClasses("LB", 2)
	if err != nil {
		f.Fatal(err)
	}
	res, err := sim.Run(context.Background(), sim.RunSpec{Mix: mix, Policy: "dash",
		Classes: classes, Instr: 5000, Seed: sim.EvalSeed})
	if err != nil {
		f.Fatal(err)
	}
	for _, cl := range res.ClassLat {
		blob, err := json.Marshal(cl.Hist)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var h stats.LatencyHist
		if json.Unmarshal(data, &h) != nil {
			return
		}
		blob, err := json.Marshal(h)
		if err != nil {
			t.Fatalf("re-encoding %s: %v", data, err)
		}
		var back stats.LatencyHist
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("%s decoded, but its re-encoding %s does not: %v", data, blob, err)
		}
		if back != h {
			t.Fatalf("%s decoded to a histogram its re-encoding %s does not reproduce", data, blob)
		}
	})
}
