package cpu

import (
	"testing"

	"memsched/internal/config"
	"memsched/internal/trace"
)

// fuClass and computeLatency are the switch forms that mapped a kind onto
// its functional-unit pool and latency before the core indexed both by
// Kind.Pool; they are the reference for trace.Kind's encoding.
func fuClass(k trace.Kind) int {
	switch k {
	case trace.KindIntMul:
		return 1
	case trace.KindFP:
		return 2
	case trace.KindFPMul:
		return 3
	default: // KindInt, KindBranch share the integer ALUs
		return 0
	}
}

func computeLatency(cc *config.CoreConfig, k trace.Kind) int64 {
	switch k {
	case trace.KindIntMul:
		return int64(cc.IntMultLat)
	case trace.KindFP:
		return int64(cc.FPALULat)
	case trace.KindFPMul:
		return int64(cc.FPMultLat)
	default: // KindInt, KindBranch
		return int64(cc.IntALULat)
	}
}

// TestKindEncoding pins the kind encoding the per-instruction paths rely on:
// IsMem's one compare against the two memory kinds for every Kind value, and
// for every non-memory kind Pool and the core's latency table against the
// switch forms.
func TestKindEncoding(t *testing.T) {
	for k := 0; k < 256; k++ {
		kind := trace.Kind(k)
		if got, want := kind.IsMem(), kind == trace.KindLoad || kind == trace.KindStore; got != want {
			t.Errorf("Kind(%d).IsMem() = %v, want %v", k, got, want)
		}
	}
	// Table 1's latencies, then distinct primes, so that no two pools share
	// a latency and a wrong index shows.
	for _, lat := range [][4]int{{1, 3, 2, 4}, {5, 7, 11, 13}} {
		r := newRig(t, &scriptGen{script: computeOnly(1)}, func(c *config.Config) {
			c.Core.IntALULat, c.Core.IntMultLat, c.Core.FPALULat, c.Core.FPMultLat = lat[0], lat[1], lat[2], lat[3]
		})
		for kind := trace.KindInt; kind < trace.KindLoad; kind++ {
			if got, want := kind.Pool(), fuClass(kind); got != want {
				t.Errorf("%v: pool %d, want %d", kind, got, want)
			}
			if got, want := r.core.fuLat[kind.Pool()], computeLatency(&r.cfg.Core, kind); got != want {
				t.Errorf("latencies %v, %v: %d cycles, want %d", lat, kind, got, want)
			}
		}
	}
}
