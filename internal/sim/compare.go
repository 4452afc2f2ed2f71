package sim

import (
	"fmt"
	"reflect"
)

// DiffResults compares two Results field by field and returns a description
// of every divergence (nil means equivalent). Integer, string and boolean
// fields must be identical; float fields may differ by at most floatTol
// relative. SkippedCycles is exempt: it describes how the run loop advanced
// time (naive ticking vs next-event skipping), not the simulated machine, so
// two equivalent runs may legitimately differ there.
//
// This is the acceptance contract of the quiescence-aware run loop: a run
// with cycle skipping must diff clean against the same run with NoCycleSkip
// at floatTol 0, and against the golden fixtures. The fixtures need a float
// tolerance only because they were recorded when per-cycle queue depths and
// read-latency means were averaged with Welford's algorithm, whose means
// differ from today's exact integer ratios in the last bits.
func DiffResults(got, want Result, floatTol float64) []string {
	var diffs []string
	diffValues("", reflect.ValueOf(got), reflect.ValueOf(want), floatTol, &diffs)
	return diffs
}

// resultExemptFields are top-level Result fields DiffResults skips.
var resultExemptFields = map[string]bool{"SkippedCycles": true}

func diffValues(path string, got, want reflect.Value, floatTol float64, diffs *[]string) {
	switch got.Kind() {
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			f := got.Type().Field(i)
			if path == "" && resultExemptFields[f.Name] {
				continue
			}
			diffValues(path+"."+f.Name, got.Field(i), want.Field(i), floatTol, diffs)
		}
	case reflect.Slice, reflect.Array:
		if got.Len() != want.Len() {
			*diffs = append(*diffs, fmt.Sprintf("%s: length %d != %d", path, got.Len(), want.Len()))
			return
		}
		for i := 0; i < got.Len(); i++ {
			diffValues(fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i), floatTol, diffs)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		// Integer kinds are compared via the kind accessors, not Interface(),
		// so comparison reaches unexported fields (stats.LatencyHist counts).
		if g, w := got.Int(), want.Int(); g != w {
			*diffs = append(*diffs, fmt.Sprintf("%s: %d != %d", path, g, w))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if g, w := got.Uint(), want.Uint(); g != w {
			*diffs = append(*diffs, fmt.Sprintf("%s: %d != %d", path, g, w))
		}
	case reflect.Bool:
		if g, w := got.Bool(), want.Bool(); g != w {
			*diffs = append(*diffs, fmt.Sprintf("%s: %v != %v", path, g, w))
		}
	case reflect.String:
		if g, w := got.String(), want.String(); g != w {
			*diffs = append(*diffs, fmt.Sprintf("%s: %q != %q", path, g, w))
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
