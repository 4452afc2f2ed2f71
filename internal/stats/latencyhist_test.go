package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// exactQuantile returns the rank-ceil(q*n) order statistic of vs (the same
// rank convention LatencyHist.Quantile uses), after clamping negatives the
// way Observe does.
func exactQuantile(vs []int64, q float64) int64 {
	s := make([]int64, len(vs))
	for i, v := range vs {
		if v < 0 {
			v = 0
		}
		s[i] = v
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(float64(len(s)) * q)
	if float64(rank) < float64(len(s))*q {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// bucketWidthAt returns the width of the bucket containing v.
func bucketWidthAt(v int64) int64 {
	lo, hi := latBucketBounds(latBucket(v))
	return hi - lo + 1
}

// latencyStream is a quick.Generator producing random latency streams with a
// mix of scales (quick's default int64 generator is uniform over the full
// range, which never exercises the small exact buckets).
type latencyStream []int64

func (latencyStream) Generate(r *rand.Rand, size int) (out []int64) {
	n := r.Intn(size*20) + 1
	vs := make([]int64, n)
	for i := range vs {
		// Scale spans unit latencies up to ~2^40 cycles.
		scale := uint(r.Intn(40))
		vs[i] = r.Int63n(int64(1)<<scale + 1)
	}
	return vs
}

// TestQuantileWithinOneBucket checks the histogram's quantile contract
// against exact sort-based order statistics: for every stream and every
// reported percentile, the bucketized value is at least the exact quantile
// and exceeds it by less than one bucket width.
func TestQuantileWithinOneBucket(t *testing.T) {
	property := func(stream latencyStream) bool {
		var h LatencyHist
		for _, v := range stream {
			h.Observe(v)
		}
		for _, q := range []float64{0.50, 0.95, 0.99, 0.999} {
			got := h.Quantile(q)
			exact := exactQuantile(stream, q)
			if got < exact || got-exact >= bucketWidthAt(exact) {
				t.Logf("q=%v: hist %d, exact %d (bucket width %d), n=%d",
					q, got, exact, bucketWidthAt(exact), len(stream))
				return false
			}
		}
		return true
	}
	// The generator replaces quick's default []int64 via the named type.
	cfg := &quick.Config{MaxCount: 300, Values: func(args []reflect.Value, r *rand.Rand) {
		args[0] = reflect.ValueOf(latencyStream{}.Generate(r, 50))
	}}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMergeEqualsConcatenation checks that merging shard histograms is
// bitwise identical to one histogram of the concatenated stream — the
// guarantee the parallel replay merge builds on.
func TestMergeEqualsConcatenation(t *testing.T) {
	property := func(a, b, c latencyStream) bool {
		var whole LatencyHist
		for _, s := range [][]int64{a, b, c} {
			for _, v := range s {
				whole.Observe(v)
			}
		}
		var merged LatencyHist
		for _, s := range [][]int64{a, b, c} {
			var shard LatencyHist
			for _, v := range s {
				shard.Observe(v)
			}
			merged.Merge(&shard)
		}
		return merged == whole // struct equality: every count, n, sum, max
	}
	cfg := &quick.Config{MaxCount: 200, Values: func(args []reflect.Value, r *rand.Rand) {
		for i := range args {
			args[i] = reflect.ValueOf(latencyStream{}.Generate(r, 30))
		}
	}}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSubInvertsMerge checks the delta operation telemetry uses: cumulative
// minus an earlier snapshot equals the histogram of the later samples alone
// (counts, n and sum; max stays cumulative by contract).
func TestSubInvertsMerge(t *testing.T) {
	property := func(early, late latencyStream) bool {
		var prev LatencyHist
		for _, v := range early {
			prev.Observe(v)
		}
		cum := prev
		var want LatencyHist
		for _, v := range late {
			cum.Observe(v)
			want.Observe(v)
		}
		delta := cum
		delta.Sub(&prev)
		if delta.n != want.n || delta.sum != want.sum {
			return false
		}
		return delta.counts == want.counts
	}
	cfg := &quick.Config{MaxCount: 200, Values: func(args []reflect.Value, r *rand.Rand) {
		for i := range args {
			args[i] = reflect.ValueOf(latencyStream{}.Generate(r, 30))
		}
	}}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// pow2Hist is the power-of-two read-latency histogram OctaveBound replaced,
// kept as an independent reference: bucket i holds samples in [2^i, 2^(i+1)),
// bucket 0 holds [0, 2) and the last bucket everything from 2^39 up.
type pow2Hist struct {
	buckets [40]uint64
	n       uint64
}

func (h *pow2Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := 0
	for x := v; x >= 2 && b < len(h.buckets)-1; x >>= 1 {
		b++
	}
	h.buckets[b]++
	h.n++
}

// Quantile returns the exclusive upper bound of the bucket holding the
// rank-ceil(q*n) sample.
func (h *pow2Hist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return int64(1) << uint(i+1)
		}
	}
	return int64(1) << uint(len(h.buckets))
}

// octaveEdges are the samples where a power-of-two bound can go wrong: the
// clamp of negatives, the shared range [0, 2), both sides of every power of
// two, the last range's floor 2^39 and the buckets above 2^62, where an
// unclamped shift wraps.
func octaveEdges() []int64 {
	vs := []int64{-5, 0, 1, 2, 3, 1<<39 - 1, 1 << 39, 1 << 40, 1<<62 + 5, math.MaxInt64}
	for k := 2; k < 63; k++ {
		vs = append(vs, int64(1)<<k-1, int64(1)<<k, int64(1)<<k+1)
	}
	return vs
}

// TestOctaveBoundMatchesPow2Reference checks that OctaveBound reports what
// the power-of-two histogram reported for every stream and quantile: each
// LatencyHist bucket lies inside one power-of-two range, so the rank-q
// sample's range, and with it the bound, is the same in both.
func TestOctaveBoundMatchesPow2Reference(t *testing.T) {
	edges := octaveEdges()
	property := func(stream latencyStream, picks []uint8) bool {
		for _, p := range picks {
			stream = append(stream, edges[int(p)%len(edges)])
		}
		var h LatencyHist
		var ref pow2Hist
		for _, v := range stream {
			h.Observe(v)
			ref.Observe(v)
		}
		for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.99, 0.999, 1} {
			if got, want := h.OctaveBound(q), ref.Quantile(q); got != want {
				t.Logf("q=%v: OctaveBound %d, power-of-two reference %d, n=%d", q, got, want, len(stream))
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Values: func(args []reflect.Value, r *rand.Rand) {
		args[0] = reflect.ValueOf(latencyStream{}.Generate(r, 10))
		picks := make([]uint8, r.Intn(2*len(edges)))
		for i := range picks {
			picks[i] = uint8(r.Intn(256))
		}
		args[1] = reflect.ValueOf(picks)
	}}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
	// Each edge alone, so every range's bound is checked at every quantile.
	for _, v := range edges {
		if !property(latencyStream{v}, nil) {
			t.Fatalf("single sample %d", v)
		}
	}
}

// TestLatBucketEdges pins the index function at its boundary values: unit
// buckets, octave boundaries, negatives and the int64 extremes all map to
// in-range buckets whose bounds bracket the value.
func TestLatBucketEdges(t *testing.T) {
	values := []int64{0, 1, latSubBuckets - 1, latSubBuckets, latSubBuckets + 1,
		15, 16, 17, 1023, 1024, 1025, 1<<40 - 1, 1 << 40, 1<<62 - 1, 1 << 62, 1<<63 - 1}
	for _, v := range values {
		b := latBucket(v)
		if b < 0 || b >= LatencyBuckets {
			t.Fatalf("latBucket(%d) = %d out of range [0,%d)", v, b, LatencyBuckets)
		}
		lo, hi := latBucketBounds(b)
		if v < lo || v > hi {
			t.Errorf("latBucket(%d) = %d with bounds [%d,%d] not containing it", v, b, lo, hi)
		}
	}
	// Buckets tile the value axis: each bucket starts where the previous
	// ended, starting at zero.
	next := int64(0)
	for i := 0; i < LatencyBuckets; i++ {
		lo, hi := latBucketBounds(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, want %d", i, lo, next)
		}
		if hi < lo {
			t.Fatalf("bucket %d has inverted bounds [%d,%d]", i, lo, hi)
		}
		next = hi + 1
		if next < 0 { // wrapped past int64 max on the final bucket
			break
		}
	}
}

// TestLatencyHistBasics pins clamping, mean, max and CountAtOrBelow.
func TestLatencyHistBasics(t *testing.T) {
	var h LatencyHist
	if h.Quantile(0.99) != 0 || h.OctaveBound(0.95) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for _, v := range []int64{-5, 0, 3, 7, 100} {
		h.Observe(v)
	}
	if h.N() != 5 {
		t.Fatalf("N = %d, want 5", h.N())
	}
	if want := float64(0+0+3+7+100) / 5; h.Mean() != want {
		t.Fatalf("Mean = %v, want %v", h.Mean(), want)
	}
	if h.Max() != 100 {
		t.Fatalf("Max = %d, want 100", h.Max())
	}
	if got := h.CountAtOrBelow(7); got != 4 {
		t.Fatalf("CountAtOrBelow(7) = %d, want 4 (unit buckets are exact)", got)
	}
	if got := h.CountAtOrBelow(-1); got != 0 {
		t.Fatalf("CountAtOrBelow(-1) = %d, want 0", got)
	}
	if got := h.CountAtOrBelow(1 << 50); got != 5 {
		t.Fatalf("CountAtOrBelow(big) = %d, want 5", got)
	}
	h.Reset()
	if h != (LatencyHist{}) {
		t.Fatal("Reset must zero the histogram")
	}
}

func TestLatencyHistJSONRoundTrip(t *testing.T) {
	var h LatencyHist
	for _, v := range []int64{0, 1, 7, 8, 100, 431, 5000, 1 << 40} {
		h.Observe(v)
	}
	blob, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back LatencyHist
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("round trip changed the histogram:\n%s", blob)
	}
	// Canonical: equal histograms marshal to equal bytes.
	blob2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatalf("encoding not canonical:\n%s\n%s", blob, blob2)
	}
	// Empty histograms stay tiny and round-trip too.
	var empty, emptyBack LatencyHist
	blob, err = json.Marshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &emptyBack); err != nil {
		t.Fatal(err)
	}
	if emptyBack != empty {
		t.Fatalf("empty round trip changed the histogram: %s", blob)
	}
}

func TestLatencyHistJSONRejectsCorruption(t *testing.T) {
	for name, blob := range map[string]string{
		"bad key":        `{"n":1,"sum":5,"max":5,"counts":{"x":1}}`,
		"key range":      `{"n":1,"sum":5,"max":5,"counts":{"9999":1}}`,
		"count mismatch": `{"n":2,"sum":5,"max":5,"counts":{"5":1}}`,
		// Two spellings of bucket 1 would overwrite each other.
		"leading zero": `{"n":2,"sum":2,"max":1,"counts":{"1":1,"01":1}}`,
		"plus sign":    `{"n":2,"sum":2,"max":1,"counts":{"1":1,"+1":1}}`,
		// Bucket counts whose total wraps around to n.
		"overflow": `{"n":0,"sum":0,"max":2,"counts":{"1":18446744073709551615,"2":1}}`,
	} {
		var h LatencyHist
		if err := json.Unmarshal([]byte(blob), &h); err == nil {
			t.Errorf("%s: corrupted payload unmarshalled cleanly", name)
		}
	}
}
