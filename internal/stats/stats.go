// Package stats provides the lightweight statistics primitives the simulator
// records results with: counters, running means, latency samplers with
// histograms, and per-core breakdowns.
//
// The hot path (one update per simulated event) must not allocate, so every
// type here is plain-struct based and updated in place.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta (which must be non-negative) to the counter.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Running accumulates a stream of float64 samples and reports mean, variance
// (Welford's algorithm, numerically stable), min and max.
type Running struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Observe adds one sample.
func (r *Running) Observe(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples observed.
func (r *Running) N() uint64 { return r.n }

// Mean returns the sample mean, or 0 with no samples.
func (r *Running) Mean() float64 { return r.mean }

// Min returns the smallest sample, or 0 with no samples.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample, or 0 with no samples.
func (r *Running) Max() float64 { return r.max }

// Variance returns the unbiased sample variance, or 0 with <2 samples.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Reset discards all samples.
func (r *Running) Reset() { *r = Running{} }

// Merge folds other into r as if all of other's samples had been observed
// by r (parallel-merge form of Welford).
func (r *Running) Merge(other *Running) {
	if other.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *other
		return
	}
	n := r.n + other.n
	d := other.mean - r.mean
	r.m2 += other.m2 + d*d*float64(r.n)*float64(other.n)/float64(n)
	r.mean += d * float64(other.n) / float64(n)
	if other.min < r.min {
		r.min = other.min
	}
	if other.max > r.max {
		r.max = other.max
	}
	r.n = n
}

// Histogram is a fixed-bucket latency histogram with power-of-two bucket
// boundaries: bucket i holds samples in [2^i, 2^(i+1)), bucket 0 holds [0,2).
type Histogram struct {
	buckets [40]uint64
	run     Running
}

// Observe records one non-negative sample.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := 0
	for x := v; x >= 2 && b < len(h.buckets)-1; x >>= 1 {
		b++
	}
	h.buckets[b]++
	h.run.Observe(float64(v))
}

// N returns the number of samples.
func (h *Histogram) N() uint64 { return h.run.N() }

// Mean returns the mean sample value.
func (h *Histogram) Mean() float64 { return h.run.Mean() }

// Max returns the largest sample value.
func (h *Histogram) Max() float64 { return h.run.Max() }

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) computed
// from the bucket boundaries. With power-of-two buckets the bound is within
// 2x of the true value, which is enough for tail-latency reporting.
func (h *Histogram) Quantile(q float64) int64 {
	if h.run.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.run.n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return int64(1) << uint(i+1) // exclusive upper bound of bucket i
		}
	}
	return int64(1) << uint(len(h.buckets))
}

// String renders the non-empty buckets, for debugging.
func (h *Histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d mean=%.1f", h.N(), h.Mean())
	for i, c := range h.buckets {
		if c > 0 {
			fmt.Fprintf(&sb, " [%d,%d):%d", int64(1)<<uint(i)&^1, int64(1)<<uint(i+1), c)
		}
	}
	return sb.String()
}

// Set is a named collection of counters used for ad-hoc instrumentation and
// reporting. Lookup allocates only on first use of a name.
type Set struct {
	counters map[string]*Counter
}

// NewSet returns an empty counter set.
func NewSet() *Set { return &Set{counters: make(map[string]*Counter)} }

// Counter returns the counter with the given name, creating it if needed.
func (s *Set) Counter(name string) *Counter {
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Names returns the sorted names of all counters in the set.
func (s *Set) Names() []string {
	names := make([]string, 0, len(s.counters))
	for n := range s.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns a copy of all counter values keyed by name.
func (s *Set) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(s.counters))
	for n, c := range s.counters {
		out[n] = c.Value()
	}
	return out
}
