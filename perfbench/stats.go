package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"memsched/internal/sim"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 over 50 samples is the maximum in disguise.
const minTail = 10

// tailStat is one reported percentile: the value, the percentile actually
// reported (lower than the one asked for when the sample is too small) and
// the sample count.
type tailStat struct {
	Value float64
	P     float64
	N     int
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// reports only a percentile with at least minTail samples beyond it: when xs
// is too small for p, it falls back to the highest percentile that has, and
// to the median below 2*minTail+1 samples. xs is sorted in place.
func percentile(xs []float64, p float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{P: p}
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if hi := n - 1 - minTail; idx > hi {
		idx = hi
	}
	if med := (n+1)/2 - 1; idx < med {
		idx = med
	}
	return tailStat{Value: xs[idx], P: float64(idx+1) / float64(n), N: n}
}

// median returns the median of xs (the mean of the middle pair for an even
// count), sorting xs in place; 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// digest hashes the integer statistics of a Result that any change to the
// modelled machine would move: total cycles, per-core retired instructions,
// cycles and memory traffic, the DRAM counters and the per-class latency
// counts. Float fields are left out, since cycle skipping may regroup their
// sums in the last bits.
func digest(r *sim.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(r.TotalCycles))
	put(uint64(len(r.Cores)))
	for _, c := range r.Cores {
		put(c.Retired)
		put(uint64(c.Cycles))
		put(c.MemReads)
		put(c.MemWrites)
	}
	d := r.DRAM
	put(d.Hits)
	put(d.Closed)
	put(d.Conflicts)
	put(uint64(d.BusBusyCycles))
	put(d.Refreshes)
	for _, cl := range r.ClassLat {
		put(uint64(cl.Cores))
		put(cl.Reads)
		put(uint64(cl.P50))
		put(uint64(cl.P95))
		put(uint64(cl.P99))
		put(uint64(cl.P999))
	}
	return h.Sum64()
}
