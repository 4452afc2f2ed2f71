package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: generators with same seed diverged: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	var all uint64
	for i := 0; i < 16; i++ {
		all |= r.Uint64()
	}
	if all == 0 {
		t.Fatal("zero seed produced all-zero outputs")
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different streams produced %d/100 identical outputs", same)
	}
}

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(9, 3)
	b := NewStream(9, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed, stream) diverged")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 65; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared style sanity check over 8 buckets.
	r := New(11)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d: count %d deviates >5%% from expected %.0f", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / draws
	if mean < 0.49 || mean > 0.51 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(6)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(8)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if rate < 0.29 || rate > 0.31 {
		t.Errorf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(10)
	for _, mean := range []float64{1, 2, 8, 64} {
		sum := 0
		const draws = 50000
		for i := 0; i < draws; i++ {
			v := r.Geometric(mean)
			if v < 1 {
				t.Fatalf("Geometric(%v) = %d < 1", mean, v)
			}
			sum += v
		}
		got := float64(sum) / draws
		if got < mean*0.95-0.1 || got > mean*1.05+0.1 {
			t.Errorf("Geometric(%v) sample mean = %v", mean, got)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(12)
	f := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := make([]int, n)
		r.Perm(p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nAlwaysInRange(t *testing.T) {
	r := New(13)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

// BenchmarkUint64n draws from a small range, as the core's local branch
// targets do.
func BenchmarkUint64n(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64n(17)
	}
	_ = sink
}

func BenchmarkBernoulli(b *testing.B) {
	r := New(1)
	sink := 0
	for i := 0; i < b.N; i++ {
		if r.Bernoulli(0.3) {
			sink++
		}
	}
	_ = sink
}

// floatBernoulli is the draw Hit replaced: the clamps, then a float compare.
func floatBernoulli(r *Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// TestHitMatchesFloatCompare runs Hit(NewProb(p)) and the float compare on
// two copies of one generator: every decision and the final states must
// agree. Besides the edge values and random p, it builds p from the next
// draw itself (x·2^-53 and its two neighbours), where a threshold one off
// would decide differently.
func TestHitMatchesFloatCompare(t *testing.T) {
	ps := []float64{0, 5e-324, 0x1p-53, 0.1, 0.5, 1 - 0x1p-53, math.Nextafter(1, 0), 1, 1.5, -1}
	src := New(77)
	for i := 0; i < 200; i++ {
		ps = append(ps, src.Float64(), float64(src.Uint64n(64))/64)
	}
	for _, p := range ps {
		a, b := New(3), New(3)
		prob := NewProb(p)
		for i := 0; i < 1000; i++ {
			if got, want := a.Hit(prob), floatBernoulli(b, p); got != want {
				t.Fatalf("p=%v draw %d: Hit = %v, float compare %v", p, i, got, want)
			}
		}
		if a.s != b.s {
			t.Fatalf("p=%v: generator states diverged", p)
		}
	}
	a, b := New(4), New(4)
	for i := 0; i < 3000; i++ {
		peek := *a
		x := float64(peek.Uint53()) / (1 << 53)
		p := [3]float64{x, math.Nextafter(x, 0), math.Nextafter(x, 1)}[i%3]
		if got, want := a.Hit(NewProb(p)), floatBernoulli(b, p); got != want {
			t.Fatalf("boundary p=%v (draw %v): Hit = %v, float compare %v", p, x, got, want)
		}
	}
	if a.s != b.s {
		t.Fatal("boundary draws: generator states diverged")
	}
}

// mulUint64n is Uint64n as it was: a hand-rolled 128-bit product and the
// rejection bound computed before the first draw.
func mulUint64n(r *Rand, n uint64) uint64 {
	threshold := (-n) % n
	for {
		x := r.Uint64()
		const mask32 = 1<<32 - 1
		x0, x1 := x&mask32, x>>32
		y0, y1 := n&mask32, n>>32
		w0 := x0 * y0
		tt := x1*y0 + w0>>32
		w1 := tt&mask32 + x0*y1
		hi := x1*y1 + tt>>32 + w1>>32
		if x*n >= threshold {
			return hi
		}
	}
}

func TestUint64nMatchesReference(t *testing.T) {
	src := New(21)
	ns := []uint64{1, 2, 3, 196, 1<<32 + 1, 1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64}
	for i := 0; i < 100; i++ {
		ns = append(ns, src.Uint64()|1<<63, src.Uint64()>>src.Uint64n(64)|1)
	}
	for _, n := range ns {
		a, b := New(9), New(9)
		for i := 0; i < 200; i++ {
			if got, want := a.Uint64n(n), mulUint64n(b, n); got != want {
				t.Fatalf("n=%#x draw %d: Uint64n = %d, reference %d", n, i, got, want)
			}
		}
		if a.s != b.s {
			t.Fatalf("n=%#x: generator states diverged", n)
		}
	}
}
