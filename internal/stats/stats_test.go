package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero value not zero")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset did not zero")
	}
}

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Observe(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	// Population variance of this classic data set is 4; sample variance 32/7.
	if math.Abs(r.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", r.Variance(), 32.0/7.0)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", r.Min(), r.Max())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.StdDev() != 0 || r.N() != 0 {
		t.Fatal("empty Running should report zeros")
	}
}

func TestRunningMergeEquivalent(t *testing.T) {
	// Clamp inputs to a realistic magnitude: simulator samples are cycle
	// counts and rates, and extreme doubles (~1e308) overflow any
	// sum-of-squares formulation including the reference computation.
	clamp := func(xs []float64) []float64 {
		out := make([]float64, 0, len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			out = append(out, math.Mod(x, 1e9))
		}
		return out
	}
	f := func(aRaw, bRaw []float64) bool {
		a, b := clamp(aRaw), clamp(bRaw)
		var whole, left, right Running
		for _, x := range a {
			whole.Observe(x)
			left.Observe(x)
		}
		for _, x := range b {
			whole.Observe(x)
			right.Observe(x)
		}
		left.Merge(&right)
		if whole.N() != left.N() {
			return false
		}
		if whole.N() == 0 {
			return true
		}
		scale := math.Max(1, math.Abs(whole.Mean()))
		if math.Abs(whole.Mean()-left.Mean()) > 1e-9*scale {
			return false
		}
		vscale := math.Max(1, whole.Variance())
		return math.Abs(whole.Variance()-left.Variance()) < 1e-6*vscale &&
			whole.Min() == left.Min() && whole.Max() == left.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(1000)
	if h.N() != 5 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Mean() != (0+1+2+3+1000)/5.0 {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.Max() != 1000 {
		t.Errorf("Max = %v", h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Mean() != 0 {
		t.Errorf("negative sample should clamp to 0, mean = %v", h.Mean())
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	for i := int64(0); i < 1000; i++ {
		h.Observe(i)
	}
	med := h.Quantile(0.5)
	if med < 500 || med > 1024 {
		t.Errorf("median bound %d outside [500, 1024]", med)
	}
	p99 := h.Quantile(0.99)
	if p99 < 990 || p99 > 2048 {
		t.Errorf("p99 bound %d outside [990, 2048]", p99)
	}
	if h.Quantile(0) == 0 && h.N() > 0 {
		t.Error("Quantile(0) with samples should return a bucket bound > 0")
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	for i := int64(1); i < 5000; i += 7 {
		h.Observe(i * i % 4096)
	}
	prev := int64(0)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
		v := h.Quantile(q)
		if v < prev {
			t.Errorf("quantile not monotone: q=%v gives %d < %d", q, v, prev)
		}
		prev = v
	}
}

func TestSet(t *testing.T) {
	s := NewSet()
	s.Counter("b").Inc()
	s.Counter("a").Add(3)
	s.Counter("b").Inc()
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
	snap := s.Snapshot()
	if snap["a"] != 3 || snap["b"] != 2 {
		t.Fatalf("Snapshot = %v", snap)
	}
}

func TestSetSameCounterIdentity(t *testing.T) {
	s := NewSet()
	if s.Counter("x") != s.Counter("x") {
		t.Fatal("Counter should return the same instance per name")
	}
}

func TestRunningReset(t *testing.T) {
	var r Running
	r.Observe(5)
	r.Reset()
	if r.N() != 0 || r.Mean() != 0 || r.Min() != 0 || r.Max() != 0 {
		t.Fatal("Reset left residue")
	}
}

func TestRunningMergeIntoEmpty(t *testing.T) {
	var a, b Running
	b.Observe(3)
	b.Observe(5)
	a.Merge(&b)
	if a.N() != 2 || a.Mean() != 4 {
		t.Fatalf("merge into empty: n=%d mean=%v", a.N(), a.Mean())
	}
	var c Running
	a.Merge(&c) // merging empty is a no-op
	if a.N() != 2 {
		t.Fatal("merging empty changed state")
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	h.Observe(3)
	h.Observe(100)
	s := h.String()
	if !strings.Contains(s, "n=2") {
		t.Fatalf("String() = %q, missing count", s)
	}
}
