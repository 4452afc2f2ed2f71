package xrand

import (
	"math"
	"slices"
	"testing"
)

// The vectors below are known answers recorded from the reference
// implementation. Every simulated stream is a function of these outputs, so
// a restatement of the xoshiro step, of the seeding or of the rejection loop
// in Uint64n must reproduce them exactly.

func TestKnownAnswerUint64(t *testing.T) {
	cases := []struct {
		name string
		r    *Rand
		want [16]uint64
	}{
		{"New(0)", New(0), [16]uint64{
			0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c,
			0xbba5ad4a1f842e59, 0xffef8375d9ebcaca, 0x6c160deed2f54c98, 0x8920ad648fc30a3f,
			0xdb032c0ba7539731, 0xeb3a475a3e749a3d, 0x1d42993fa43f2a54, 0x11361bf526a14bb5,
			0x1b4f07a5ab3d8e9c, 0xa7a3257f6986db7f, 0x7efdaa95605dfc9c, 0x4bde97c0a78eaab8,
		}},
		{"New(42)", New(42), [16]uint64{
			0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1,
			0xfde6dc7fe2ec5e64, 0xc50da53101795238, 0xb82154855a65ddb2, 0xd99a2743ebe60087,
			0xc2e96e726e97647e, 0x9556615f775fbc3d, 0xaeb53b340c103971, 0x4a69db9873af8965,
			0xcd0feda93006c6b6, 0x52480865a4b42742, 0xb60dec3bf2d887cd, 0xe0b55a68b96677fa,
		}},
		{"NewStream(7, 3)", NewStream(7, 3), [16]uint64{
			0xd2edc21833b6c4b0, 0xb0b9eac947a6711b, 0x9bef5a7536b0d42e, 0xdf5c0e29ef15b2e0,
			0xace2d66e9fe7d654, 0xd80e349e88407869, 0x8d89c8b9863fcf25, 0x69e5b482162090f6,
			0xc04ae7d7c0b56066, 0xecd80068fa7f6983, 0x4365ed81b4157683, 0x9464fb1b9902494a,
			0x762e9d732058c1cf, 0x91db7caf79f2021c, 0x761f85c0fcfef1d9, 0xe5f10060ff2464ba,
		}},
	}
	for _, c := range cases {
		for i, want := range c.want {
			if got := c.r.Uint64(); got != want {
				t.Fatalf("%s output %d = %#016x, want %#016x", c.name, i, got, want)
			}
		}
	}
}

// TestKnownAnswerUint64n draws eight values from New(99) for each n and then
// one raw output, which pins how many draws the rejection loop consumed: it
// rejects about half of all draws at n = 2^63+1.
func TestKnownAnswerUint64n(t *testing.T) {
	cases := []struct {
		n    uint64
		want []uint64
		next uint64
	}{
		{1, []uint64{0, 0, 0, 0, 0, 0, 0, 0}, 0xd897f5e35c6c817f},
		{3, []uint64{1, 1, 1, 2, 2, 0, 0, 0}, 0xd897f5e35c6c817f},
		{196, []uint64{68, 110, 74, 167, 154, 40, 54, 11}, 0xd897f5e35c6c817f},
		{1<<32 + 1, []uint64{1497671659, 2422361661, 1624419168, 3674894374, 3375637904, 883894260, 1193441209, 251913605}, 0xd897f5e35c6c817f},
		{1<<63 + 1, []uint64{5201982056957756223, 3488413601132251873, 7891775575146150638, 7249127200051109770, 540980347878876440, 1159143367516635602, 3649541803192224812, 4745153961893789348}, 0x323b2248c124a6d4},
		{math.MaxUint64, []uint64{6432450796990294707, 10403964113915512445, 6976827202264503746, 15783551150292301275, 14498254400102219539, 3796296939145303647, 5125790964700677403, 1081960695757752880}, 0xd897f5e35c6c817f},
	}
	for _, c := range cases {
		r := New(99)
		got := make([]uint64, len(c.want))
		for i := range got {
			got[i] = r.Uint64n(c.n)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("Uint64n(%#x) = %v, want %v", c.n, got, c.want)
		}
		if next := r.Uint64(); next != c.next {
			t.Errorf("Uint64n(%#x): next raw output %#016x, want %#016x", c.n, next, c.next)
		}
	}
}

func TestKnownAnswerDerived(t *testing.T) {
	r := New(5)
	var intn []int
	for _, n := range []int{1, 2, 7, 100, 1 << 40} {
		intn = append(intn, r.Intn(n))
	}
	if want := []int{0, 1, 4, 82, 568132956575}; !slices.Equal(intn, want) {
		t.Errorf("Intn = %v, want %v", intn, want)
	}

	r = New(6)
	for i, want := range []uint64{0x3fe88b85413644de, 0x3fee133707186f73, 0x3fec1f574d5534b5,
		0x3fc2209c2a703b78, 0x3fc821d4a8e5ad28, 0x3fa73fd34de872a0} {
		if got := math.Float64bits(r.Float64()); got != want {
			t.Errorf("Float64 %d = %#x, want %#x", i, got, want)
		}
	}

	r = New(7)
	var geo []int
	for i := 0; i < 12; i++ {
		geo = append(geo, r.Geometric(4))
	}
	if want := []int{5, 2, 7, 14, 17, 8, 1, 1, 2, 1, 3, 5}; !slices.Equal(geo, want) {
		t.Errorf("Geometric(4) = %v, want %v", geo, want)
	}

	r = New(8)
	perm := make([]int, 10)
	r.Perm(perm)
	if want := []int{0, 9, 3, 7, 1, 2, 6, 4, 5, 8}; !slices.Equal(perm, want) {
		t.Errorf("Perm(10) = %v, want %v", perm, want)
	}
	if next, want := r.Uint64(), uint64(0xd727bc8cc008f439); next != want {
		t.Errorf("after Perm(10): next raw output %#016x, want %#016x", next, want)
	}
}
