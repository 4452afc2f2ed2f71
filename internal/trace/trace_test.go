package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func validParams() Params {
	return Params{
		LoadFrac: 0.25, StoreFrac: 0.10, BranchFrac: 0.15,
		FPFrac: 0.5, MulFrac: 0.2,
		StreamFrac: 0.6, RandomFrac: 0.2,
		WordsPerLine: 8, RunLenLines: 64,
		FootprintLines: 1 << 20, HotLines: 256,
		DepProb: 0.3,
	}
}

func TestParamsValidate(t *testing.T) {
	p0 := validParams()
	if err := p0.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.LoadFrac = -0.1 },
		func(p *Params) { p.LoadFrac = 0.6; p.StoreFrac = 0.5 },
		func(p *Params) { p.StreamFrac = 0.8; p.RandomFrac = 0.3 },
		func(p *Params) { p.WordsPerLine = 0 },
		func(p *Params) { p.RunLenLines = 0 },
		func(p *Params) { p.FootprintLines = 0 },
		func(p *Params) { p.HotLines = 0 },
		func(p *Params) { p.DepProb = 1.5 },
		// Non-finite values pass every range compare, and the generator
		// would convert them to integers.
		func(p *Params) { p.LoadFrac = math.NaN() },
		func(p *Params) { p.TakenProb = math.NaN() },
		func(p *Params) { p.RunLenLines = math.Inf(1) },
		func(p *Params) { p.PhaseInstr, p.PhaseGain = 1000, math.Inf(1) },
		// A phase period that truncates to 0 or overflows int.
		func(p *Params) { p.PhaseInstr, p.PhaseHotFrac, p.PhaseGain = 0.5, 0.1, 2 },
		func(p *Params) { p.PhaseInstr, p.PhaseHotFrac, p.PhaseGain = 1e300, 0.1, 2 },
	}
	for i, mut := range mutations {
		p := validParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDeterministicStream(t *testing.T) {
	a, err := NewSynthetic(validParams(), 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewSynthetic(validParams(), 0, 42)
	var x, y Instr
	for i := 0; i < 10000; i++ {
		a.Next(&x)
		b.Next(&y)
		if x != y {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, x, y)
		}
	}
}

func TestSeedsProduceDifferentStreams(t *testing.T) {
	a, _ := NewSynthetic(validParams(), 0, 1)
	b, _ := NewSynthetic(validParams(), 0, 2)
	var x, y Instr
	same := 0
	for i := 0; i < 1000; i++ {
		a.Next(&x)
		b.Next(&y)
		if x == y {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different seeds nearly identical: %d/1000 equal", same)
	}
}

func TestInstructionMixMatchesParams(t *testing.T) {
	p := validParams()
	g, _ := NewSynthetic(p, 0, 7)
	const n = 200000
	counts := map[Kind]int{}
	var ins Instr
	for i := 0; i < n; i++ {
		g.Next(&ins)
		counts[ins.Kind]++
	}
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"loads", float64(counts[KindLoad]) / n, p.LoadFrac},
		{"stores", float64(counts[KindStore]) / n, p.StoreFrac},
		{"branches", float64(counts[KindBranch]) / n, p.BranchFrac},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 0.01 {
			t.Errorf("%s fraction = %.3f, want %.3f", c.name, c.got, c.want)
		}
	}
}

func TestAddressesStayInRegion(t *testing.T) {
	p := validParams()
	const base = 1 << 40
	g, _ := NewSynthetic(p, base, 3)
	var ins Instr
	for i := 0; i < 100000; i++ {
		g.Next(&ins)
		if !ins.Kind.IsMem() {
			continue
		}
		if ins.Line < base || ins.Line >= base+p.RegionLines() {
			t.Fatalf("address %#x outside region [%#x, %#x)", ins.Line, base, base+p.RegionLines())
		}
	}
}

func TestStreamingHasSpatialLocality(t *testing.T) {
	p := validParams()
	p.StreamFrac, p.RandomFrac = 1.0, 0.0 // pure streaming
	g, _ := NewSynthetic(p, 0, 5)
	var ins Instr
	var last uint64
	sequential, memAccesses := 0, 0
	for i := 0; i < 100000; i++ {
		g.Next(&ins)
		if !ins.Kind.IsMem() {
			continue
		}
		memAccesses++
		if ins.Line == last || ins.Line == last+1 {
			sequential++
		}
		last = ins.Line
	}
	rate := float64(sequential) / float64(memAccesses)
	if rate < 0.95 {
		t.Fatalf("pure streaming produced only %.2f same/next-line rate", rate)
	}
}

func TestRandomPatternHasNoLocality(t *testing.T) {
	p := validParams()
	p.StreamFrac, p.RandomFrac = 0.0, 1.0
	g, _ := NewSynthetic(p, 0, 5)
	var ins Instr
	var last uint64
	sequential, memAccesses := 0, 0
	for i := 0; i < 100000; i++ {
		g.Next(&ins)
		if !ins.Kind.IsMem() {
			continue
		}
		memAccesses++
		if ins.Line == last || ins.Line == last+1 {
			sequential++
		}
		last = ins.Line
	}
	if rate := float64(sequential) / float64(memAccesses); rate > 0.01 {
		t.Fatalf("random pattern produced %.3f sequential rate", rate)
	}
}

func TestHotSetIsSmall(t *testing.T) {
	p := validParams()
	p.StreamFrac, p.RandomFrac = 0, 0 // pure hot set
	g, _ := NewSynthetic(p, 0, 9)
	seen := map[uint64]bool{}
	var ins Instr
	for i := 0; i < 50000; i++ {
		g.Next(&ins)
		if ins.Kind.IsMem() {
			seen[ins.Line] = true
		}
	}
	if uint64(len(seen)) > p.HotLines {
		t.Fatalf("hot set touched %d lines, parameter is %d", len(seen), p.HotLines)
	}
}

func TestDepProbExtremes(t *testing.T) {
	p := validParams()
	p.DepProb = 0
	g, _ := NewSynthetic(p, 0, 1)
	var ins Instr
	for i := 0; i < 10000; i++ {
		g.Next(&ins)
		if ins.DepOnLoad {
			t.Fatal("DepProb=0 produced a dependent instruction")
		}
	}
	p.DepProb = 1
	g, _ = NewSynthetic(p, 0, 1)
	for i := 0; i < 10000; i++ {
		g.Next(&ins)
		if !ins.Kind.IsMem() && !ins.DepOnLoad {
			t.Fatal("DepProb=1 produced an independent compute instruction")
		}
	}
}

func TestRecordReplayRoundTrip(t *testing.T) {
	g, _ := NewSynthetic(validParams(), 123456, 11)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	original := make([]Instr, n)
	for i := range original {
		g.Next(&original[i])
		if err := w.Write(&original[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != n {
		t.Fatalf("writer count = %d", w.Count())
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var ins Instr
	for i := 0; i < n; i++ {
		if err := r.Read(&ins); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if ins != original[i] {
			t.Fatalf("record %d: %+v != %+v", i, ins, original[i])
		}
	}
	if err := r.Read(&ins); err == nil {
		t.Fatal("expected EOF after last record")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Fatal("garbage header accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

// rawLoads encodes a trace of loads whose line deltas are given directly,
// including deltas Writer never produces.
func rawLoads(deltas ...int64) []byte {
	data := []byte(magic)
	for _, d := range deltas {
		data = binary.AppendVarint(append(data, byte(KindLoad)), d)
	}
	return data
}

// TestReaderRejectsLinesAtLimit pins that no decoded line reaches LineLimit:
// a first load with delta -1 would decode line 2^64-1. The error names the
// record (counted from 0).
func TestReaderRejectsLinesAtLimit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		data   []byte
		record string
	}{
		{"delta -1", rawLoads(-1), "record 0:"},
		{"at limit", rawLoads(7, int64(LineLimit-8), 1), "record 2:"},
		{"past limit", rawLoads(1<<62 + 3), "record 0:"},
	} {
		r, err := NewReader(bytes.NewReader(tc.data))
		if err != nil {
			t.Fatal(err)
		}
		var ins Instr
		for err == nil {
			if err = r.Read(&ins); err == nil && ins.Line >= LineLimit {
				t.Fatalf("%s: decoded line %#x", tc.name, ins.Line)
			}
		}
		if errors.Is(err, io.EOF) || !strings.Contains(err.Error(), tc.record) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.record)
		}
	}
}

func TestLooperWrapsAround(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	want := []Instr{
		{Kind: KindLoad, Line: 10},
		{Kind: KindInt, DepOnLoad: true},
		{Kind: KindStore, Line: 11},
	}
	for i := range want {
		if err := w.Write(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	l, err := NewLooper(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	var ins Instr
	for i := 0; i < 10; i++ {
		l.Next(&ins)
		if ins != want[i%3] {
			t.Fatalf("loop position %d: %+v != %+v", i, ins, want[i%3])
		}
	}
}

func TestLooperRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Flush()
	if _, err := NewLooper(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("empty trace accepted by Looper")
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: any sequence of valid instructions survives encode/decode.
	f := func(kinds []uint8, lines []uint32, deps []bool) bool {
		n := len(kinds)
		if len(lines) < n {
			n = len(lines)
		}
		if len(deps) < n {
			n = len(deps)
		}
		if n == 0 {
			return true
		}
		in := make([]Instr, n)
		for i := 0; i < n; i++ {
			in[i].Kind = Kind(kinds[i] % uint8(numKinds))
			in[i].DepOnLoad = deps[i]
			if in[i].Kind.IsMem() {
				in[i].Line = uint64(lines[i])
			}
		}
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		for i := range in {
			if err := w.Write(&in[i]); err != nil {
				return false
			}
		}
		w.Flush()
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		var ins Instr
		for i := range in {
			if err := r.Read(&ins); err != nil || ins != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
