package trace

import "testing"

// refNext is Synthetic.Next in its switch form: a three-way compare chain
// picks the kind, and a four-way switch on the FP and multiply draws picks
// the compute kind. The generator now decides both with compares; this form
// is the reference it must match draw for draw.
func refNext(g *Synthetic, ins *Instr) {
	k := &g.kinds[0]
	if g.phasePeriod > 0 {
		if g.phasePos < g.phaseHotLen {
			k = &g.kinds[1]
		}
		g.phasePos++
		if g.phasePos >= g.phasePeriod {
			g.phasePos = 0
		}
	}
	x := g.rng.Uint53()
	switch {
	case x < k.load:
		ins.Kind = KindLoad
		ins.Line = refMemLine(g)
		ins.DepOnLoad = g.rng.Hit(g.dep)
	case x < k.store:
		ins.Kind = KindStore
		ins.Line = refMemLine(g)
		ins.DepOnLoad = g.rng.Hit(g.dep)
	case x < k.branch:
		ins.Kind = KindBranch
		ins.Line = 0
		ins.DepOnLoad = g.rng.Hit(g.dep)
	default:
		ins.Line = 0
		ins.DepOnLoad = g.rng.Hit(g.dep)
		fp := g.rng.Hit(g.fp)
		mul := g.rng.Hit(g.mul)
		switch {
		case fp && mul:
			ins.Kind = KindFPMul
		case fp:
			ins.Kind = KindFP
		case mul:
			ins.Kind = KindIntMul
		default:
			ins.Kind = KindInt
		}
	}
}

// refMemLine is memLine with one bounded draw per pattern arm.
func refMemLine(g *Synthetic) uint64 {
	x := g.rng.Uint53()
	switch {
	case x < g.stream:
		g.wordInLine++
		if g.wordInLine >= g.p.WordsPerLine {
			g.wordInLine = 0
			stride := uint64(g.p.StrideLines)
			if stride == 0 {
				stride = 1
			}
			g.streamLine += stride
			if g.streamLine >= g.p.FootprintLines {
				g.streamLine -= g.p.FootprintLines
			}
			g.runLeft--
			if g.runLeft <= 0 {
				g.jump()
			}
		}
		return g.base + g.streamLine
	case x < g.random:
		return g.base + g.rng.Uint64n(g.p.FootprintLines)
	default:
		return g.base + g.p.FootprintLines + g.rng.Uint64n(g.p.HotLines)
	}
}

// TestNextMatchesSwitchReference runs Next and refNext side by side on mixes
// that reach every kind and every draw's no-draw case (fractions of 0 and
// 1), with and without phases: every instruction and the generators' random
// states must stay equal.
func TestNextMatchesSwitchReference(t *testing.T) {
	mixes := map[string]func(*Params){
		"valid":  func(*Params) {},
		"phased": func(p *Params) { *p = phasedParams() },
		"no compute": func(p *Params) {
			p.LoadFrac, p.StoreFrac, p.BranchFrac = 0.3, 0.3, 0.4
		},
		"all fp mul": func(p *Params) { p.FPFrac, p.MulFrac, p.DepProb = 1, 1, 1 },
		"all int":    func(p *Params) { p.FPFrac, p.MulFrac, p.DepProb = 0, 0, 0 },
		"loads only": func(p *Params) {
			p.LoadFrac, p.StoreFrac, p.BranchFrac = 1, 0, 0
			p.StreamFrac, p.RandomFrac = 0, 1
		},
		"stores hot": func(p *Params) {
			p.LoadFrac, p.StoreFrac, p.BranchFrac = 0, 1, 0
			p.StreamFrac, p.RandomFrac = 0, 0
		},
		"streaming": func(p *Params) {
			p.StreamFrac, p.RandomFrac, p.StrideLines, p.RunLenLines = 1, 0, 3, 2
		},
	}
	for name, mut := range mixes {
		p := validParams()
		mut(&p)
		got, err := NewSynthetic(p, 1<<30, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _ := NewSynthetic(p, 1<<30, 7)
		var a, b Instr
		for i := 0; i < 200_000; i++ {
			got.Next(&a)
			refNext(want, &b)
			if a != b {
				t.Fatalf("%s: instruction %d = %+v, reference %+v", name, i, a, b)
			}
		}
		if *got.rng != *want.rng {
			t.Fatalf("%s: random state diverged from the reference", name)
		}
	}
}
