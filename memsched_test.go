package memsched_test

import (
	"context"
	"errors"
	"testing"

	"memsched"
)

const apiSlice = 20_000

func TestPublicConfigDefaults(t *testing.T) {
	cfg := memsched.DefaultConfig(4)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Cores != 4 || cfg.Core.ROBSize != 196 {
		t.Fatalf("unexpected defaults: %d cores, ROB %d", cfg.Cores, cfg.Core.ROBSize)
	}
}

func TestPublicCatalog(t *testing.T) {
	if got := len(memsched.Apps()); got != 26 {
		t.Fatalf("Apps() = %d, want 26", got)
	}
	if got := len(memsched.Mixes()); got != 36 {
		t.Fatalf("Mixes() = %d, want 36", got)
	}
	if got := len(memsched.MixesFor(4, "MEM")); got != 6 {
		t.Fatalf("MixesFor(4, MEM) = %d, want 6", got)
	}
	a, err := memsched.AppByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if a.Code != 'k' || a.Class != memsched.MEM {
		t.Fatalf("mcf = %+v", a)
	}
	if _, err := memsched.AppByCode('k'); err != nil {
		t.Fatal(err)
	}
	if len(memsched.PolicyNames()) < 6 {
		t.Fatal("policy registry too small")
	}
}

func TestPublicRunSpec(t *testing.T) {
	mix, err := memsched.MixByName("2MEM-1")
	if err != nil {
		t.Fatal(err)
	}
	spec := memsched.RunSpec{Mix: mix, Policy: "me-lreq", Instr: apiSlice, Seed: memsched.EvalSeed}
	res, err := memsched.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 2 || res.TotalCycles == 0 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestPublicRunCancellation(t *testing.T) {
	mix, err := memsched.MixByName("2MEM-1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = memsched.Run(ctx, memsched.RunSpec{Mix: mix, Policy: "hf-rf", Instr: apiSlice})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestPublicProfileAndMetrics(t *testing.T) {
	app, err := memsched.AppByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	p, err := memsched.ProfileAppContext(context.Background(), app, apiSlice, memsched.ProfileSeed)
	if err != nil {
		t.Fatal(err)
	}
	if p.ME <= 0 || p.IPC <= 0 {
		t.Fatalf("profile = %+v", p)
	}
	if err := memsched.ClassifyContext(context.Background(), app, &p, apiSlice, memsched.ProfileSeed); err != nil {
		t.Fatal(err)
	}
	if p.Class != memsched.MEM {
		t.Fatalf("swim classified %v", p.Class)
	}
	sp, err := memsched.SMTSpeedup([]float64{1, 1}, []float64{2, 2})
	if err != nil || sp != 1 {
		t.Fatalf("SMTSpeedup = %v, %v", sp, err)
	}
	u, err := memsched.Unfairness([]float64{1, 1}, []float64{2, 2})
	if err != nil || u != 1 {
		t.Fatalf("Unfairness = %v, %v", u, err)
	}
}

// strictRR is a minimal custom policy: pure arrival order.
type strictRR struct{ last int }

func (p *strictRR) Name() string { return "strict-age" }

func (p *strictRR) Pick(cands []memsched.Candidate, ctx *memsched.PolicyContext) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].Req.Arrive < cands[best].Req.Arrive {
			best = i
		}
	}
	return best
}

func TestPublicCustomPolicy(t *testing.T) {
	mix, err := memsched.MixByName("2MEM-1")
	if err != nil {
		t.Fatal(err)
	}
	apps, err := mix.Apps()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := memsched.NewSystem(memsched.Options{
		CustomPolicy: &strictRR{},
		Apps:         apps,
		Seed:         memsched.EvalSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunContext(context.Background(), apiSlice, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "strict-age" {
		t.Fatalf("policy label = %q", res.Policy)
	}
}

func TestPublicNewPolicy(t *testing.T) {
	p, err := memsched.NewPolicy("me-lreq", 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "me-lreq" {
		t.Fatalf("Name = %q", p.Name())
	}
	if _, err := memsched.NewPolicy("bogus", 4); err == nil {
		t.Fatal("bogus policy accepted")
	}
}
