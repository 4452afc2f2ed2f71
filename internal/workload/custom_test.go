package workload

import (
	"strings"
	"testing"
)

const validJSON = `[
  {"name": "streamer", "class": "MEM", "me": 2,
   "params": {"streamFrac": 0.5, "wordsPerLine": 4, "runLenLines": 256}},
  {"name": "chaser", "class": "MEM", "me": 1,
   "params": {"randomFrac": 0.2, "depProb": 0.7}},
  {"name": "cruncher", "me": 500, "params": {"fpFrac": 0.8}}
]`

func TestLoadAppsValid(t *testing.T) {
	apps, err := LoadApps(strings.NewReader(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 3 {
		t.Fatalf("loaded %d apps", len(apps))
	}
	if apps[0].Name != "streamer" || apps[0].Class != MEM || apps[0].Code != 'A' {
		t.Fatalf("app 0 = %+v", apps[0])
	}
	if apps[2].Class != ILP { // class omitted defaults to ILP
		t.Fatalf("default class = %v", apps[2].Class)
	}
	// Defaults applied.
	if apps[0].Params.LoadFrac != 0.25 || apps[0].Params.HotLines != hotSet {
		t.Fatalf("defaults not applied: %+v", apps[0].Params)
	}
	if apps[0].Params.FootprintLines != memFootprint {
		t.Fatalf("MEM footprint default = %d", apps[0].Params.FootprintLines)
	}
	if apps[2].Params.FootprintLines != ilpFootprint {
		t.Fatalf("ILP footprint default = %d", apps[2].Params.FootprintLines)
	}
	// All loaded params validate.
	for _, a := range apps {
		if err := a.Params.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestLoadAppsExplicitZeroMix(t *testing.T) {
	// Pointer fields distinguish "omitted" from explicit zero.
	apps, err := LoadApps(strings.NewReader(
		`[{"name": "noload", "me": 5, "params": {"loadFrac": 0, "storeFrac": 0}}]`))
	if err != nil {
		t.Fatal(err)
	}
	if apps[0].Params.LoadFrac != 0 || apps[0].Params.StoreFrac != 0 {
		t.Fatalf("explicit zeros overridden: %+v", apps[0].Params)
	}
	if apps[0].Params.BranchFrac != 0.12 {
		t.Fatal("omitted branchFrac should default")
	}
}

func TestLoadAppsRejects(t *testing.T) {
	cases := map[string]string{
		"not json":        "{",
		"empty":           "[]",
		"no name":         `[{"me": 1}]`,
		"bad class":       `[{"name": "x", "me": 1, "class": "FOO"}]`,
		"zero me":         `[{"name": "x", "me": 0}]`,
		"unknown field":   `[{"name": "x", "me": 1, "bogus": true}]`,
		"invalid params":  `[{"name": "x", "me": 1, "params": {"loadFrac": 0.9, "storeFrac": 0.9}}]`,
		"unknown p field": `[{"name": "x", "me": 1, "params": {"nope": 1}}]`,
		// A period that truncates to 0 or overflows int once made sim.New
		// panic on the loaded app.
		"phase below 1": `[{"name": "x", "me": 1, "params": {"phaseInstr": 0.5, "phaseHotFrac": 0.1, "phaseGain": 2}}]`,
		"phase 1e300":   `[{"name": "x", "me": 1, "params": {"phaseInstr": 1e300, "phaseHotFrac": 0.1, "phaseGain": 2}}]`,
		// A 2^40-line footprint runs over the core's code region and every
		// later core's region.
		"footprint 2^40": `[{"name": "x", "me": 1, "params": {"footprintLines": 1099511627776}}]`,
	}
	for name, js := range cases {
		if _, err := LoadApps(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadAppsTooMany(t *testing.T) {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < 27; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"name": "a", "me": 1}`)
	}
	sb.WriteByte(']')
	if _, err := LoadApps(strings.NewReader(sb.String())); err == nil {
		t.Fatal("27 apps accepted")
	}
}
