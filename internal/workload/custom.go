package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"memsched/internal/trace"
)

// customApp is the JSON schema for user-defined application profiles; see
// LoadApps.
type customApp struct {
	Name    string       `json:"name"`
	Class   string       `json:"class"` // "MEM" or "ILP"
	PaperME float64      `json:"me"`    // priority-table fallback value
	Params  customParams `json:"params"`
}

// customParams mirrors trace.Params with lower-camel JSON keys and the same
// defaults the built-in profiles use for omitted fields.
type customParams struct {
	LoadFrac       *float64 `json:"loadFrac"`
	StoreFrac      *float64 `json:"storeFrac"`
	BranchFrac     *float64 `json:"branchFrac"`
	FPFrac         float64  `json:"fpFrac"`
	MulFrac        *float64 `json:"mulFrac"`
	StreamFrac     float64  `json:"streamFrac"`
	RandomFrac     float64  `json:"randomFrac"`
	WordsPerLine   int      `json:"wordsPerLine"`
	RunLenLines    float64  `json:"runLenLines"`
	StrideLines    int      `json:"strideLines"`
	FootprintLines uint64   `json:"footprintLines"`
	HotLines       uint64   `json:"hotLines"`
	DepProb        float64  `json:"depProb"`
	PhaseInstr     float64  `json:"phaseInstr"`
	PhaseHotFrac   float64  `json:"phaseHotFrac"`
	PhaseGain      float64  `json:"phaseGain"`
	CodeLines      uint64   `json:"codeLines"`
	TakenProb      float64  `json:"takenProb"`
}

func orDefault(v *float64, def float64) float64 {
	if v == nil {
		return def
	}
	return *v
}

// LoadApps reads a JSON array of application profiles, applying the built-in
// defaults (instruction mix, footprints) to omitted fields. Loaded apps get
// code letters 'A', 'B', ... (upper case, so they never collide with the
// Table 2 suite).
//
// Minimal example:
//
//	[{"name": "mykernel", "class": "MEM", "me": 3,
//	  "params": {"streamFrac": 0.4, "wordsPerLine": 4,
//	             "footprintLines": 2097152, "hotLines": 512,
//	             "runLenLines": 256}}]
func LoadApps(r io.Reader) ([]App, error) {
	var raw []customApp
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("workload: parsing app file: %w", err)
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("workload: app file contains no applications")
	}
	if len(raw) > 26 {
		return nil, fmt.Errorf("workload: at most 26 custom applications supported, got %d", len(raw))
	}
	out := make([]App, 0, len(raw))
	for i, c := range raw {
		if c.Name == "" {
			return nil, fmt.Errorf("workload: app %d has no name", i)
		}
		var class Class
		switch strings.ToUpper(c.Class) {
		case "MEM":
			class = MEM
		case "ILP", "":
			class = ILP
		default:
			return nil, fmt.Errorf("workload: app %q: class %q is not MEM or ILP", c.Name, c.Class)
		}
		if c.PaperME <= 0 {
			return nil, fmt.Errorf("workload: app %q: me must be positive", c.Name)
		}
		p := c.Params
		foot := p.FootprintLines
		if foot == 0 {
			foot = ilpFootprint
			if class == MEM {
				foot = memFootprint
			}
		}
		hot := p.HotLines
		if hot == 0 {
			hot = hotSet
		}
		wpl := p.WordsPerLine
		if wpl == 0 {
			wpl = 8
		}
		run := p.RunLenLines
		if run == 0 {
			run = 4
		}
		app := App{
			Name:    c.Name,
			Code:    byte('A' + i),
			Class:   class,
			PaperME: c.PaperME,
			Params: trace.Params{
				LoadFrac:       orDefault(p.LoadFrac, 0.25),
				StoreFrac:      orDefault(p.StoreFrac, 0.10),
				BranchFrac:     orDefault(p.BranchFrac, 0.12),
				FPFrac:         p.FPFrac,
				MulFrac:        orDefault(p.MulFrac, 0.15),
				StreamFrac:     p.StreamFrac,
				RandomFrac:     p.RandomFrac,
				WordsPerLine:   wpl,
				RunLenLines:    run,
				StrideLines:    p.StrideLines,
				FootprintLines: foot,
				HotLines:       hot,
				DepProb:        p.DepProb,
				PhaseInstr:     p.PhaseInstr,
				PhaseHotFrac:   p.PhaseHotFrac,
				PhaseGain:      p.PhaseGain,
				CodeLines:      p.CodeLines,
				TakenProb:      p.TakenProb,
			},
		}
		if err := app.Params.Validate(); err != nil {
			return nil, fmt.Errorf("workload: app %q: %w", c.Name, err)
		}
		if err := CheckRegion(&app.Params); err != nil {
			return nil, fmt.Errorf("workload: app %q: %w", c.Name, err)
		}
		out = append(out, app)
	}
	return out, nil
}
