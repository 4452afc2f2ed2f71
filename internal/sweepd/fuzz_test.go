package sweepd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSubmit drives arbitrary bodies through the coordinator's submit
// handler. Every body is accepted (200), refused (400) or too large (413),
// never a panic or a 5xx; an accepted sweep reports every job and is then
// visible through its status.
func FuzzSubmit(f *testing.F) {
	seeds := badSubmits()
	seeds = append(seeds, SweepRequestV1{Meta: "e2e", Jobs: []JobV1{
		{ID: 0, Key: "hf-rf", Spec: testSpec("hf-rf")},
		{ID: 1, Key: "me-lreq", Spec: testSpec("me-lreq")},
		{ID: 2, Key: "classed", Spec: JobSpecV1{Mix: "4MEM-1", Policy: "dash", Instr: 3000,
			Seed: 7, Classes: "LBBB", ME: []float64{0.5, 1, 2, 4}, WarmupInstr: 500}},
	}})
	// A loadtest sweep: tiny distinct specs.
	load := SweepRequestV1{Meta: "loadtest sweep 0"}
	for i := 0; i < 4; i++ {
		load.Jobs = append(load.Jobs, JobV1{ID: i, Key: fmt.Sprintf("job-%d", i),
			Spec: JobSpecV1{Mix: "2MEM-1", Policy: "fcfs", Instr: 1000, Seed: uint64(i + 1)}})
	}
	seeds = append(seeds, load)
	for _, req := range seeds {
		blob, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"jobs":[`))

	f.Fuzz(func(t *testing.T, body []byte) {
		coord, err := NewCoordinator(CoordinatorConfig{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweeps", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("submit %q answered %d: %s", body, rec.Code, rec.Body)
		}
		// The handler decodes the first JSON value of the body; so does this.
		var req SweepRequestV1
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("accepted body %q does not decode: %v", body, err)
		}
		var ack SubmitResponseV1
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
			t.Fatal(err)
		}
		if ack.Jobs != len(req.Jobs) {
			t.Fatalf("submit of %d jobs acknowledged %d", len(req.Jobs), ack.Jobs)
		}
		rec = httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+ack.SweepID, nil))
		var st SweepStatusV1
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil || st.Total != len(req.Jobs) {
			t.Fatalf("status of accepted sweep %s: %d %s", ack.SweepID, rec.Code, rec.Body)
		}
	})
}
