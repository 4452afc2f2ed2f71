package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"memsched/internal/sim"
)

// TestWorkerSpeaksBatchedProtocol pins the one lease protocol: a one-slot,
// batch-1 worker claims, heartbeats and completes only through the batched
// endpoints, and the single-job endpoints no longer exist.
func TestWorkerSpeaksBatchedProtocol(t *testing.T) {
	coord, client := newTestService(t, CoordinatorConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var mu sync.Mutex
	sent := map[string]int{}
	recorder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		sent[r.Method+" "+r.URL.Path]++
		mu.Unlock()
		coord.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(recorder.Close)

	req := SweepRequestV1{Meta: "surface"}
	for i, pol := range []string{"hf-rf", "me", "me-lreq"} {
		req.Jobs = append(req.Jobs, JobV1{ID: i, Key: pol, Spec: testSpec(pol)})
	}
	sub, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(wctx, WorkerOptions{Coordinator: recorder.URL, Name: "w",
			Slots: 1, Batch: 1})
	}()
	out, err := client.Outcomes(ctx, sub.SweepID, true)
	if err != nil {
		t.Fatal(err)
	}
	wcancel()
	<-done
	for i, o := range out.Outcomes {
		if o.Err != "" || !bytes.Equal(o.Value, localBytes(t, req.Jobs[i].Spec)) {
			t.Fatalf("job %q: err %q or bytes diverged from the in-process run", o.Key, o.Err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	allowed := []string{"POST /v1/claim", "POST /v1/heartbeats", "POST /v1/completes"}
	for path := range sent {
		if !slices.Contains(allowed, path) {
			t.Errorf("worker sent %s (%d times); want only %v", path, sent[path], allowed)
		}
	}
	if sent["POST /v1/claim"] == 0 || sent["POST /v1/completes"] == 0 {
		t.Errorf("worker requests %v: want claims and batched completions", sent)
	}

	// The single-job forms of the batched endpoints are gone.
	for _, plural := range []string{"/v1/heartbeats", "/v1/completes"} {
		path := strings.TrimSuffix(plural, "s")
		resp, err := http.Post(client.base+path, "application/json", strings.NewReader(`{"lease_id":"l0.1"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s = %s, want 404", path, resp.Status)
		}
	}
}

// TestWorkerCancelsRevokedLease drives the only path by which a worker
// learns of a revocation: a heartbeat's Lost list. A wrapper holds the
// worker's first heartbeat until the coordinator has revoked the lease and
// granted the re-queued job again, then lets it through. The worker must
// cancel the running simulation without completing it, and the re-queued
// job must still finish byte-identical to an in-process run.
func TestWorkerCancelsRevokedLease(t *testing.T) {
	// A starved heartbeat under -race can cost the re-run its lease too;
	// that is one more revocation, not a failure, so attempts are not capped.
	coord, client := newTestService(t, CoordinatorConfig{
		LeaseTTL:    100 * time.Millisecond,
		MaxAttempts: 1000,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// ~0.4s serial, several times the ~125ms until the revocation arrives.
	spec := JobSpecV1{Mix: "2MEM-1", Policy: "me-lreq", Instr: 400_000, Seed: sim.EvalSeed}
	want := localBytes(t, spec)
	sub, err := client.Submit(ctx, SweepRequestV1{Jobs: []JobV1{{Key: "big", Spec: spec}}})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var granted, completed []string // lease IDs, in order
	regranted := make(chan struct{})
	wrapper := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/heartbeats" {
			select {
			case <-regranted:
			case <-r.Context().Done():
				return
			}
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, r)
		mu.Lock()
		switch r.URL.Path {
		case "/v1/claim":
			var resp ClaimResponseV1
			json.Unmarshal(rec.Body.Bytes(), &resp)
			for _, lv := range resp.Leases {
				// A second grant means the coordinator revoked the first
				// lease and re-queued its job.
				if granted = append(granted, lv.LeaseID); len(granted) == 2 {
					close(regranted)
				}
			}
		case "/v1/completes":
			var req CompleteBatchRequestV1
			json.Unmarshal(body, &req)
			for _, c := range req.Completions {
				completed = append(completed, c.LeaseID)
			}
		}
		mu.Unlock()
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(wrapper.Close)

	var logs []string
	wctx, wcancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(wctx, WorkerOptions{Coordinator: wrapper.URL, Name: "w",
			Slots: 1, Batch: 1,
			Logf: func(format string, args ...any) {
				mu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				mu.Unlock()
			}})
	}()
	out, err := client.Outcomes(ctx, sub.SweepID, true)
	if err != nil {
		t.Fatal(err)
	}
	wcancel()
	<-done

	if o := out.Outcomes[0]; o.Err != "" || !bytes.Equal(o.Value, want) {
		t.Fatalf("re-queued job: err %q or bytes diverged from the in-process run", o.Err)
	}
	if st := coord.Stats(); st.Executed != 1 || st.Requeues < 1 {
		t.Fatalf("stats = %+v, want 1 executed after at least 1 requeue", st)
	}
	mu.Lock()
	defer mu.Unlock()
	first := granted[0]
	if slices.Contains(completed, first) {
		t.Errorf("worker completed revoked lease %s (completed %v)", first, completed)
	}
	if !slices.ContainsFunc(logs, func(l string) bool {
		return strings.Contains(l, `job "big": lease revoked mid-run, result discarded`)
	}) {
		t.Errorf("worker never reported cancelling the revoked run; logs:\n%s", strings.Join(logs, "\n"))
	}
}
