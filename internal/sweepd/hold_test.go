package sweepd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memsched/internal/sim"
)

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// claimResult is one Claim call's outcome, sent from the goroutine that made
// it.
type claimResult struct {
	resp ClaimResponseV1
	err  error
	at   time.Time // when the call returned
}

// claimAsync starts a claim for one lease and returns where its result will
// arrive.
func claimAsync(ctx context.Context, client *Client, worker string) <-chan claimResult {
	got := make(chan claimResult, 1)
	go func() {
		resp, err := client.Claim(ctx, worker, 1)
		got <- claimResult{resp: resp, err: err, at: time.Now()}
	}()
	return got
}

// TestHeldClaimTakesLateSubmit pins the held claim: a claim that finds the
// queue empty waits on the coordinator, and a job submitted while it waits
// is granted to it at once, well before the hold bound.
func TestHeldClaimTakesLateSubmit(t *testing.T) {
	coord, client := newTestService(t, CoordinatorConfig{})
	ctx := context.Background()

	t0 := time.Now()
	got := claimAsync(ctx, client, "idle")
	waitFor(t, "the claim to be held", func() bool { return coord.Stats().WaitingClaims == 1 })
	time.Sleep(50 * time.Millisecond) // the job arrives 50 ms into the hold
	if _, err := client.Submit(ctx, SweepRequestV1{Jobs: []JobV1{{Key: "late", Spec: testSpec("hf-rf")}}}); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.resp.Leases) != 1 || r.resp.Leases[0].Job.Key != "late" {
		t.Fatalf("held claim = %+v, want the late job's lease", r.resp)
	}
	if took := r.at.Sub(t0); took >= claimHold/2 {
		t.Fatalf("held claim took %v, want well under the %v bound", took, claimHold)
	}
	if n := coord.Stats().WaitingClaims; n != 0 {
		t.Fatalf("%d claims still waiting after the grant", n)
	}
}

// TestReapedLeaseWakesHeldClaim pins the reaper's wakeup: a lease that
// expires re-queues its job, and a claim already held gets that job without
// waiting out its bound.
func TestReapedLeaseWakesHeldClaim(t *testing.T) {
	coord, client := newTestService(t, CoordinatorConfig{
		LeaseTTL:    100 * time.Millisecond,
		MaxAttempts: 1000,
	})
	ctx := context.Background()
	if _, err := client.Submit(ctx, SweepRequestV1{Jobs: []JobV1{{Key: "orphan", Spec: testSpec("hf-rf")}}}); err != nil {
		t.Fatal(err)
	}
	// A ghost takes the job and never heartbeats.
	ghost, err := client.Claim(ctx, "ghost", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ghost.Leases) != 1 {
		t.Fatalf("ghost claim = %+v, want one lease", ghost)
	}

	t0 := time.Now()
	got := claimAsync(ctx, client, "rescuer")
	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.resp.Leases) != 1 || r.resp.Leases[0].Job.Key != "orphan" {
		t.Fatalf("held claim = %+v, want the re-queued job", r.resp)
	}
	if took := r.at.Sub(t0); took >= claimHold/2 {
		t.Fatalf("re-queue reached the held claim after %v, want well under the %v bound", took, claimHold)
	}
	if st := coord.Stats(); st.Requeues < 1 {
		t.Fatalf("stats = %+v, want a requeue", st)
	}
}

// TestHeldClaimEnds pins the two ways a held claim ends early: Close answers
// it with no leases, and a cancelled request releases it on the coordinator.
func TestHeldClaimEnds(t *testing.T) {
	t.Run("close", func(t *testing.T) {
		coord, client := newTestService(t, CoordinatorConfig{})
		got := claimAsync(context.Background(), client, "idle")
		waitFor(t, "the claim to be held", func() bool { return coord.Stats().WaitingClaims == 1 })
		t0 := time.Now()
		coord.Close()
		r := <-got
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.resp.Leases) != 0 {
			t.Fatalf("closed coordinator granted %+v", r.resp)
		}
		if took := r.at.Sub(t0); took > 100*time.Millisecond {
			t.Fatalf("Close released the held claim after %v, want within 100ms", took)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		coord, client := newTestService(t, CoordinatorConfig{})
		ctx, cancel := context.WithCancel(context.Background())
		got := claimAsync(ctx, client, "idle")
		waitFor(t, "the claim to be held", func() bool { return coord.Stats().WaitingClaims == 1 })
		t0 := time.Now()
		cancel()
		if r := <-got; r.err == nil {
			t.Fatalf("cancelled claim returned %+v without an error", r.resp)
		}
		waitFor(t, "the coordinator to release the claim", func() bool { return coord.Stats().WaitingClaims == 0 })
		if took := time.Since(t0); took > 100*time.Millisecond {
			t.Fatalf("coordinator released the cancelled claim after %v, want within 100ms", took)
		}
	})
}

// TestEmptyClaimAnswersAtBound pins the hold bound: with nothing to claim,
// the coordinator answers {} once claimHold has passed, not before.
func TestEmptyClaimAnswersAtBound(t *testing.T) {
	_, client := newTestService(t, CoordinatorConfig{})
	t0 := time.Now()
	resp, err := client.hc.Post(client.base+"/"+APIVersion+"/claim", "application/json",
		strings.NewReader(`{"worker":"idle","max":4}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || string(body) != "{}\n" {
		t.Fatalf("empty claim = %s %q, want 200 {}", resp.Status, body)
	}
	if took < claimHold || took > 3*claimHold {
		t.Fatalf("empty claim answered after %v, want at the %v bound", took, claimHold)
	}
}

// TestCloseReleasesWaiters pins the shutdown path of the other waiting
// endpoints: Close answers a pending outcomes wait with 503, so its client
// retries, and ends a pending event stream.
func TestCloseReleasesWaiters(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	arrived := make(chan struct{}, 2)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			arrived <- struct{}{}
		}
		coord.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		coord.Close()
		srv.Close()
	})
	client := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sub, err := client.Submit(ctx, SweepRequestV1{Jobs: []JobV1{{Key: "queued", Spec: testSpec("hf-rf")}}})
	if err != nil {
		t.Fatal(err)
	}

	type ended struct {
		path   string
		status int
		err    error
		at     time.Time
	}
	ends := make(chan ended, 2)
	paths := []string{"/outcomes?wait=1", "/events"}
	for _, path := range paths {
		go func() {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet,
				srv.URL+"/"+APIVersion+"/sweeps/"+sub.SweepID+path, nil)
			if err != nil {
				ends <- ended{path: path, err: err, at: time.Now()}
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				ends <- ended{path: path, err: err, at: time.Now()}
				return
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ends <- ended{path: path, status: resp.StatusCode, err: err, at: time.Now()}
		}()
	}
	for range paths {
		<-arrived
	}
	t0 := time.Now()
	coord.Close()
	want := map[string]int{"/outcomes?wait=1": http.StatusServiceUnavailable, "/events": http.StatusOK}
	for range paths {
		e := <-ends
		if e.err != nil {
			t.Fatalf("%s: %v", e.path, e.err)
		}
		if e.status != want[e.path] {
			t.Errorf("%s ended with %d, want %d", e.path, e.status, want[e.path])
		}
		if took := e.at.Sub(t0); took > 100*time.Millisecond {
			t.Errorf("%s ended %v after Close, want within 100ms", e.path, took)
		}
	}
}

// TestClientReusesConnections pins connection reuse: responses too large to
// carry a Content-Length (net/http chunks a handler's output past 2 KiB) are
// read to EOF, so twenty calls ride one connection. The server holds back
// the end of each chunked body by a few milliseconds, as a slower network
// would, so a client that stops reading at the end of the JSON value closes
// the body before EOF, and net/http drops the connection.
func TestClientReusesConnections(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		coord.Handler().ServeHTTP(w, r)
		w.(http.Flusher).Flush()
		time.Sleep(5 * time.Millisecond)
	}))
	t.Cleanup(func() {
		coord.Close()
		srv.Close()
	})
	var dials atomic.Int64
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return (&net.Dialer{}).DialContext(ctx, network, addr)
	}}
	t.Cleanup(tr.CloseIdleConnections)
	client := newClient(srv.URL, &http.Client{Transport: tr})
	ctx := context.Background()

	req := SweepRequestV1{}
	for i := 0; i < 200; i++ {
		req.Jobs = append(req.Jobs, JobV1{ID: i, Key: fmt.Sprintf("job-%d", i), Spec: testSpec("hf-rf")})
	}
	sub, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		out, err := client.Outcomes(ctx, sub.SweepID, false)
		if err != nil {
			t.Fatal(err)
		}
		if blob, _ := json.Marshal(out); len(blob) <= 2<<10 {
			t.Fatalf("outcomes response is %d bytes, want over 2 KiB", len(blob))
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("a submit and twenty outcomes calls dialed %d connections, want 1", n)
	}
}

// TestIdleWorkerPicksUpAtOnce pins the end-to-end pickup latency: one-job
// sweeps sent to an idle worker with default options finish at p50 well
// under 100 ms, since its held claim takes each job as it is submitted.
func TestIdleWorkerPicksUpAtOnce(t *testing.T) {
	coord, client := newTestService(t, CoordinatorConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	wctx, stop := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(wctx, WorkerOptions{Coordinator: client.base, Name: "idle"})
	}()
	defer func() {
		stop()
		<-done
	}()

	const sweeps = 9
	var took []time.Duration
	for i := 0; i < sweeps; i++ {
		waitFor(t, "the worker to hold a claim", func() bool { return coord.Stats().WaitingClaims == 1 })
		spec := JobSpecV1{Mix: "2MEM-1", Policy: "fcfs", Instr: 1000, Seed: sim.EvalSeed + uint64(i)}
		t0 := time.Now()
		sub, err := client.Submit(ctx, SweepRequestV1{Jobs: []JobV1{{Key: "one", Spec: spec}}})
		if err != nil {
			t.Fatal(err)
		}
		out, err := client.Outcomes(ctx, sub.SweepID, true)
		if err != nil {
			t.Fatal(err)
		}
		took = append(took, time.Since(t0))
		if o := out.Outcomes[0]; o.Err != "" || o.Worker != "idle" {
			t.Fatalf("sweep %d outcome = %+v", i, o)
		}
	}
	slices.Sort(took)
	if p50 := took[sweeps/2]; p50 >= 100*time.Millisecond {
		t.Fatalf("one-job sweeps on an idle worker took %v at p50 (all %v), want under 100ms", p50, took)
	}
}
