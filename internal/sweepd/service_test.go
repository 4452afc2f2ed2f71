package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memsched/internal/sim"
)

// TestClientRetryFlakyServer pins the retry policy: transient 5xx responses
// are retried with backoff until the server recovers, while 4xx responses
// fail immediately.
func TestClientRetryFlakyServer(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	var requests, failures atomic.Int64
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) <= 3 {
			failures.Add(1)
			http.Error(w, "synthetic outage", http.StatusServiceUnavailable)
			return
		}
		coord.Handler().ServeHTTP(w, r)
	})
	srv := httptest.NewServer(flaky)
	t.Cleanup(srv.Close)

	client := NewClient(srv.URL)
	client.retryBase = time.Millisecond
	client.retryMax = 5 * time.Millisecond

	// The first three attempts hit the outage; the retry loop must ride it out.
	if _, err := client.Stats(context.Background()); err != nil {
		t.Fatalf("stats did not survive a transient outage: %v", err)
	}
	if failures.Load() != 3 {
		t.Fatalf("outage consumed %d failures, want 3", failures.Load())
	}

	// 4xx must not be retried: a malformed submit is one request, no more.
	requests.Store(100) // past the outage window
	before := requests.Load()
	if _, err := client.Submit(context.Background(), SweepRequestV1{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if got := requests.Load() - before; got != 1 {
		t.Fatalf("bad request retried: %d requests, want 1", got)
	}

	// The retry budget is finite: a permanent outage surfaces an error.
	requests.Store(-1 << 30)
	exhausted := NewClient(srv.URL)
	exhausted.maxRetries = 2
	exhausted.retryBase = time.Millisecond
	exhausted.retryMax = 2 * time.Millisecond
	if _, err := exhausted.Stats(context.Background()); err == nil {
		t.Fatal("permanent outage reported success")
	}
}

// TestDebugHandler pins the observability surface: /debug/vars carries the
// coordinator's live counters under the "sweepd" key, and pprof answers.
func TestDebugHandler(t *testing.T) {
	coord, client := newTestService(t, CoordinatorConfig{Shards: 4})
	ctx := context.Background()

	// Two queued jobs, no workers: the counters have something to show.
	if _, err := client.Submit(ctx, SweepRequestV1{Jobs: []JobV1{
		{ID: 0, Key: "a", Spec: testSpec("hf-rf")},
		{ID: 1, Key: "b", Spec: testSpec("me")},
	}}); err != nil {
		t.Fatal(err)
	}

	dbg := httptest.NewServer(coord.DebugHandler())
	t.Cleanup(dbg.Close)

	resp, err := http.Get(dbg.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Sweepd StatsV1 `json:"sweepd"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Sweepd.QueueDepth != 2 || vars.Sweepd.Sweeps != 1 || vars.Sweepd.Shards != 4 {
		t.Fatalf("expvar sweepd = %+v, want 2 queued in 1 sweep across 4 shards", vars.Sweepd)
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(dbg.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %s", path, resp.Status)
		}
	}

	// The debug surface must not leak into the public API handler.
	pub, err := client.hc.Get(client.base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	pub.Body.Close()
	if pub.StatusCode == http.StatusOK {
		t.Fatal("public API serves /debug/vars")
	}
}

// TestBatchClaimComplete exercises the batched wire protocol directly: one
// claim pops several jobs, batch heartbeats and completes answer per lease,
// and revoked or malformed lease IDs surface in Lost instead of failing the
// batch.
func TestBatchClaimComplete(t *testing.T) {
	coord, client := newTestService(t, CoordinatorConfig{Shards: 4})
	ctx := context.Background()

	const jobs = 5
	req := SweepRequestV1{Meta: "batch"}
	for i := 0; i < jobs; i++ {
		spec := testSpec("hf-rf")
		spec.Seed = sim.EvalSeed + uint64(i)
		req.Jobs = append(req.Jobs, JobV1{ID: i, Key: fmt.Sprintf("j%d", i), Spec: spec})
	}
	sub, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	first, err := client.Claim(ctx, "batcher", 3)
	if err != nil {
		t.Fatal(err)
	}
	if depth := coord.Stats().QueueDepth; len(first.Leases) != 3 || depth != jobs-3 {
		t.Fatalf("first claim = %d leases, depth %d; want 3 and %d",
			len(first.Leases), depth, jobs-3)
	}
	second, err := client.Claim(ctx, "batcher", 3)
	if err != nil {
		t.Fatal(err)
	}
	if depth := coord.Stats().QueueDepth; len(second.Leases) != 2 || depth != 0 {
		t.Fatalf("second claim = %d leases, depth %d; want 2 and 0",
			len(second.Leases), depth)
	}

	leases := append(first.Leases, second.Leases...)
	ids := make([]string, 0, len(leases)+2)
	for _, lv := range leases {
		ids = append(ids, lv.LeaseID)
	}
	hb, err := client.HeartbeatBatch(ctx, append(ids, "l0.999", "garbage"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Lost) != 2 {
		t.Fatalf("heartbeat batch lost %v, want the 2 bogus ids", hb.Lost)
	}

	comps := []CompleteRequestV1{{LeaseID: "l1.777", Value: loadStubValue}}
	for _, lv := range leases {
		comps = append(comps, CompleteRequestV1{LeaseID: lv.LeaseID, Value: loadStubValue})
	}
	cresp, err := client.CompleteBatch(ctx, comps)
	if err != nil {
		t.Fatal(err)
	}
	if len(cresp.Lost) != 1 || cresp.Lost[0] != "l1.777" {
		t.Fatalf("complete batch lost %v, want [l1.777]", cresp.Lost)
	}

	out, err := client.Outcomes(ctx, sub.SweepID, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out.Outcomes {
		if o.Err != "" || !bytes.Equal(o.Value, loadStubValue) || o.Worker != "batcher" {
			t.Fatalf("outcome %d = %+v", i, o)
		}
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != jobs || stats.ActiveLeases != 0 || stats.QueueDepth != 0 {
		t.Fatalf("stats after batch completion = %+v", stats)
	}
}

// TestConcurrentSubmitStress is the determinism acceptance test under load:
// overlapping sweeps submitted concurrently while two three-slot workers
// drain the queue with batched claims, across every (batch width × shard
// count) combination — each outcome must be byte-identical to the serial
// in-process run of its spec, regardless of which worker ran it, in which
// batch, on which shard.
func TestConcurrentSubmitStress(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// Six distinct small specs, their expected bytes computed serially once.
	const distinct = 6
	specs := make([]JobSpecV1, distinct)
	want := make([][]byte, distinct)
	for i := range specs {
		specs[i] = JobSpecV1{Mix: "2MEM-1", Policy: "hf-rf", Instr: 3000,
			Seed: sim.EvalSeed + uint64(i)}
		want[i] = localBytes(t, specs[i])
	}

	for _, combo := range []struct{ batch, shards int }{
		{1, 1}, {1, 8}, {3, 1}, {3, 8},
	} {
		t.Run(fmt.Sprintf("batch%d-shards%d", combo.batch, combo.shards), func(t *testing.T) {
			_, client := newTestService(t, CoordinatorConfig{Shards: combo.shards})

			wctx, wcancel := context.WithCancel(ctx)
			defer wcancel()
			var workers sync.WaitGroup
			for w := 0; w < 2; w++ {
				workers.Add(1)
				go func(w int) {
					defer workers.Done()
					RunWorker(wctx, WorkerOptions{
						Coordinator: client.base,
						Name:        fmt.Sprintf("stress-w%d", w),
						Slots:       3,
						Batch:       combo.batch,
						Poll:        2 * time.Millisecond,
					})
				}(w)
			}

			// Four submitters race the same six specs in rotated admission
			// orders, so sweeps overlap (coalescing) and slot mapping is
			// exercised under every rotation.
			const submitters = 4
			var subs sync.WaitGroup
			errs := make(chan error, submitters)
			for s := 0; s < submitters; s++ {
				subs.Add(1)
				go func(s int) {
					defer subs.Done()
					req := SweepRequestV1{Meta: fmt.Sprintf("stress-%d", s)}
					for i := 0; i < distinct; i++ {
						spec := specs[(i+s)%distinct]
						req.Jobs = append(req.Jobs, JobV1{ID: i,
							Key: fmt.Sprintf("s%d-j%d", s, i), Spec: spec})
					}
					sub, err := client.Submit(ctx, req)
					if err != nil {
						errs <- err
						return
					}
					out, err := client.Outcomes(ctx, sub.SweepID, true)
					if err != nil {
						errs <- err
						return
					}
					for i, o := range out.Outcomes {
						if o.Err != "" {
							errs <- fmt.Errorf("submitter %d job %d failed: %s", s, i, o.Err)
							return
						}
						if !bytes.Equal(o.Value, want[(i+s)%distinct]) {
							errs <- fmt.Errorf("submitter %d job %d: bytes diverged from serial run", s, i)
							return
						}
					}
					errs <- nil
				}(s)
			}
			subs.Wait()
			for s := 0; s < submitters; s++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			wcancel()
			workers.Wait()

			// Coalescing and caching must cap executions at the distinct specs.
			stats, err := client.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Executed > distinct || stats.Failed != 0 {
				t.Fatalf("stats = %+v: %d distinct specs executed %d times",
					stats, distinct, stats.Executed)
			}
		})
	}
}

// TestLeaseExpiryUnderLoad crashes a batch mid-flight: a ghost claims several
// jobs and goes silent, the reaper re-queues them under load, and a live
// batching worker still drives every sweep to byte-correct completion.
func TestLeaseExpiryUnderLoad(t *testing.T) {
	// The TTL must be short enough that the ghost's leases expire promptly,
	// but long enough that the rescuer's heartbeats keep its own leases alive
	// under -race on a loaded single-CPU host — at 150ms the rescuer itself
	// lost leases to scheduler starvation and the test flaked.
	_, client := newTestService(t, CoordinatorConfig{
		Shards:   4,
		LeaseTTL: 500 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const jobs = 8
	req := SweepRequestV1{Meta: "expiry"}
	want := make([][]byte, jobs)
	for i := 0; i < jobs; i++ {
		spec := JobSpecV1{Mix: "2MEM-1", Policy: "hf-rf", Instr: 3000,
			Seed: sim.EvalSeed + 100 + uint64(i)}
		want[i] = localBytes(t, spec)
		req.Jobs = append(req.Jobs, JobV1{ID: i, Key: fmt.Sprintf("j%d", i), Spec: spec})
	}
	sub, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// The ghost grabs half the queue and vanishes without a heartbeat.
	ghost, err := client.Claim(ctx, "ghost", jobs/2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ghost.Leases) != jobs/2 {
		t.Fatalf("ghost claimed %d leases, want %d", len(ghost.Leases), jobs/2)
	}

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(wctx, WorkerOptions{
			Coordinator: client.base,
			Name:        "rescuer",
			Slots:       2,
			Batch:       3,
			Poll:        5 * time.Millisecond,
		})
	}()

	out, err := client.Outcomes(ctx, sub.SweepID, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out.Outcomes {
		if o.Err != "" {
			t.Fatalf("job %d failed after requeue: %s", i, o.Err)
		}
		if o.Worker != "rescuer" {
			t.Fatalf("job %d completed by %q", i, o.Worker)
		}
		if !bytes.Equal(o.Value, want[i]) {
			t.Fatalf("job %d: requeued result diverged from serial run", i)
		}
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeues < int64(jobs/2) {
		t.Fatalf("requeues = %d, want >= %d", stats.Requeues, jobs/2)
	}
	wcancel()
	<-done
}

// TestLoadTestSmoke keeps the load harness honest in the ordinary test run:
// a small in-process configuration must push every job through and report
// coherent counters.
func TestLoadTestSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := LoadTest(ctx, LoadOptions{
		Jobs: 120, SweepSize: 50, Workers: 2, Batch: 8, Shards: 4, InProcess: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 120 || rep.Sweeps != 3 || rep.JobsPerSec <= 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.CompleteCalls >= 120 {
		t.Fatalf("batched harness used %d complete round trips for 120 jobs", rep.CompleteCalls)
	}
}
