package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"memsched/internal/config"
	"memsched/internal/sim"
)

// testSpec is the small, fast job most tests share.
func testSpec(policy string) JobSpecV1 {
	return JobSpecV1{Mix: "2MEM-1", Policy: policy, Instr: 10_000, Seed: sim.EvalSeed}
}

// localRuns memoizes localBytes by fingerprint: runs are deterministic, and
// several tests share the same large spec.
var localRuns sync.Map

// localBytes runs spec in-process and returns the canonical Result JSON — the
// bytes a remote outcome must match exactly.
func localBytes(t testing.TB, spec JobSpecV1) []byte {
	t.Helper()
	fp := spec.Fingerprint()
	if blob, ok := localRuns.Load(fp); ok {
		return blob.([]byte)
	}
	rs, err := spec.RunSpec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), rs)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	localRuns.Store(fp, blob)
	return blob
}

// newTestService starts a coordinator on an httptest server and returns a
// client for it. Cleanup stops both.
func newTestService(t *testing.T, cfg CoordinatorConfig) (*Coordinator, *Client) {
	t.Helper()
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		srv.Close()
		coord.Close()
	})
	return coord, NewClient(srv.URL)
}

// startWorker runs an in-process worker until cancel; the returned done
// channel closes when its loops exit.
func startWorker(ctx context.Context, client *Client, name string) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(ctx, WorkerOptions{
			Coordinator: client.base,
			Name:        name,
			Logf:        nil,
		})
	}()
	return done
}

func TestFingerprint(t *testing.T) {
	base := testSpec("me-lreq")
	if got, want := base.Fingerprint(), base.Fingerprint(); got != want {
		t.Fatal("fingerprint not deterministic")
	}

	// Cache keys persist across releases: a change to the canonical encoding
	// orphans every cached Result, so the addresses are pinned literally.
	for _, pin := range []struct {
		spec JobSpecV1
		want string
	}{
		{base, "3d79e165da7ea05910b85d9ff21e3d67b145614bed950a56d5abdf2a6645f143"},
		{JobSpecV1{Mix: "4MEM-1", Policy: "dash", Instr: 3000, Seed: 7, Classes: "LBBB",
			ME: []float64{0.5, 1, 2, 4}, WarmupInstr: 500},
			"ead2b82b1fad0a91f697fde370df6b85c62b3a755aa511528877068b21f013b8"},
	} {
		if got := pin.spec.Fingerprint(); got != pin.want {
			t.Errorf("%s/%s fingerprint = %s, want %s", pin.spec.Mix, pin.spec.Policy, got, pin.want)
		}
	}

	// Everything that changes the Result must change the address.
	diffs := map[string]JobSpecV1{
		"policy":      {Mix: "2MEM-1", Policy: "hf-rf", Instr: 10_000, Seed: sim.EvalSeed},
		"seed":        {Mix: "2MEM-1", Policy: "me-lreq", Instr: 10_000, Seed: sim.EvalSeed + 1},
		"instr":       {Mix: "2MEM-1", Policy: "me-lreq", Instr: 20_000, Seed: sim.EvalSeed},
		"mix":         {Mix: "2MEM-2", Policy: "me-lreq", Instr: 10_000, Seed: sim.EvalSeed},
		"nocycleskip": {Mix: "2MEM-1", Policy: "me-lreq", Instr: 10_000, Seed: sim.EvalSeed, NoCycleSkip: true},
		"me":          {Mix: "2MEM-1", Policy: "me-lreq", Instr: 10_000, Seed: sim.EvalSeed, ME: []float64{0.5, 0.9}},
		"classes":     {Mix: "2MEM-1", Policy: "me-lreq", Instr: 10_000, Seed: sim.EvalSeed, Classes: "LB"},
	}
	for name, spec := range diffs {
		if spec.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s variant collided with the base fingerprint", name)
		}
	}
}

// workerRejectedSpecs returns specs that name a valid workload and policy but
// that the simulator refuses: a short ME list, a non-positive ME value, and
// machines that fail config.Validate. Submit must refuse them too.
func workerRejectedSpecs() map[string]JobSpecV1 {
	machine := func(mut func(*config.Config)) *config.Config {
		cfg := config.Default(2)
		mut(&cfg)
		return &cfg
	}
	return map[string]JobSpecV1{
		"short me":    {Mix: "2MEM-1", Policy: "hf-rf", Instr: 1000, ME: []float64{1}},
		"zero me":     {Mix: "2MEM-1", Policy: "hf-rf", Instr: 1000, ME: []float64{1, 0}},
		"bad machine": {Mix: "2MEM-1", Policy: "hf-rf", Instr: 1000, Config: machine(func(c *config.Config) { c.Memory.ReadQueueCap = 0 })},
		// Assoc*LineBytes wraps to 0, which once panicked the handler.
		"wrapping assoc": {Mix: "2MEM-1", Policy: "hf-rf", Instr: 1000, Config: machine(func(c *config.Config) { c.L2.Assoc = 1 << 58 })},
		"1 TiB L2":       {Mix: "2MEM-1", Policy: "hf-rf", Instr: 1000, Config: machine(func(c *config.Config) { c.L2.SizeBytes = 1 << 40 })},
		"2^40 ROB":       {Mix: "2MEM-1", Policy: "hf-rf", Instr: 1000, Config: machine(func(c *config.Config) { c.Core.ROBSize = 1 << 40 })},
		// The default machine has at most 64 cores.
		"65 cores": {Apps: strings.Repeat("k", 65), Policy: "hf-rf", Instr: 1000},
	}
}

func TestSpecValidation(t *testing.T) {
	cases := map[string]JobSpecV1{
		"neither":        {Policy: "hf-rf", Instr: 1000},
		"both":           {Mix: "2MEM-1", Apps: "kk", Policy: "hf-rf", Instr: 1000},
		"zero instr":     {Mix: "2MEM-1", Policy: "hf-rf"},
		"unknown mix":    {Mix: "9MEM-9", Policy: "hf-rf", Instr: 1000},
		"bad code":       {Apps: "k?", Policy: "hf-rf", Instr: 1000},
		"unknown policy": {Mix: "2MEM-1", Policy: "lru", Instr: 1000},
		"bad fix order":  {Mix: "2MEM-1", Policy: "fix:012", Instr: 1000},
		"short classes":  {Mix: "2MEM-1", Policy: "hf-rf", Instr: 1000, Classes: "L"},
		"bad class":      {Mix: "2MEM-1", Policy: "hf-rf", Instr: 1000, Classes: "LX"},
	}
	for name, spec := range workerRejectedSpecs() {
		cases[name] = spec
	}
	for name, spec := range cases {
		if _, err := spec.RunSpec(); err == nil {
			t.Errorf("%s spec validated", name)
		}
	}
	// An unknown policy must fail listing the registry, so the 400 tells the
	// submitter what names exist.
	_, err := JobSpecV1{Mix: "2MEM-1", Policy: "lru", Instr: 1000}.RunSpec()
	if err == nil || !strings.Contains(err.Error(), "known:") ||
		!strings.Contains(err.Error(), "me-lreq") {
		t.Errorf("unknown-policy error %v does not list the registry", err)
	}
	if _, err := testSpec("me-lreq").RunSpec(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// An empty ME list encodes like a nil one, so it must mean the same.
	spec := testSpec("me-lreq")
	spec.ME = []float64{}
	rs, err := spec.RunSpec()
	if err != nil || rs.ME != nil {
		t.Fatalf("empty ME list: spec %v, err %v; want the nil fallback", rs.ME, err)
	}
}

// badSubmits returns sweep requests the coordinator must refuse with a 400.
func badSubmits() []SweepRequestV1 {
	bad := []SweepRequestV1{
		{},
		{Jobs: []JobV1{{Key: "", Spec: testSpec("hf-rf")}}},
		{Jobs: []JobV1{{Key: "a", Spec: testSpec("hf-rf")}, {Key: "a", Spec: testSpec("me")}}},
		{Jobs: []JobV1{{Key: "a", Spec: JobSpecV1{Mix: "nope", Policy: "hf-rf", Instr: 1}}}},
		{Jobs: []JobV1{{Key: "a", Spec: JobSpecV1{Mix: "2MEM-1", Policy: "lru", Instr: 1}}}},
	}
	for name, spec := range workerRejectedSpecs() {
		bad = append(bad, SweepRequestV1{Jobs: []JobV1{
			{Key: "ok", Spec: testSpec("hf-rf")}, {ID: 1, Key: name, Spec: spec}}})
	}
	return bad
}

func TestSubmitValidation(t *testing.T) {
	_, client := newTestService(t, CoordinatorConfig{})
	ctx := context.Background()
	for i, req := range badSubmits() {
		if _, err := client.Submit(ctx, req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
	if _, err := client.Status(ctx, "s999"); err == nil {
		t.Error("unknown sweep id served")
	}
}

// TestRequestBodyBound pins the POST body limit: a submit over maxBodyBytes
// is refused with 413, malformed JSON with 400, and the coordinator keeps
// serving afterwards.
func TestRequestBodyBound(t *testing.T) {
	_, client := newTestService(t, CoordinatorConfig{})
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(client.base+"/"+APIVersion+"/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	huge := `{"meta":"` + strings.Repeat("x", maxBodyBytes) + `","jobs":[{"key":"a"}]}`
	if code := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit: status %d, want %d", code, http.StatusRequestEntityTooLarge)
	}
	if code := post(`{"jobs":[`); code != http.StatusBadRequest {
		t.Errorf("truncated submit: status %d, want %d", code, http.StatusBadRequest)
	}
	resp, err := client.Submit(context.Background(), SweepRequestV1{
		Jobs: []JobV1{{Key: "a", Spec: testSpec("hf-rf")}}})
	if err != nil {
		t.Fatalf("submit after the oversized one: %v", err)
	}
	if resp.SweepID == "" {
		t.Error("submit after the oversized one returned no sweep id")
	}
}

// TestEndToEnd is the acceptance test: a coordinator and two workers complete
// a multi-policy matrix whose outcomes are byte-identical to in-process runs,
// and resubmitting the same matrix is served entirely from the cache with
// zero re-simulation.
func TestEndToEnd(t *testing.T) {
	_, client := newTestService(t, CoordinatorConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	policies := []string{"hf-rf", "me", "me-lreq"}
	req := SweepRequestV1{Meta: "e2e"}
	for i, pol := range policies {
		req.Jobs = append(req.Jobs, JobV1{ID: i, Key: pol, Spec: testSpec(pol)})
	}

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	w1 := startWorker(wctx, client, "w1")
	w2 := startWorker(wctx, client, "w2")

	sub, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Jobs != len(policies) || sub.CacheHits != 0 {
		t.Fatalf("submit ack = %+v", sub)
	}

	// Watch the event stream while the sweep runs: every job must produce an
	// event, then the final "sweep" summary closes the stream.
	var events []EventV1
	if err := client.Watch(ctx, sub.SweepID, func(ev EventV1) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(policies)+1 {
		t.Fatalf("got %d events, want %d", len(events), len(policies)+1)
	}
	last := events[len(events)-1]
	if last.Type != "sweep" || last.Completed != len(policies) {
		t.Fatalf("final event = %+v", last)
	}

	out, err := client.Outcomes(ctx, sub.SweepID, true)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Done || len(out.Outcomes) != len(policies) {
		t.Fatalf("outcomes = done %v, %d slots", out.Done, len(out.Outcomes))
	}
	for i, o := range out.Outcomes {
		if o.Err != "" {
			t.Fatalf("job %q failed: %s", o.Key, o.Err)
		}
		if o.ID != i || o.Key != policies[i] {
			t.Fatalf("outcome %d out of admission order: %+v", i, o)
		}
		if o.Worker != "w1" && o.Worker != "w2" {
			t.Fatalf("job %q attributed to %q", o.Key, o.Worker)
		}
		// The heart of the determinism contract: remote bytes == local bytes.
		if want := localBytes(t, req.Jobs[i].Spec); !bytes.Equal(o.Value, want) {
			t.Fatalf("job %q: remote result diverged from in-process run", o.Key)
		}
	}

	st, err := client.Status(ctx, sub.SweepID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Completed != len(policies) || st.Failed != 0 {
		t.Fatalf("status = %+v", st)
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != int64(len(policies)) {
		t.Fatalf("executed = %d, want %d", stats.Executed, len(policies))
	}

	// Resubmission: every job must be served from the cache at submit time —
	// no queueing, no worker involvement, byte-identical values.
	sub2, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if sub2.CacheHits != len(policies) {
		t.Fatalf("resubmit cache hits = %d, want %d", sub2.CacheHits, len(policies))
	}
	out2, err := client.Outcomes(ctx, sub2.SweepID, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out2.Outcomes {
		if !o.CacheHit || o.Err != "" {
			t.Fatalf("resubmitted job %q not a clean cache hit: %+v", o.Key, o)
		}
		if !bytes.Equal(o.Value, out.Outcomes[i].Value) {
			t.Fatalf("cached value for %q diverged", o.Key)
		}
	}
	stats2, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Executed != stats.Executed {
		t.Fatalf("resubmission re-simulated: executed %d -> %d", stats.Executed, stats2.Executed)
	}

	wcancel()
	<-w1
	<-w2
}

// TestCoalescing submits two sweeps with identical specs before any worker
// exists: the second must attach to the first's in-flight jobs, and one
// execution must satisfy both.
func TestCoalescing(t *testing.T) {
	_, client := newTestService(t, CoordinatorConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	jobs := []JobV1{
		{ID: 0, Key: "a", Spec: testSpec("hf-rf")},
		{ID: 1, Key: "b", Spec: testSpec("me-lreq")},
	}
	subA, err := client.Submit(ctx, SweepRequestV1{Meta: "first", Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	subB, err := client.Submit(ctx, SweepRequestV1{Meta: "second", Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if subB.Coalesced != len(jobs) || subB.CacheHits != 0 {
		t.Fatalf("second submit = %+v, want %d coalesced", subB, len(jobs))
	}

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	<-startWorkerAfterSweeps(ctx, t, client, wctx, subA.SweepID, subB.SweepID)

	outA, err := client.Outcomes(ctx, subA.SweepID, true)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := client.Outcomes(ctx, subB.SweepID, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if outA.Outcomes[i].Err != "" || outB.Outcomes[i].Err != "" {
			t.Fatalf("job %d failed: %q / %q", i, outA.Outcomes[i].Err, outB.Outcomes[i].Err)
		}
		if !bytes.Equal(outA.Outcomes[i].Value, outB.Outcomes[i].Value) {
			t.Fatalf("coalesced job %d diverged between sweeps", i)
		}
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != int64(len(jobs)) || stats.Coalesced != int64(len(jobs)) {
		t.Fatalf("stats = %+v, want %d executed and %d coalesced",
			stats, len(jobs), len(jobs))
	}
}

// startWorkerAfterSweeps starts one worker and returns a channel that closes
// once both sweeps are done (the worker keeps polling until wctx fires).
func startWorkerAfterSweeps(ctx context.Context, t *testing.T, client *Client,
	wctx context.Context, sweepIDs ...string) chan struct{} {
	t.Helper()
	startWorker(wctx, client, "w")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, id := range sweepIDs {
			client.Outcomes(ctx, id, true)
		}
	}()
	return done
}

// TestWorkerCrashRecovery kills a worker mid-job: its lease expires, the job
// returns to the queue, and a second worker completes the sweep.
func TestWorkerCrashRecovery(t *testing.T) {
	coord, client := newTestService(t, CoordinatorConfig{
		LeaseTTL: 150 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// One big job (~0.5s serial) so the first worker is reliably mid-run when
	// killed.
	spec := JobSpecV1{Mix: "2MEM-1", Policy: "me-lreq", Instr: 400_000, Seed: sim.EvalSeed}
	sub, err := client.Submit(ctx, SweepRequestV1{Jobs: []JobV1{{Key: "big", Spec: spec}}})
	if err != nil {
		t.Fatal(err)
	}

	victimCtx, killVictim := context.WithCancel(ctx)
	victimDone := startWorker(victimCtx, client, "victim")

	// Wait until the victim holds the lease, then kill it mid-job. The worker
	// reports nothing on shutdown, so only lease expiry can free the job.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if coord.Stats().ActiveLeases > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never claimed the job")
		}
		time.Sleep(2 * time.Millisecond)
	}
	killVictim()
	<-victimDone

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	startWorker(wctx, client, "rescuer")

	out, err := client.Outcomes(ctx, sub.SweepID, true)
	if err != nil {
		t.Fatal(err)
	}
	o := out.Outcomes[0]
	if o.Err != "" {
		t.Fatalf("job failed after requeue: %s", o.Err)
	}
	if o.Worker != "rescuer" {
		t.Fatalf("job completed by %q, want the rescuer", o.Worker)
	}
	if !bytes.Equal(o.Value, localBytes(t, spec)) {
		t.Fatal("requeued job's result diverged from in-process run")
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeues < 1 {
		t.Fatalf("requeues = %d, want >= 1", stats.Requeues)
	}
}

// TestMaxAttemptsAbandon claims a job repeatedly without heartbeating: after
// MaxAttempts lease expiries the coordinator must fail it permanently instead
// of looping forever.
func TestMaxAttemptsAbandon(t *testing.T) {
	_, client := newTestService(t, CoordinatorConfig{
		LeaseTTL:    40 * time.Millisecond,
		MaxAttempts: 2,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	sub, err := client.Submit(ctx, SweepRequestV1{
		Jobs: []JobV1{{Key: "doomed", Spec: testSpec("hf-rf")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Impersonate crashing workers: claim, never heartbeat, never complete.
	for i := 0; i < 2; i++ {
		deadline := time.Now().Add(30 * time.Second)
		for {
			claim, err := client.Claim(ctx, fmt.Sprintf("ghost%d", i), 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(claim.Leases) > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job never re-queued for ghost %d", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	out, err := client.Outcomes(ctx, sub.SweepID, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.Outcomes[0].Err == "" {
		t.Fatal("abandoned job reported success")
	}
}

// TestCachePersistence restarts the coordinator on the same cache file: the
// second instance must serve the matrix without any worker at all.
func TestCachePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	jobs := []JobV1{
		{ID: 0, Key: "a", Spec: testSpec("hf-rf")},
		{ID: 1, Key: "b", Spec: testSpec("me-lreq")},
	}

	coord1, err := NewCoordinator(CoordinatorConfig{CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(coord1.Handler())
	client1 := NewClient(srv1.URL)
	wctx, wcancel := context.WithCancel(ctx)
	wdone := startWorker(wctx, client1, "w")
	sub1, err := client1.Submit(ctx, SweepRequestV1{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	out1, err := client1.Outcomes(ctx, sub1.SweepID, true)
	if err != nil {
		t.Fatal(err)
	}
	wcancel()
	<-wdone
	srv1.Close()
	coord1.Close()

	// Restart: no workers this time. Every job must be a submit-time hit.
	_, client2 := newTestService(t, CoordinatorConfig{CachePath: path})
	sub2, err := client2.Submit(ctx, SweepRequestV1{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if sub2.CacheHits != len(jobs) {
		t.Fatalf("after restart: cache hits = %d, want %d", sub2.CacheHits, len(jobs))
	}
	out2, err := client2.Outcomes(ctx, sub2.SweepID, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if out1.Outcomes[i].Err != "" || out2.Outcomes[i].Err != "" {
			t.Fatalf("job %d failed: %q / %q", i, out1.Outcomes[i].Err, out2.Outcomes[i].Err)
		}
		if !bytes.Equal(out1.Outcomes[i].Value, out2.Outcomes[i].Value) {
			t.Fatalf("job %d: cached bytes changed across restart", i)
		}
	}
}

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// discardFlusher is a streaming http.ResponseWriter that drops the body, so
// a test measures what the handler allocates, not what a recorder keeps.
type discardFlusher struct{ h http.Header }

func (d *discardFlusher) Header() http.Header         { return d.h }
func (d *discardFlusher) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardFlusher) WriteHeader(int)             {}
func (d *discardFlusher) Flush()                      {}

// TestEventStreamMemoryIndependentOfSweepSize subscribes to a large sweep's
// events with an already-cancelled request, while no job is done and after
// every job is: the subscription, its replay of the finished jobs included,
// must not allocate in proportion to the sweep's job count.
func TestEventStreamMemoryIndependentOfSweepSize(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// Every job shares one spec, so the jobs coalesce into one task and a
	// single completion finishes the sweep.
	const jobs = 50_000
	req := SweepRequestV1{Jobs: make([]JobV1, jobs)}
	for i := range req.Jobs {
		req.Jobs[i] = JobV1{ID: i, Key: fmt.Sprint(i), Spec: testSpec("hf-rf")}
	}
	ctx := context.Background()
	client := NewInProcessClient(coord)
	ack, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	subscribe := func(state string, linePerJob bool) {
		t.Helper()
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		events := httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+ack.SweepID+"/events", nil).WithContext(cancelled)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		coord.Handler().ServeHTTP(&discardFlusher{h: http.Header{}}, events)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s sweep: one subscription allocated %d bytes", state, got)
		if linePerJob && raceEnabled {
			return
		}
		if got > 1<<20 {
			t.Fatalf("one event subscription to a %s %d-job sweep allocated %d bytes, want at most 1 MiB",
				state, jobs, got)
		}
	}
	subscribe("pending", false)

	claim, err := client.Claim(ctx, "w", 1)
	if err != nil || len(claim.Leases) != 1 {
		t.Fatalf("claim: %v, %d leases, want the one coalesced task", err, len(claim.Leases))
	}
	if _, err := client.CompleteBatch(ctx, []CompleteRequestV1{
		{LeaseID: claim.Leases[0].LeaseID, Value: json.RawMessage(`{}`)},
	}); err != nil {
		t.Fatal(err)
	}
	if st, err := client.Status(ctx, ack.SweepID); err != nil || !st.Done || st.Completed != jobs {
		t.Fatalf("status after the completion: %v, %+v", err, st)
	}
	subscribe("finished", true)
}

// TestEventReplayDuringCompletions subscribes again and again while another
// goroutine completes the sweep's jobs. Each replay must list every job it
// reports once, in slot order, with Completed counting 1, 2, ... Under -race
// it also checks that encoding replayed slots outside the sweep lock does not
// race with deliveries into other slots.
func TestEventReplayDuringCompletions(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	const jobs = 64
	req := SweepRequestV1{Jobs: make([]JobV1, jobs)}
	for i := range req.Jobs {
		spec := testSpec("hf-rf")
		spec.Seed = uint64(i + 1) // distinct fingerprints: one task per job
		req.Jobs[i] = JobV1{ID: i, Key: fmt.Sprint(i), Spec: spec}
	}
	ctx := context.Background()
	client := NewInProcessClient(coord)
	ack, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for n := 0; n < jobs; n++ {
			claim, err := client.Claim(ctx, "w", 1)
			if err != nil || len(claim.Leases) != 1 {
				t.Errorf("claim %d: %v, %d leases", n, err, len(claim.Leases))
				return
			}
			if _, err := client.CompleteBatch(ctx, []CompleteRequestV1{
				{LeaseID: claim.Leases[0].LeaseID, Value: json.RawMessage(`{}`)},
			}); err != nil {
				t.Errorf("complete %d: %v", n, err)
				return
			}
		}
	}()

	for running := true; running; {
		select {
		case <-finished:
			running = false // one more replay, of the finished sweep
		default:
		}
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+ack.SweepID+"/events", nil).WithContext(cancelled))
		// The replay counts Completed 1, 2, ... in slot order; live events
		// that follow it continue the count in delivery order.
		dec := json.NewDecoder(rec.Body)
		seen := map[int]bool{}
		completed := 0
		for dec.More() {
			var ev EventV1
			if err := dec.Decode(&ev); err != nil {
				t.Fatal(err)
			}
			if ev.Type != "job" {
				continue
			}
			if seen[ev.ID] || ev.Completed <= completed || ev.Key != fmt.Sprint(ev.ID) || ev.Total != jobs ||
				(!running && ev.ID != len(seen)) {
				t.Fatalf("job event %+v after %d events (completed %d)", ev, len(seen), completed)
			}
			seen[ev.ID] = true
			completed = ev.Completed
		}
		if !running && len(seen) != jobs {
			t.Fatalf("replay of the finished sweep listed %d jobs, want %d", len(seen), jobs)
		}
	}
}

// TestEventReplay subscribes to a finished sweep: the full history plus the
// final summary must replay immediately.
func TestEventReplay(t *testing.T) {
	_, client := newTestService(t, CoordinatorConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	startWorker(wctx, client, "w")

	sub, err := client.Submit(ctx, SweepRequestV1{
		Jobs: []JobV1{{Key: "only", Spec: testSpec("hf-rf")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Outcomes(ctx, sub.SweepID, true); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var events []EventV1
	if err := client.Watch(ctx, sub.SweepID, func(ev EventV1) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Type != "job" || events[1].Type != "sweep" {
		t.Fatalf("replayed events = %+v", events)
	}
}
