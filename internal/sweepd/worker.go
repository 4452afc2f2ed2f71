package sweepd

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"memsched/internal/runner"
	"memsched/internal/sim"
)

// WorkerOptions configures a worker process (or in-process worker loop).
type WorkerOptions struct {
	// Coordinator is the coordinator address ("host:port" or http:// URL).
	Coordinator string
	// Name identifies the worker in outcomes and logs. "" derives one from
	// the hostname and PID.
	Name string
	// MinProcs and MaxProcs bound the executor pool. The worker sizes the
	// pool inside [MinProcs, MaxProcs] from the queue-depth hint carried on
	// every claim response: an empty coordinator queue lets the pool drain
	// down to MinProcs, a deep backlog grows it to MaxProcs. MinProcs 0
	// selects 1; MaxProcs 0 selects max(Slots, MinProcs, 1).
	MinProcs int
	MaxProcs int
	// Batch is the most job leases fetched per claim round trip and the most
	// completions reported per complete round trip. 0 selects MaxProcs;
	// 1 keeps the single-job wire forms.
	Batch int
	// Slots is the legacy fixed pool size: when MinProcs and MaxProcs are
	// both 0 it pins the pool to exactly Slots executors. 0 selects 1.
	Slots int
	// JobTimeout bounds each job's wall clock (0 = unbounded). A timed-out
	// job is reported as failed, exactly like the in-process pool.
	JobTimeout time.Duration
	// Poll is the idle wait between claim attempts when the queue is empty
	// or the coordinator is unreachable. 0 selects 500ms.
	Poll time.Duration
	// Logf receives per-job log lines (nil disables them).
	Logf func(format string, args ...any)
}

// desiredProcs sizes the executor pool: enough executors to cover the jobs
// this worker already holds plus the coordinator's reported backlog, clamped
// to [min, max]. It is a pure function so the autoscaling policy is testable
// without a coordinator.
func desiredProcs(inflight int, queueDepth int64, min, max int) int {
	want := inflight + int(queueDepth)
	if want < min {
		want = min
	}
	if want > max {
		want = max
	}
	return want
}

// worker is the runtime state behind RunWorker: one claim loop feeding an
// autoscaled executor pool, one batch heartbeater covering every held lease,
// and one completion batcher draining finished jobs back to the coordinator.
type worker struct {
	client *Client
	opts   WorkerOptions
	root   context.Context // RunWorker's ctx: cancelled on shutdown
	min    int
	max    int
	batch  int
	logf   func(string, ...any)

	jobs      chan LeaseV1           // claimed leases awaiting an executor
	comps     chan CompleteRequestV1 // finished jobs awaiting reporting
	hbMillis  atomic.Int64           // heartbeat cadence learned from claims
	hbChanged chan struct{}          // pokes the heartbeater out of a stale sleep

	mu       sync.Mutex
	active   map[string]*activeRun // leases held: claimed, queued, or running
	inflight int                   // len(active), tracked for desiredProcs
	procs    int                   // live executors
	target   int                   // pool size executors retire down to
	execWG   sync.WaitGroup
}

// activeRun tracks one held lease from claim to completion. The heartbeater
// cancels the run and sets lost when the coordinator revokes the lease.
type activeRun struct {
	mu     sync.Mutex
	cancel context.CancelFunc // nil until the run starts
	lost   bool
}

func (ar *activeRun) markLost() {
	ar.mu.Lock()
	ar.lost = true
	cancel := ar.cancel
	ar.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (ar *activeRun) isLost() bool {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	return ar.lost
}

func (ar *activeRun) setCancel(cancel context.CancelFunc) bool {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if ar.lost {
		return false
	}
	ar.cancel = cancel
	return true
}

// RunWorker claims and executes jobs until ctx is cancelled. Claims fetch up
// to Batch leases per round trip; every held lease is heartbeated in one
// batched beat; completed jobs are reported in batches sized by whatever has
// finished since the last report. If the coordinator revokes a lease mid-run
// (ErrLeaseLost), that simulation is cancelled and its result discarded. Jobs
// run through runner.Execute, so a panicking run is reported as that job's
// failure, never a worker crash. RunWorker returns nil after a clean shutdown.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	if opts.Name == "" {
		host, _ := os.Hostname()
		opts.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	min, max := opts.MinProcs, opts.MaxProcs
	if min <= 0 {
		min = 1
	}
	if max <= 0 {
		// Legacy Slots pins a fixed pool when no autoscale bounds are given.
		if opts.MinProcs <= 0 && opts.Slots > 0 {
			min = opts.Slots
		}
		max = min
		if opts.Slots > max {
			max = opts.Slots
		}
	}
	if min > max {
		min = max
	}
	batch := opts.Batch
	if batch <= 0 {
		batch = max
	}
	w := &worker{
		client:    NewClient(opts.Coordinator),
		opts:      opts,
		root:      ctx,
		min:       min,
		max:       max,
		batch:     batch,
		jobs:      make(chan LeaseV1, batch),
		comps:     make(chan CompleteRequestV1, batch),
		hbChanged: make(chan struct{}, 1),
		active:    map[string]*activeRun{},
		logf: func(format string, args ...any) {
			if opts.Logf != nil {
				opts.Logf(format, args...)
			}
		},
	}
	w.resize(min)

	var bgWG sync.WaitGroup
	bgWG.Add(2)
	go func() { defer bgWG.Done(); w.heartbeater(ctx) }()
	go func() { defer bgWG.Done(); w.completer(ctx) }()

	w.claimLoop(ctx)
	// Shutdown: close the handoff channel so executors drain any parked
	// leases (their runs cancel immediately under the dead root context and
	// report nothing, so the leases expire and re-queue) and exit.
	close(w.jobs)
	w.execWG.Wait()
	bgWG.Wait()
	return nil
}

// resize grows the pool to target immediately and records the size excess
// executors retire down to after their current job.
func (w *worker) resize(target int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.target = target
	for w.procs < target {
		w.procs++
		w.execWG.Add(1)
		go w.executor()
	}
}

// shouldRetire lets an idle-bound executor exit when the pool is above target.
func (w *worker) shouldRetire() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.procs > w.target && w.procs > w.min {
		w.procs--
		return true
	}
	return false
}

// claimLoop fetches lease batches and hands them to the executor pool. The
// jobs channel's bounded buffer is the backpressure: once the pool and the
// buffer are full, the loop blocks on the handoff (held leases stay
// heartbeated) instead of claiming further ahead.
func (w *worker) claimLoop(ctx context.Context) {
	idle := func() {
		select {
		case <-ctx.Done():
		case <-time.After(w.opts.Poll):
		}
	}
	for ctx.Err() == nil {
		resp, err := w.client.Claim(ctx, w.opts.Name, w.batch)
		if err != nil {
			if ctx.Err() == nil {
				w.logf("%s: claim: %v", w.opts.Name, err)
				idle()
			}
			continue
		}
		if resp.HeartbeatMillis > 0 && w.hbMillis.Swap(resp.HeartbeatMillis) != resp.HeartbeatMillis {
			// The coordinator's cadence differs from what the heartbeater is
			// sleeping on (always true for a worker's first claim, whose
			// default is a conservative 1s): wake it so a short lease TTL
			// isn't missed while the old sleep runs out.
			select {
			case w.hbChanged <- struct{}{}:
			default:
			}
		}
		leases := resp.Leases
		if len(leases) == 0 && resp.Found {
			// A pre-batching coordinator answers in the single-job form.
			leases = []LeaseV1{{LeaseID: resp.LeaseID, Job: resp.Job}}
		}
		w.resize(desiredProcs(w.holding()+len(leases), resp.QueueDepth, w.min, w.max))
		if len(leases) == 0 {
			idle()
			continue
		}
		for _, lv := range leases {
			w.mu.Lock()
			w.active[lv.LeaseID] = &activeRun{}
			w.inflight++
			w.mu.Unlock()
			select {
			case w.jobs <- lv:
			case <-ctx.Done():
				// Shutdown with leases in hand: drop them and let the TTL
				// re-queue the jobs.
				return
			}
		}
	}
}

func (w *worker) holding() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inflight
}

// release drops a lease from the active table once its run is resolved.
func (w *worker) release(leaseID string) {
	w.mu.Lock()
	delete(w.active, leaseID)
	w.inflight--
	w.mu.Unlock()
}

func (w *worker) executor() {
	defer w.execWG.Done()
	for lv := range w.jobs {
		w.runJob(lv)
		if w.shouldRetire() {
			return
		}
	}
}

// heartbeater extends every held lease in one batched round trip per beat.
// Revoked leases get their runs cancelled; a transport failure simply waits
// for the next beat (the lease TTL leaves slack for several misses).
func (w *worker) heartbeater(ctx context.Context) {
	for {
		interval := time.Duration(w.hbMillis.Load()) * time.Millisecond
		if interval <= 0 {
			interval = time.Second
		}
		select {
		case <-ctx.Done():
			return
		case <-w.hbChanged:
			// Re-sleep on the new cadence, then beat.
			continue
		case <-time.After(interval):
		}
		w.mu.Lock()
		ids := make([]string, 0, len(w.active))
		for id := range w.active {
			ids = append(ids, id)
		}
		w.mu.Unlock()
		if len(ids) == 0 {
			continue
		}
		var lost []string
		if len(ids) == 1 && w.batch == 1 {
			if err := w.client.Heartbeat(ctx, ids[0]); err == ErrLeaseLost {
				lost = ids
			}
		} else {
			resp, err := w.client.HeartbeatBatch(ctx, ids)
			if err != nil {
				continue
			}
			lost = resp.Lost
		}
		for _, id := range lost {
			w.mu.Lock()
			ar := w.active[id]
			w.mu.Unlock()
			if ar != nil {
				ar.markLost()
			}
		}
	}
}

// completer drains finished jobs and reports them in batches: it blocks for
// the first completion, then greedily folds in everything else already
// waiting, so batching amortizes round trips without delaying a lone result.
func (w *worker) completer(ctx context.Context) {
	for {
		var batch []CompleteRequestV1
		select {
		case <-ctx.Done():
			return
		case comp := <-w.comps:
			batch = append(batch, comp)
		}
	drain:
		for len(batch) < w.batch {
			select {
			case comp := <-w.comps:
				batch = append(batch, comp)
			default:
				break drain
			}
		}
		w.report(ctx, batch)
	}
}

func (w *worker) report(ctx context.Context, batch []CompleteRequestV1) {
	if len(batch) == 1 {
		err := w.client.Complete(ctx, batch[0])
		if err != nil && err != ErrLeaseLost && ctx.Err() == nil {
			w.logf("%s: reporting completion: %v", w.opts.Name, err)
		}
		return
	}
	resp, err := w.client.CompleteBatch(ctx, batch)
	if err != nil {
		if ctx.Err() == nil {
			w.logf("%s: reporting %d completions: %v", w.opts.Name, len(batch), err)
		}
		return
	}
	for _, id := range resp.Lost {
		w.logf("%s: lease %s revoked before completion; result discarded", w.opts.Name, id)
	}
}

// runJob executes one leased job with panic isolation and queues its outcome
// for the completion batcher. A worker killed mid-job simply stops
// heartbeating — the coordinator's reaper re-queues the job, which is the
// crash-recovery path the e2e tests exercise.
func (w *worker) runJob(lv LeaseV1) {
	w.mu.Lock()
	ar := w.active[lv.LeaseID]
	w.mu.Unlock()
	if ar == nil {
		return
	}
	jobCtx, cancel := context.WithCancel(w.root)
	defer cancel()
	if !ar.setCancel(cancel) {
		// Revoked while waiting for an executor.
		w.release(lv.LeaseID)
		w.logf("%s: job %q: lease revoked before start, skipped", w.opts.Name, lv.Job.Key)
		return
	}

	job := lv.Job
	t0 := time.Now()
	raw, err := runner.Execute(jobCtx, runner.Job{ID: job.ID, Key: job.Key},
		func(ctx context.Context, _ runner.Job) (json.RawMessage, error) {
			spec, err := job.Spec.RunSpec()
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(ctx, spec)
			if err != nil {
				return nil, err
			}
			return json.Marshal(res)
		}, w.opts.JobTimeout)
	elapsed := time.Since(t0)

	lost := ar.isLost()
	w.release(lv.LeaseID)
	switch {
	case lost:
		w.logf("%s: job %q: lease revoked mid-run, result discarded", w.opts.Name, job.Key)
		return
	case w.root.Err() != nil:
		// Worker shutdown mid-job: report nothing and let the lease expire,
		// so the job is re-queued rather than recorded as failed.
		return
	}
	comp := CompleteRequestV1{LeaseID: lv.LeaseID, ElapsedMillis: elapsed.Milliseconds()}
	if err != nil {
		comp.Err = err.Error()
		w.logf("%s: job %q failed in %s: %v", w.opts.Name, job.Key, elapsed.Round(time.Millisecond), err)
	} else {
		comp.Value = raw
		w.logf("%s: job %q done in %s", w.opts.Name, job.Key, elapsed.Round(time.Millisecond))
	}
	select {
	case w.comps <- comp:
	case <-w.root.Done():
	}
}
