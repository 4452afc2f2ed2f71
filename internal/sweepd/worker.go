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
	// Slots is the executor pool size: the most jobs run at once. 0 selects
	// 1. The pool is fixed: with N slots the worker runs min(held, N) of the
	// leases it holds at once, and idle executors block on the handoff
	// channel at no cost.
	Slots int
	// Batch is the most job leases fetched per claim round trip and the most
	// completions reported per complete round trip. 0 selects Slots.
	Batch int
	// JobTimeout bounds each job's wall clock (0 = unbounded). A timed-out
	// job is reported as failed, exactly like the in-process pool.
	JobTimeout time.Duration
	// Poll is the idle wait between claim attempts when the queue is empty
	// or the coordinator is unreachable. 0 selects 500ms.
	Poll time.Duration
	// Logf receives per-job log lines (nil disables them).
	Logf func(format string, args ...any)
}

// worker is the runtime state behind RunWorker: one claim loop feeding a
// fixed executor pool, one batch heartbeater covering every held lease, and
// one completion batcher draining finished jobs back to the coordinator.
type worker struct {
	client *Client
	opts   WorkerOptions
	root   context.Context // RunWorker's ctx: cancelled on shutdown
	logf   func(string, ...any)

	jobs      chan LeaseV1           // claimed leases awaiting an executor
	comps     chan CompleteRequestV1 // finished jobs awaiting reporting
	hbMillis  atomic.Int64           // heartbeat cadence learned from claims
	hbChanged chan struct{}          // pokes the heartbeater out of a stale sleep

	mu     sync.Mutex
	active map[string]*activeRun // leases held: claimed, queued, or running
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
// finished since the last report. If a heartbeat reports a lease Lost, that
// simulation is cancelled and its result discarded. Jobs run through
// runner.Execute, so a panicking run is reported as that job's failure, never
// a worker crash. RunWorker returns nil after a clean shutdown.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	if opts.Name == "" {
		host, _ := os.Hostname()
		opts.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	if opts.Batch <= 0 {
		opts.Batch = opts.Slots
	}
	w := &worker{
		client:    NewClient(opts.Coordinator),
		opts:      opts,
		root:      ctx,
		jobs:      make(chan LeaseV1, opts.Batch),
		comps:     make(chan CompleteRequestV1, opts.Batch),
		hbChanged: make(chan struct{}, 1),
		active:    map[string]*activeRun{},
		logf: func(format string, args ...any) {
			if opts.Logf != nil {
				opts.Logf(format, args...)
			}
		},
	}

	var execWG, bgWG sync.WaitGroup
	for i := 0; i < opts.Slots; i++ {
		execWG.Add(1)
		go func() {
			defer execWG.Done()
			for lv := range w.jobs {
				w.runJob(lv)
			}
		}()
	}
	bgWG.Add(2)
	go func() { defer bgWG.Done(); w.heartbeater(ctx) }()
	go func() { defer bgWG.Done(); w.completer(ctx) }()

	w.claimLoop(ctx)
	// Shutdown: close the handoff channel so executors drain any parked
	// leases (their runs cancel immediately under the dead root context and
	// report nothing, so the leases expire and re-queue) and exit.
	close(w.jobs)
	execWG.Wait()
	bgWG.Wait()
	return nil
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
		resp, err := w.client.Claim(ctx, w.opts.Name, w.opts.Batch)
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
		if len(resp.Leases) == 0 {
			idle()
			continue
		}
		for _, lv := range resp.Leases {
			w.mu.Lock()
			w.active[lv.LeaseID] = &activeRun{}
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

// release drops a lease from the active table once its run is resolved.
func (w *worker) release(leaseID string) {
	w.mu.Lock()
	delete(w.active, leaseID)
	w.mu.Unlock()
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
		resp, err := w.client.HeartbeatBatch(ctx, ids)
		if err != nil {
			continue
		}
		for _, id := range resp.Lost {
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
		for len(batch) < w.opts.Batch {
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
