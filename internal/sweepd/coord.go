package sweepd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memsched/internal/runner"
)

// cacheMeta fingerprints the result-cache schema: entries are canonical
// sim.Result JSON keyed by JobSpecV1 fingerprints. Bump it when either
// encoding changes so a stale cache file is discarded, not misread.
// v2: sim.Result gained the per-class latency split (ClassLat) and the
// per-core serving class and tail percentiles.
// v3: for an unchanged spec, SkippedCycles grew (parked L2 requests no
// longer block skips) and the mean queue depths changed in their last bits
// (exact integer ratios instead of running means).
// v4: for an unchanged spec, the read-latency means changed in their last
// bits (integer sums over counts instead of running means).
const cacheMeta = "sweepd result cache v4"

// DefaultShards is the coordinator state shard count selected by
// CoordinatorConfig.Shards == 0. Sharding is cheap (a mutex, three maps and a
// slice each), so the default leans toward concurrency headroom rather than
// host introspection.
const DefaultShards = 8

// claimHold bounds how long a claim that finds nothing to claim waits on the
// coordinator for work before it answers with no leases. An idle worker
// therefore makes about one round trip per claimHold, yet takes a job the
// moment one is submitted. It is a constant, not an option: a submit or a
// re-queue ends the wait at once whatever its length, so a longer hold would
// save only idle round trips. A write timeout in front of the coordinator
// must exceed it.
const claimHold = time.Second

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// CachePath names the persistent content-addressed result cache (a
	// runner.Checkpoint per shard). "" keeps the cache in memory only.
	// Shard i of K stores its entries in CachePath+".s<i>-of-<K>", so
	// concurrent completions never serialize on a single file flush.
	CachePath string
	// Shards is the number of independent state shards (queue + in-flight
	// table + lease table + result cache), keyed by fingerprint prefix.
	// 0 selects DefaultShards.
	Shards int
	// LeaseTTL is how long a claimed job may go without a heartbeat before
	// it is revoked and re-queued. 0 selects 30s. Workers are told to
	// heartbeat every LeaseTTL/3, and the reaper scans every LeaseTTL/4.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many times a job is re-queued after lease
	// expiries before it is failed permanently. 0 selects 5.
	MaxAttempts int
	// Logf receives operational log lines (nil disables them).
	Logf func(format string, args ...any)
}

// Coordinator owns the job queue, the lease table, the result cache, and the
// HTTP API. Create one with NewCoordinator, expose Handler() on a server, and
// Close it on shutdown.
//
// State is split into CoordinatorConfig.Shards independent shards keyed by
// spec fingerprint prefix: each shard has its own mutex, FIFO queue,
// in-flight (dedup) table, lease table, and runner.Checkpoint cache store, so
// concurrent submits, claims, and completes for different fingerprints never
// serialize on one lock. Per-sweep aggregation state has its own lock per
// sweep; operational counters are atomics.
type Coordinator struct {
	cfg    CoordinatorConfig
	shards []*shard
	mux    *http.ServeMux

	sweepMu  sync.Mutex
	sweeps   map[string]*sweepState
	sweepSeq int64

	claimCursor atomic.Int64 // rotates the shard a claim scan starts at

	// work is closed and replaced whenever a task becomes claimable (a
	// submit enqueues, the reaper re-queues), waking every held claim. A
	// claim takes it before scanning the shards, so a task enqueued after
	// the scan still wakes the claim.
	workMu sync.Mutex
	work   chan struct{}

	stats coordStats

	closed    chan struct{}
	closeOnce sync.Once
	reapDone  chan struct{}
}

// coordStats is the coordinator's atomic counter set, snapshotted into
// StatsV1 by Stats(). queueDepth and activeLeases are maintained incrementally
// so a stats read never touches a shard lock.
type coordStats struct {
	sweeps, executed, failed atomic.Int64
	cacheHits, cacheMisses   atomic.Int64
	coalesced, requeues      atomic.Int64
	queueDepth, activeLeases atomic.Int64
	waitingClaims            atomic.Int64
}

// shard is one independent slice of coordinator state. All four structures
// are guarded by mu; the cache has its own internal lock but is only mutated
// under mu so the lookup→pending→enqueue admission sequence stays atomic.
type shard struct {
	idx   int
	cache *runner.Checkpoint

	mu      sync.Mutex
	queue   []*task          // pending jobs, FIFO; re-queued jobs go to the front
	pending map[string]*task // fingerprint -> queued or running task (dedup point)
	leases  map[string]*lease
	seq     int64
}

// task is one distinct simulation to run: every submitted job with the same
// spec fingerprint attaches to the same task, so overlapping sweeps coalesce
// into one execution.
type task struct {
	fp       string
	job      JobV1 // first submitter's job (the spec all waiters share)
	waiters  []waiter
	attempts int // lease expiries so far
	done     bool
}

// waiter is one (sweep, slot) awaiting a task's outcome, with the key that
// sweep labeled the job with.
type waiter struct {
	sw  *sweepState
	idx int
	key string
}

type lease struct {
	t        *task
	worker   string
	deadline time.Time
}

type sweepState struct {
	id   string
	meta string

	mu        sync.Mutex
	outcomes  []OutcomeV1
	remaining int
	failed    int
	cacheHits int
	subs      map[int64]chan EventV1
	subSeq    int64
	done      chan struct{} // closed when remaining hits zero
}

// NewCoordinator initializes the coordinator and starts its lease reaper.
// The result cache stores at cfg.CachePath are loaded if present (a corrupt
// or incompatible file is moved aside, per runner.LoadCheckpoint).
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	c := &Coordinator{
		cfg:      cfg,
		shards:   make([]*shard, cfg.Shards),
		sweeps:   map[string]*sweepState{},
		work:     make(chan struct{}),
		closed:   make(chan struct{}),
		reapDone: make(chan struct{}),
	}
	for i := range c.shards {
		path := cfg.CachePath
		if path != "" {
			path = fmt.Sprintf("%s.s%d-of-%d", cfg.CachePath, i, cfg.Shards)
		}
		cache, err := runner.LoadCheckpoint(path, cacheMeta, cfg.Logf)
		if err != nil {
			return nil, fmt.Errorf("sweepd: opening result cache shard %d: %w", i, err)
		}
		c.shards[i] = &shard{
			idx:     i,
			cache:   cache,
			pending: map[string]*task{},
			leases:  map[string]*lease{},
		}
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /"+APIVersion+"/sweeps", c.handleSubmit)
	c.mux.HandleFunc("GET /"+APIVersion+"/sweeps/{id}", c.handleStatus)
	c.mux.HandleFunc("GET /"+APIVersion+"/sweeps/{id}/outcomes", c.handleOutcomes)
	c.mux.HandleFunc("GET /"+APIVersion+"/sweeps/{id}/events", c.handleEvents)
	c.mux.HandleFunc("POST /"+APIVersion+"/claim", c.handleClaim)
	c.mux.HandleFunc("POST /"+APIVersion+"/heartbeats", c.handleHeartbeatBatch)
	c.mux.HandleFunc("POST /"+APIVersion+"/completes", c.handleCompleteBatch)
	c.mux.HandleFunc("GET /"+APIVersion+"/stats", c.handleStats)
	c.mux.HandleFunc("GET /"+APIVersion+"/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	registerDebug(c)
	go c.reap()
	return c, nil
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the lease reaper and releases every request that waits on the
// coordinator: a held claim answers with no leases, an outcomes wait answers
// 503 (so its client retries), and an event stream ends. A server that
// closes its coordinator when its shutdown starts (http.Server's
// RegisterOnShutdown) therefore drains at once rather than at its deadline.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.closed) })
	<-c.reapDone
}

// Stats snapshots the coordinator's operational counters.
func (c *Coordinator) Stats() StatsV1 {
	st := StatsV1{
		Sweeps:        c.stats.sweeps.Load(),
		Executed:      c.stats.executed.Load(),
		Failed:        c.stats.failed.Load(),
		CacheHits:     c.stats.cacheHits.Load(),
		CacheMisses:   c.stats.cacheMisses.Load(),
		Coalesced:     c.stats.coalesced.Load(),
		Requeues:      c.stats.requeues.Load(),
		QueueDepth:    c.stats.queueDepth.Load(),
		ActiveLeases:  c.stats.activeLeases.Load(),
		WaitingClaims: c.stats.waitingClaims.Load(),
		Shards:        len(c.shards),
	}
	for _, s := range c.shards {
		st.CacheEntries += int64(s.cache.Len())
	}
	return st
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// shardFor routes a fingerprint to its shard. Fingerprints are lower-case
// hex, so the first two characters decode to a uniform byte.
func (c *Coordinator) shardFor(fp string) *shard {
	b, err := strconv.ParseUint(fp[:2], 16, 16)
	if err != nil {
		// Fingerprints are produced by JobSpecV1.Fingerprint; anything else
		// is a programming error, not an input error.
		panic(fmt.Sprintf("sweepd: malformed fingerprint %q", fp))
	}
	return c.shards[int(b)%len(c.shards)]
}

// leaseShard resolves a lease ID ("l<shard>.<seq>") back to its shard, or nil
// when the ID is malformed or names an out-of-range shard.
func (c *Coordinator) leaseShard(id string) *shard {
	rest, ok := strings.CutPrefix(id, "l")
	if !ok {
		return nil
	}
	idx, _, ok := strings.Cut(rest, ".")
	if !ok {
		return nil
	}
	n, err := strconv.Atoi(idx)
	if err != nil || n < 0 || n >= len(c.shards) {
		return nil
	}
	return c.shards[n]
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// maxBodyBytes bounds every POST body the coordinator reads, so a hostile or
// broken client cannot make it buffer without limit. The largest bodies the
// repo's own clients send are a whole 5000-job loadtest as one sweep (~470
// KB) and a 32-lease completion batch of 8-core Results (~165 KB).
const maxBodyBytes = 16 << 20

// decodeBody decodes r's whole body, one JSON value, into v, reading at most
// maxBodyBytes into a pooled buffer. On failure it answers 413 for an
// oversized body and 400 for malformed JSON or data after the value, and
// returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := getBuf()
	defer putBuf(buf)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = unmarshal(buf.Bytes(), v)
	}
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("sweepd: request body exceeds %d bytes", tooBig.Limit),
			http.StatusRequestEntityTooLarge)
		return false
	}
	http.Error(w, "sweepd: decoding request: "+err.Error(), http.StatusBadRequest)
	return false
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequestV1
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		http.Error(w, "sweepd: sweep has no jobs", http.StatusBadRequest)
		return
	}
	seen := make(map[string]bool, len(req.Jobs))
	for i := range req.Jobs {
		j := &req.Jobs[i]
		if j.Key == "" {
			http.Error(w, fmt.Sprintf("sweepd: job %d has an empty key", i), http.StatusBadRequest)
			return
		}
		if seen[j.Key] {
			http.Error(w, fmt.Sprintf("sweepd: duplicate job key %q", j.Key), http.StatusBadRequest)
			return
		}
		seen[j.Key] = true
		// Validate the spec now so a malformed matrix is a 400 at submit
		// time, not a failed outcome discovered by a worker.
		if _, err := j.Spec.RunSpec(); err != nil {
			http.Error(w, fmt.Sprintf("sweepd: job %q: %v", j.Key, err), http.StatusBadRequest)
			return
		}
	}

	sw := &sweepState{
		id:        fmt.Sprintf("s%d", atomic.AddInt64(&c.sweepSeq, 1)),
		meta:      req.Meta,
		outcomes:  make([]OutcomeV1, len(req.Jobs)),
		remaining: len(req.Jobs),
		subs:      map[int64]chan EventV1{},
		done:      make(chan struct{}),
	}
	// Admission resolves each job against its shard: cache hit, coalesce
	// onto an in-flight twin, or enqueue. Jobs enqueued early can complete
	// (and deliver into sw) while later jobs are still being admitted, so
	// remaining was fixed at len(jobs) up front and every slot fill goes
	// through deliver's sweep lock.
	coalesced := 0
	enqueued := 0
	for i := range req.Jobs {
		j := &req.Jobs[i]
		fp := j.Spec.Fingerprint()
		s := c.shardFor(fp)
		s.mu.Lock()
		if raw, ok := s.cache.Lookup(fp); ok {
			s.mu.Unlock()
			c.stats.cacheHits.Add(1)
			sw.mu.Lock()
			sw.cacheHits++
			sw.mu.Unlock()
			c.deliver(sw, OutcomeV1{ID: i, Key: j.Key, Value: raw, CacheHit: true})
			continue
		}
		c.stats.cacheMisses.Add(1)
		if t, ok := s.pending[fp]; ok {
			t.waiters = append(t.waiters, waiter{sw: sw, idx: i, key: j.Key})
			s.mu.Unlock()
			coalesced++
			c.stats.coalesced.Add(1)
			continue
		}
		t := &task{fp: fp, job: JobV1{ID: i, Key: j.Key, Spec: j.Spec},
			waiters: []waiter{{sw: sw, idx: i, key: j.Key}}}
		s.pending[fp] = t
		s.queue = append(s.queue, t)
		s.mu.Unlock()
		enqueued++
		c.stats.queueDepth.Add(1)
	}

	c.sweepMu.Lock()
	c.sweeps[sw.id] = sw
	c.sweepMu.Unlock()
	c.stats.sweeps.Add(1)
	if enqueued > 0 {
		c.signalWork()
	}

	sw.mu.Lock()
	resp := SubmitResponseV1{SweepID: sw.id, Jobs: len(req.Jobs),
		CacheHits: sw.cacheHits, Coalesced: coalesced}
	sw.mu.Unlock()

	c.logf("sweepd: sweep %s submitted: %d jobs (%d cached, %d coalesced, %d enqueued) %s",
		resp.SweepID, resp.Jobs, resp.CacheHits, resp.Coalesced, enqueued, req.Meta)
	writeJSON(w, resp)
}

// deliver fills one outcome slot and notifies the sweep's subscribers. It
// takes the sweep lock; callers must not hold it (shard locks are fine —
// shard locks are never taken while a sweep lock is held, so the lock order
// shard→sweep is acyclic).
func (c *Coordinator) deliver(sw *sweepState, out OutcomeV1) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.outcomes[out.ID] = out
	sw.remaining--
	if out.Err != "" {
		sw.failed++
	}
	ev := EventV1{Type: "job", SweepID: sw.id, ID: out.ID, Key: out.Key,
		CacheHit: out.CacheHit, Err: out.Err, Worker: out.Worker,
		Completed: len(sw.outcomes) - sw.remaining, Total: len(sw.outcomes)}
	for _, sub := range sw.subs {
		select {
		case sub <- ev:
		default: // a stalled subscriber loses progress lines, never the sweep
		}
	}
	if sw.remaining == 0 {
		close(sw.done)
	}
}

// workSignal returns the channel the next signalWork closes.
func (c *Coordinator) workSignal() <-chan struct{} {
	c.workMu.Lock()
	defer c.workMu.Unlock()
	return c.work
}

// signalWork wakes every held claim: a task has become claimable.
func (c *Coordinator) signalWork() {
	c.workMu.Lock()
	close(c.work)
	c.work = make(chan struct{})
	c.workMu.Unlock()
}

// claimLeases pops up to max tasks across the shards — starting at a rotating
// cursor so load spreads — and grants one lease per task.
func (c *Coordinator) claimLeases(worker string, max int) []LeaseV1 {
	if max < 1 {
		max = 1
	}
	var leases []LeaseV1
	start := int(c.claimCursor.Add(1))
	for k := 0; k < len(c.shards) && len(leases) < max; k++ {
		s := c.shards[(start+k)%len(c.shards)]
		s.mu.Lock()
		for len(s.queue) > 0 && len(leases) < max {
			t := s.queue[0]
			s.queue = s.queue[1:]
			s.seq++
			id := fmt.Sprintf("l%d.%d", s.idx, s.seq)
			s.leases[id] = &lease{t: t, worker: worker, deadline: time.Now().Add(c.cfg.LeaseTTL)}
			leases = append(leases, LeaseV1{LeaseID: id, Job: t.job})
		}
		s.mu.Unlock()
	}
	c.stats.queueDepth.Add(-int64(len(leases)))
	c.stats.activeLeases.Add(int64(len(leases)))
	return leases
}

func (c *Coordinator) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequestV1
	if !decodeBody(w, r, &req) {
		return
	}
	resp := ClaimResponseV1{Leases: c.awaitLeases(r.Context(), req.Worker, req.Max)}
	if len(resp.Leases) > 0 {
		resp.HeartbeatMillis = (c.cfg.LeaseTTL / 3).Milliseconds()
	}
	writeJSON(w, resp)
}

// awaitLeases claims up to max leases. When there is nothing to claim it
// holds the claim until a task becomes claimable and scans again, and gives
// up with no leases once claimHold has passed, ctx ends or the coordinator
// closes. A claim woken for a task another worker won waits on, to the same
// bound.
func (c *Coordinator) awaitLeases(ctx context.Context, worker string, max int) []LeaseV1 {
	work := c.workSignal()
	if leases := c.claimLeases(worker, max); len(leases) > 0 {
		return leases
	}
	c.stats.waitingClaims.Add(1)
	defer c.stats.waitingClaims.Add(-1)
	hold := time.NewTimer(claimHold)
	defer hold.Stop()
	for {
		select {
		case <-work:
		case <-hold.C:
			return nil
		case <-ctx.Done():
			return nil
		case <-c.closed:
			return nil
		}
		work = c.workSignal()
		if leases := c.claimLeases(worker, max); len(leases) > 0 {
			return leases
		}
	}
}

// heartbeatOne extends one lease, reporting whether it is still live.
func (c *Coordinator) heartbeatOne(id string) bool {
	s := c.leaseShard(id)
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.leases[id]
	if !ok || l.t.done {
		if ok {
			delete(s.leases, id)
			c.stats.activeLeases.Add(-1)
		}
		return false
	}
	l.deadline = time.Now().Add(c.cfg.LeaseTTL)
	return true
}

func (c *Coordinator) handleHeartbeatBatch(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatBatchRequestV1
	if !decodeBody(w, r, &req) {
		return
	}
	var resp HeartbeatBatchResponseV1
	for _, id := range req.LeaseIDs {
		if !c.heartbeatOne(id) {
			resp.Lost = append(resp.Lost, id)
		}
	}
	writeJSON(w, resp)
}

// delivery is one task resolution ready to fan out to its waiters after the
// shard lock is released.
type delivery struct {
	t       *task
	out     OutcomeV1 // template: ID/Key filled per waiter
	worker  string
	elapsed int64
}

// fanOut delivers a resolved task to every waiter.
func (c *Coordinator) fanOut(d delivery) {
	for _, wt := range d.t.waiters {
		c.deliver(wt.sw, OutcomeV1{ID: wt.idx, Key: wt.key,
			Value: d.out.Value, Err: d.out.Err, Worker: d.worker,
			ElapsedMillis: d.elapsed})
	}
}

func (c *Coordinator) handleCompleteBatch(w http.ResponseWriter, r *http.Request) {
	var req CompleteBatchRequestV1
	if !decodeBody(w, r, &req) {
		return
	}
	for i, comp := range req.Completions {
		if (comp.Value == nil) == (comp.Err == "") {
			http.Error(w, fmt.Sprintf("sweepd: completion must set exactly one of value and err (lease %s)",
				comp.LeaseID), http.StatusBadRequest)
			return
		}
		// Canonicalize each value once, here: from now on it is cached,
		// delivered and written out as it is.
		if comp.Value != nil {
			v, err := runner.CanonicalJSON(comp.Value)
			if err != nil {
				http.Error(w, fmt.Sprintf("sweepd: completion value (lease %s): %v", comp.LeaseID, err),
					http.StatusBadRequest)
				return
			}
			req.Completions[i].Value = v
		}
	}
	// Group by shard so each shard's lock is taken once and its cache store
	// is flushed once per batch, not once per job.
	var resp CompleteBatchResponseV1
	byShard := map[*shard][]CompleteRequestV1{}
	var order []*shard
	for _, comp := range req.Completions {
		s := c.leaseShard(comp.LeaseID)
		if s == nil {
			resp.Lost = append(resp.Lost, comp.LeaseID)
			continue
		}
		if _, ok := byShard[s]; !ok {
			order = append(order, s)
		}
		byShard[s] = append(byShard[s], comp)
	}
	var deliveries []delivery
	for _, s := range order {
		ds, lost := c.completeShardBatch(s, byShard[s])
		deliveries = append(deliveries, ds...)
		resp.Lost = append(resp.Lost, lost...)
	}
	for _, d := range deliveries {
		c.fanOut(d)
	}
	writeJSON(w, resp)
}

// completeShardBatch resolves a batch of completions that all belong to one
// shard under a single lock hold, with one cache flush for the whole batch.
// The cache write happens before the lock is released, so a concurrent
// submit sees either the in-flight task or the cached result, never a gap
// that would re-execute the spec. A completion on a revoked lease is
// returned in lost: determinism makes the duplicate result redundant.
func (c *Coordinator) completeShardBatch(s *shard, comps []CompleteRequestV1) (ds []delivery, lost []string) {
	var records []runner.BatchEntry
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, comp := range comps {
		l, ok := s.leases[comp.LeaseID]
		if !ok {
			lost = append(lost, comp.LeaseID)
			continue
		}
		delete(s.leases, comp.LeaseID)
		c.stats.activeLeases.Add(-1)
		t := l.t
		if t.done {
			continue
		}
		t.done = true
		if comp.Err == "" {
			c.stats.executed.Add(1)
			records = append(records, runner.BatchEntry{Key: t.fp, Value: comp.Value})
		} else {
			c.stats.failed.Add(1)
		}
		delete(s.pending, t.fp)
		ds = append(ds, delivery{t: t, out: OutcomeV1{Value: comp.Value, Err: comp.Err},
			worker: l.worker, elapsed: comp.ElapsedMillis})
	}
	if err := s.cache.RecordBatch(records); err != nil {
		// A cache write failure costs future hits, never these results.
		c.logf("sweepd: recording %d results on shard %d: %v", len(records), s.idx, err)
	}
	return ds, lost
}

// reap periodically revokes expired leases. A revoked job returns to the
// front of its shard's queue; one that has exhausted MaxAttempts fails
// permanently.
func (c *Coordinator) reap() {
	defer close(c.reapDone)
	tick := time.NewTicker(c.cfg.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-tick.C:
		}
		now := time.Now()
		var abandoned []delivery
		requeued := false
		for _, s := range c.shards {
			s.mu.Lock()
			for id, l := range s.leases {
				if !l.deadline.Before(now) {
					continue
				}
				delete(s.leases, id)
				c.stats.activeLeases.Add(-1)
				t := l.t
				if t.done {
					continue
				}
				t.attempts++
				if t.attempts >= c.cfg.MaxAttempts {
					t.done = true
					delete(s.pending, t.fp)
					c.stats.failed.Add(1)
					msg := fmt.Sprintf("abandoned after %d expired leases (last worker %q)",
						t.attempts, l.worker)
					c.logf("sweepd: job %q %s", t.job.Key, msg)
					abandoned = append(abandoned, delivery{t: t, out: OutcomeV1{Err: msg}})
					continue
				}
				c.stats.requeues.Add(1)
				c.stats.queueDepth.Add(1)
				s.queue = append([]*task{t}, s.queue...)
				requeued = true
				c.logf("sweepd: lease on %q expired (worker %q); re-queued (attempt %d)",
					t.job.Key, l.worker, t.attempts)
			}
			s.mu.Unlock()
		}
		if requeued {
			c.signalWork()
		}
		for _, d := range abandoned {
			c.fanOut(d)
		}
	}
}

func (c *Coordinator) lookupSweep(w http.ResponseWriter, r *http.Request) *sweepState {
	c.sweepMu.Lock()
	sw := c.sweeps[r.PathValue("id")]
	c.sweepMu.Unlock()
	if sw == nil {
		http.Error(w, "sweepd: no such sweep", http.StatusNotFound)
	}
	return sw
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	sw := c.lookupSweep(w, r)
	if sw == nil {
		return
	}
	sw.mu.Lock()
	st := SweepStatusV1{SweepID: sw.id, Meta: sw.meta, Total: len(sw.outcomes),
		Completed: len(sw.outcomes) - sw.remaining, Failed: sw.failed,
		CacheHits: sw.cacheHits, Done: sw.remaining == 0}
	sw.mu.Unlock()
	writeJSON(w, st)
}

func (c *Coordinator) handleOutcomes(w http.ResponseWriter, r *http.Request) {
	sw := c.lookupSweep(w, r)
	if sw == nil {
		return
	}
	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait {
		select {
		case <-sw.done:
		case <-r.Context().Done():
			return
		case <-c.closed:
			http.Error(w, "sweepd: coordinator shutting down", http.StatusServiceUnavailable)
			return
		}
	}
	buf := getBuf()
	defer putBuf(buf)
	sw.mu.Lock()
	buf.Write(appendOutcomes(buf.AvailableBuffer(), sw.id, sw.remaining == 0, sw.outcomes))
	sw.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

// appendOutcomes appends the OutcomesResponseV1 line that writeJSON would
// write for a sweep, field by field in OutcomeV1's order and under its
// omitempty rules. Each value is copied as it is: values are canonical from
// the moment they reach the coordinator (handleCompleteBatch, and
// runner.LoadCheckpoint for the cache file), and canonical is exactly what
// encoding/json would re-compact them to.
func appendOutcomes(b []byte, sweepID string, done bool, outs []OutcomeV1) []byte {
	b = append(b, `{"sweep_id":`...)
	b = appendString(b, sweepID)
	b = append(b, `,"done":`...)
	b = strconv.AppendBool(b, done)
	b = append(b, `,"outcomes":[`...)
	for i := range outs {
		o := &outs[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(o.ID), 10)
		b = append(b, `,"key":`...)
		b = appendString(b, o.Key)
		if len(o.Value) > 0 {
			b = append(b, `,"value":`...)
			b = append(b, o.Value...)
		}
		if o.Err != "" {
			b = append(b, `,"err":`...)
			b = appendString(b, o.Err)
		}
		if o.CacheHit {
			b = append(b, `,"cache_hit":true`...)
		}
		if o.Worker != "" {
			b = append(b, `,"worker":`...)
			b = appendString(b, o.Worker)
		}
		if o.ElapsedMillis != 0 {
			b = append(b, `,"elapsed_ms":`...)
			b = strconv.AppendInt(b, o.ElapsedMillis, 10)
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// appendString appends s quoted as encoding/json quotes it. Printable ASCII
// that needs no escape, which is what keys, worker names and sweep IDs
// usually are, goes between the quotes as it is; any other string goes
// through json.Marshal, which escapes HTML characters and replaces invalid
// UTF-8.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// maxEventBuffer caps a subscriber's buffer of undelivered events, so an
// event stream's memory does not grow with its sweep's size: 1,024 events
// (112 KiB) absorb several completion batches while the client reads, and
// deliver drops progress lines for a subscriber that falls further behind.
const maxEventBuffer = 1024

// handleEvents streams a sweep's progress as NDJSON: one EventV1 per
// completed job (already-completed jobs replay first, so a late subscriber
// sees the full history), then a final "sweep" summary line.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	sw := c.lookupSweep(w, r)
	if sw == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "sweepd: streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")

	// Note which slots are done and subscribe under one lock hold, so no event
	// is lost between the replay and the live stream. The replay events are
	// encoded after the lock is released: deliver writes each slot once,
	// under this lock, so a slot done here stays as it is. One bit per slot
	// keeps the snapshot small however many jobs have finished.
	sw.mu.Lock()
	done := make([]uint64, (len(sw.outcomes)+63)/64)
	for i := range sw.outcomes {
		if sw.outcomes[i].done() {
			done[i/64] |= 1 << (i % 64)
		}
	}
	sw.subSeq++
	subID := sw.subSeq
	sub := make(chan EventV1, min(4*len(sw.outcomes)+16, maxEventBuffer))
	sw.subs[subID] = sub
	sw.mu.Unlock()

	unsubscribe := func() {
		sw.mu.Lock()
		delete(sw.subs, subID)
		sw.mu.Unlock()
	}
	defer unsubscribe()

	// Every line is encoded from ev, so the stream allocates it once.
	var ev EventV1
	enc := json.NewEncoder(w)
	emit := func() bool {
		if err := enc.Encode(&ev); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	completed := 0
	for i := range sw.outcomes {
		if done[i/64]&(1<<(i%64)) == 0 {
			continue
		}
		o := &sw.outcomes[i]
		completed++
		ev = EventV1{Type: "job", SweepID: sw.id, ID: o.ID,
			Key: o.Key, CacheHit: o.CacheHit, Err: o.Err, Worker: o.Worker,
			Completed: completed, Total: len(sw.outcomes)}
		if !emit() {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-c.closed:
			return
		case ev = <-sub:
			if !emit() {
				return
			}
		case <-sw.done:
			// Events are buffered before done closes; drain, then summarize.
			for {
				select {
				case ev = <-sub:
					if !emit() {
						return
					}
					continue
				default:
				}
				break
			}
			sw.mu.Lock()
			ev = EventV1{Type: "sweep", SweepID: sw.id,
				Completed: len(sw.outcomes) - sw.remaining, Total: len(sw.outcomes)}
			sw.mu.Unlock()
			emit()
			return
		}
	}
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.Stats())
}
