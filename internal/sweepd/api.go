// Package sweepd turns the in-process experiment runner into a long-running
// distributed job system: a coordinator accepts RunSpec matrices over a
// versioned HTTP/JSON API, shards jobs to worker processes that claim work
// under a lease-with-heartbeat protocol (dead workers' jobs are re-queued),
// streams live per-job progress to clients, and fronts everything with a
// content-addressed result cache so repeated or overlapping sweeps are
// nearly free.
//
// The package is the service layer over internal/runner's engine: workers
// execute jobs through runner.Execute (the same panic isolation and timeout
// semantics the in-process pool has), and the coordinator's result cache is a
// runner.Checkpoint keyed by spec fingerprints instead of job keys. Outcomes
// are aggregated in admission order, so a remote sweep is byte-identical to
// the same matrix run in-process, regardless of which worker ran what.
//
// Wire protocol (all JSON, rooted at /v1/):
//
//	POST /v1/sweeps               SweepRequestV1  -> SubmitResponseV1
//	GET  /v1/sweeps/{id}                          -> SweepStatusV1
//	GET  /v1/sweeps/{id}/outcomes[?wait=1]        -> OutcomesResponseV1
//	GET  /v1/sweeps/{id}/events                   -> NDJSON stream of EventV1
//	POST /v1/claim                ClaimRequestV1  -> ClaimResponseV1
//	POST /v1/heartbeats           HeartbeatBatchRequestV1 -> HeartbeatBatchResponseV1
//	POST /v1/completes            CompleteBatchRequestV1  -> CompleteBatchResponseV1
//	GET  /v1/stats                                -> StatsV1
//	GET  /v1/healthz                              -> 200 "ok"
//
// The lease endpoints are batched: ClaimRequestV1.Max asks for up to N leases
// in one round trip, and one heartbeat or completion request covers any
// number of leases. A lease the coordinator has revoked comes back in the
// response's Lost list. A batch of one is just a batch.
package sweepd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"memsched/internal/config"
	"memsched/internal/sched"
	"memsched/internal/sim"
	"memsched/internal/workload"
)

// APIVersion is the wire-protocol version segment of every endpoint path.
// Breaking schema changes bump it; /v1/ types are frozen.
const APIVersion = "v1"

// JobSpecV1 is the canonical serializable description of one simulation run —
// the wire twin of sim.RunSpec, restricted to what can travel between
// processes (no callbacks, no custom policies, no telemetry sinks). Its
// fingerprint is the content address of the run's result.
type JobSpecV1 struct {
	// Mix names a Table 3 workload; Apps lists Table 2 code letters for an
	// ad-hoc application list. Exactly one must be set.
	Mix  string `json:"mix,omitempty"`
	Apps string `json:"apps,omitempty"`
	// Policy is the scheduling policy registry name (see package sched).
	Policy string `json:"policy"`
	// Instr is the per-core instruction slice; it must be positive.
	Instr uint64 `json:"instr"`
	// ME holds per-core memory-efficiency values from profiling; nil falls
	// back to the paper's Table 2 numbers.
	ME []float64 `json:"me,omitempty"`
	// Seed drives every random stream of the run.
	Seed uint64 `json:"seed"`
	// Config overrides the default Table 1 machine.
	Config *config.Config `json:"config,omitempty"`
	// OnlineME/OnlineEpoch enable the runtime ME estimator (see sim.RunSpec).
	OnlineME    bool  `json:"online_me,omitempty"`
	OnlineEpoch int64 `json:"online_epoch,omitempty"`
	// WarmupInstr/NoWarmup control the fast-forward phase (see sim.Options).
	WarmupInstr uint64 `json:"warmup_instr,omitempty"`
	NoWarmup    bool   `json:"no_warmup,omitempty"`
	// NoCycleSkip disables next-event time advance. It is part of the
	// fingerprint because Result.SkippedCycles depends on it.
	NoCycleSkip bool `json:"no_cycle_skip,omitempty"`
	// MaxCycles bounds the run (0 selects a generous default).
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// Classes assigns a serving class per core, one letter each ('L' =
	// latency-critical, 'B' = best-effort), e.g. "LBBB". Empty means all
	// best-effort. It shapes scheduling under class-aware policies and the
	// per-class latency split in the Result, so it is part of the
	// fingerprint; omitempty keeps classless specs' fingerprints unchanged.
	Classes string `json:"classes,omitempty"`
}

// Fingerprint returns the content address of the spec's result: a SHA-256
// over the canonical JSON encoding. Two specs with equal fingerprints produce
// byte-identical Result JSON, so the coordinator serves one's cached outcome
// for the other.
func (s JobSpecV1) Fingerprint() string {
	blob, err := json.Marshal(s)
	if err != nil {
		// Every field is a plain value; Marshal cannot fail on this type.
		panic(fmt.Sprintf("sweepd: fingerprinting spec: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// RunSpec resolves the wire spec into an executable sim.RunSpec, validating
// the workload reference, the policy, the ME vector and the machine the way
// the simulator will. It is called by workers before running and by the
// coordinator at submit time so malformed specs fail fast with a 400 instead
// of burning a worker slot.
func (s JobSpecV1) RunSpec() (sim.RunSpec, error) {
	spec := sim.RunSpec{
		Policy:      s.Policy,
		Instr:       s.Instr,
		Seed:        s.Seed,
		Config:      s.Config,
		OnlineME:    s.OnlineME,
		OnlineEpoch: s.OnlineEpoch,
		WarmupInstr: s.WarmupInstr,
		NoWarmup:    s.NoWarmup,
		NoCycleSkip: s.NoCycleSkip,
		MaxCycles:   s.MaxCycles,
	}
	switch {
	case s.Mix != "" && s.Apps != "":
		return sim.RunSpec{}, fmt.Errorf("sweepd: spec sets both mix %q and apps %q", s.Mix, s.Apps)
	case s.Mix != "":
		mix, err := workload.MixByName(s.Mix)
		if err != nil {
			return sim.RunSpec{}, err
		}
		spec.Mix = mix
	case s.Apps != "":
		apps := make([]workload.App, len(s.Apps))
		for i := 0; i < len(s.Apps); i++ {
			app, err := workload.ByCode(s.Apps[i])
			if err != nil {
				return sim.RunSpec{}, err
			}
			apps[i] = app
		}
		spec.Apps = apps
	default:
		return sim.RunSpec{}, fmt.Errorf("sweepd: spec names neither a mix nor apps")
	}
	if s.Instr == 0 {
		return sim.RunSpec{}, fmt.Errorf("sweepd: spec has zero instruction count")
	}
	// Validate the policy name here too, so a typo is a 400 at submit time —
	// with the registry listed in the message — rather than a failed job after
	// a worker claimed the lease.
	cores := len(spec.Apps)
	if spec.Mix.Name != "" {
		cores = len(spec.Mix.Codes)
	}
	if _, err := sched.New(s.Policy, cores); err != nil {
		return sim.RunSpec{}, fmt.Errorf("sweepd: %w", err)
	}
	classes, err := workload.ParseServiceClasses(s.Classes, cores)
	if err != nil {
		return sim.RunSpec{}, fmt.Errorf("sweepd: %w", err)
	}
	spec.Classes = classes
	// An empty ME list encodes like a nil one (omitempty), so it means the
	// same thing: the Table 2 fallback.
	if len(s.ME) > 0 {
		if len(s.ME) != cores {
			return sim.RunSpec{}, fmt.Errorf("sweepd: %d ME values for %d cores", len(s.ME), cores)
		}
		for i, v := range s.ME {
			if !(v > 0 && v <= math.MaxFloat64) {
				return sim.RunSpec{}, fmt.Errorf("sweepd: core %d has invalid memory efficiency %v", i, v)
			}
		}
		spec.ME = s.ME
	}
	// Check the machine exactly as sim.New will: the override (or the
	// default) with its core count forced to the workload's.
	cfg := config.Default(cores)
	if s.Config != nil {
		cfg = *s.Config
	}
	cfg.Cores = cores
	if err := cfg.Validate(); err != nil {
		return sim.RunSpec{}, fmt.Errorf("sweepd: %w", err)
	}
	return spec, nil
}

// JobV1 is one admitted unit of work: the admission ID that fixes its slot in
// the sweep's aggregated output, a human-readable key (unique within the
// sweep), and the spec to execute.
type JobV1 struct {
	ID   int       `json:"id"`
	Key  string    `json:"key"`
	Spec JobSpecV1 `json:"spec"`
}

// SweepRequestV1 submits a job matrix. Meta is a display label (it does not
// affect caching — results are content-addressed by spec fingerprint alone).
type SweepRequestV1 struct {
	Meta string  `json:"meta,omitempty"`
	Jobs []JobV1 `json:"jobs"`
}

// SubmitResponseV1 acknowledges a submitted sweep.
type SubmitResponseV1 struct {
	SweepID string `json:"sweep_id"`
	Jobs    int    `json:"jobs"`
	// CacheHits counts jobs satisfied immediately from the result cache;
	// Coalesced counts jobs attached to an identical in-flight job from an
	// overlapping sweep. Neither will be executed again.
	CacheHits int `json:"cache_hits"`
	Coalesced int `json:"coalesced"`
}

// OutcomeV1 is one job's result. Value holds the worker's canonical JSON
// encoding of sim.Result, stored and relayed verbatim — the bytes a client
// receives are the bytes the worker produced (or the cache recorded), which
// is what makes remote outcomes byte-comparable to local ones.
type OutcomeV1 struct {
	ID       int             `json:"id"`
	Key      string          `json:"key"`
	Value    json.RawMessage `json:"value,omitempty"`
	Err      string          `json:"err,omitempty"`
	CacheHit bool            `json:"cache_hit,omitempty"`
	Worker   string          `json:"worker,omitempty"`
	// ElapsedMillis is the executing worker's wall clock (0 on cache hits).
	ElapsedMillis int64 `json:"elapsed_ms,omitempty"`
}

// done reports whether the outcome slot has been filled.
func (o *OutcomeV1) done() bool { return o.Value != nil || o.Err != "" }

// Result decodes the outcome's sim.Result.
func (o *OutcomeV1) Result() (sim.Result, error) {
	if o.Err != "" {
		return sim.Result{}, fmt.Errorf("sweepd: job %q failed remotely: %s", o.Key, o.Err)
	}
	var res sim.Result
	if err := json.Unmarshal(o.Value, &res); err != nil {
		return sim.Result{}, fmt.Errorf("sweepd: decoding outcome %q: %w", o.Key, err)
	}
	return res, nil
}

// SweepStatusV1 is a point-in-time progress summary.
type SweepStatusV1 struct {
	SweepID   string `json:"sweep_id"`
	Meta      string `json:"meta,omitempty"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"` // includes cache hits and failures
	Failed    int    `json:"failed"`
	CacheHits int    `json:"cache_hits"`
	Done      bool   `json:"done"`
}

// OutcomesResponseV1 carries a sweep's outcomes in admission order. Slots of
// jobs still in flight are zero-valued unless the request waited for
// completion (?wait=1).
type OutcomesResponseV1 struct {
	SweepID  string      `json:"sweep_id"`
	Done     bool        `json:"done"`
	Outcomes []OutcomeV1 `json:"outcomes"`
}

// EventV1 is one line of a sweep's NDJSON progress stream. Type "job" marks a
// completed job (cached, succeeded, or failed); type "sweep" is the final
// summary line before the stream closes.
type EventV1 struct {
	Type     string `json:"type"`
	SweepID  string `json:"sweep_id"`
	ID       int    `json:"id,omitempty"`
	Key      string `json:"key,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Err      string `json:"err,omitempty"`
	Worker   string `json:"worker,omitempty"`
	// Completed/Total snapshot the sweep's progress after this event.
	Completed int `json:"completed"`
	Total     int `json:"total"`
}

// ClaimRequestV1 asks for job leases. Worker is a display name used in
// outcomes and logs; Max is the most leases wanted in this round trip (values
// below 1 ask for one).
type ClaimRequestV1 struct {
	Worker string `json:"worker"`
	Max    int    `json:"max,omitempty"`
}

// LeaseV1 is one granted lease: the ID the worker heartbeats and completes
// under, and the job it covers.
type LeaseV1 struct {
	LeaseID string `json:"lease_id"`
	Job     JobV1  `json:"job"`
}

// ClaimResponseV1 grants up to Max leases; an empty Leases list means the
// queue was empty. The worker must heartbeat each lease every
// HeartbeatMillis, or the lease is revoked and its job re-queued.
type ClaimResponseV1 struct {
	Leases          []LeaseV1 `json:"leases,omitempty"`
	HeartbeatMillis int64     `json:"heartbeat_ms,omitempty"`
}

// CompleteRequestV1 reports one finished job inside a CompleteBatchRequestV1.
// Exactly one of Value (the canonical sim.Result JSON) and Err is set.
type CompleteRequestV1 struct {
	LeaseID       string          `json:"lease_id"`
	Value         json.RawMessage `json:"value,omitempty"`
	Err           string          `json:"err,omitempty"`
	ElapsedMillis int64           `json:"elapsed_ms,omitempty"`
}

// HeartbeatBatchRequestV1 extends several leases in one round trip.
type HeartbeatBatchRequestV1 struct {
	LeaseIDs []string `json:"lease_ids"`
}

// HeartbeatBatchResponseV1 lists the lease IDs that were already revoked
// (their runs must be abandoned); every other lease was extended. A partial
// revocation is still a 200: the batch succeeds as a whole.
type HeartbeatBatchResponseV1 struct {
	Lost []string `json:"lost,omitempty"`
}

// CompleteBatchRequestV1 reports several finished jobs in one round trip.
type CompleteBatchRequestV1 struct {
	Completions []CompleteRequestV1 `json:"completions"`
}

// CompleteBatchResponseV1 lists the lease IDs whose results were discarded
// because the lease had been revoked (the job was re-queued or finished
// elsewhere — determinism makes the duplicate redundant). Every other
// completion was recorded.
type CompleteBatchResponseV1 struct {
	Lost []string `json:"lost,omitempty"`
}

// StatsV1 is the coordinator's operational counter snapshot.
type StatsV1 struct {
	Sweeps       int64 `json:"sweeps"`
	Executed     int64 `json:"executed"` // jobs completed by workers
	Failed       int64 `json:"failed"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"` // submitted jobs not served from cache
	Coalesced    int64 `json:"coalesced"`    // jobs merged into in-flight twins
	Requeues     int64 `json:"requeues"`     // jobs reclaimed from dead workers
	QueueDepth   int64 `json:"queue_depth"`
	ActiveLeases int64 `json:"active_leases"`
	CacheEntries int64 `json:"cache_entries"`
	Shards       int   `json:"shards"`
}
