package main

import (
	"bytes"
	"fmt"

	"memsched/internal/sweepd"
)

// bench is one benchmark run of one workload.
type bench struct {
	workload string
	seed     uint64
	plan     *plan
	// minSweeps is the fewest fresh sweeps a timed pass runs (see runPass).
	minSweeps int
	// seen is the first digest observed for each job key in this run, from
	// any round or pass; every later one must equal it.
	seen map[string]uint64
	// setupChecks and setupFailures count the set-up's own outcome checks
	// (the stub payload's digest); setupMsgs keeps the first failures.
	setupChecks, setupFailures int
	setupMsgs                  []string
}

// maxReported caps the failure messages kept for the report.
const maxReported = 5

func (b *bench) fail(ps *passStats, msg string) {
	if len(ps.firstFailures) < maxReported {
		ps.firstFailures = append(ps.firstFailures, msg)
	}
}

// checkDigest compares a simulation's digest with the one seen earlier in
// the run for the same job and, on the default seed, with the pinned one.
func (b *bench) checkDigest(key string, d uint64) error {
	if prev, ok := b.seen[key]; ok && prev != d {
		return fmt.Errorf("%s: digest %016x differs from %016x earlier in the run", key, d, prev)
	}
	b.seen[key] = d
	if b.seed != defaultSeed {
		return nil
	}
	want, ok := pins[b.workload][key]
	if !ok {
		return fmt.Errorf("%s: no digest pinned for seed %d", key, defaultSeed)
	}
	if d != want {
		return fmt.Errorf("%s: digest %016x, pinned %016x", key, d, want)
	}
	return nil
}

// checkFresh checks a fresh sweep's outcomes: one per job, in order, each
// the stub payload or a Result with the expected digest. It records each
// payload in fresh for the cached resubmissions and returns the number of
// failed jobs.
func (b *bench) checkFresh(ps *passStats, jobs []sweepd.JobV1, out sweepd.OutcomesResponseV1, fresh map[string][]byte) int {
	if len(out.Outcomes) != len(jobs) || !out.Done {
		b.fail(ps, fmt.Sprintf("sweep returned %d outcomes for %d jobs (done %v)", len(out.Outcomes), len(jobs), out.Done))
		return len(jobs)
	}
	failed := 0
	for i, o := range out.Outcomes {
		fresh[o.Key] = o.Value
		if err := b.checkOutcome(jobs[i], o); err != nil {
			b.fail(ps, err.Error())
			failed++
		}
	}
	return failed
}

func (b *bench) checkOutcome(job sweepd.JobV1, o sweepd.OutcomeV1) error {
	if o.Key != job.Key || o.CacheHit {
		return fmt.Errorf("outcome %q (cache hit %v) in the slot of fresh job %q", o.Key, o.CacheHit, job.Key)
	}
	if b.plan.stub != nil {
		if !bytes.Equal(o.Value, b.plan.stub) {
			return fmt.Errorf("%s: payload differs from the stub (err %q)", job.Key, o.Err)
		}
		return nil
	}
	res, err := o.Result()
	if err != nil {
		return err
	}
	return b.checkDigest(job.Key, digest(&res))
}

// checkCached counts the resubmitted outcomes that are not cache hits
// carrying the fresh payload byte for byte.
func checkCached(jobs []sweepd.JobV1, out sweepd.OutcomesResponseV1, fresh map[string][]byte) int {
	if len(out.Outcomes) != len(jobs) {
		return len(jobs)
	}
	bad := 0
	for i, o := range out.Outcomes {
		if o.Key != jobs[i].Key || !o.CacheHit || !bytes.Equal(o.Value, fresh[o.Key]) {
			bad++
		}
	}
	return bad
}
