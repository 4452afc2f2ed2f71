// Package runner is the parallel experiment engine: it fans a job matrix —
// (workload, policy, seed, replication) tuples, knob sweeps, anything that
// can be keyed — across a bounded worker pool and aggregates the outcomes in
// deterministic admission order, so a parallel sweep is byte-identical to a
// serial one.
//
// The engine adds the operational layer a paper-scale sweep needs and a bare
// WaitGroup fan-out lacks:
//
//   - context cancellation, observed mid-simulation (sim.System polls its
//     context every sim.CancelCheckCycles cycles), so Ctrl-C returns within
//     milliseconds instead of after the current multi-second run;
//   - per-job panic isolation: a crashed run (e.g. a buggy custom policy)
//     becomes that job's *PanicError instead of killing the whole sweep;
//   - per-job timeouts;
//   - live progress reporting at a fixed interval;
//   - JSON checkpointing: every completed job is persisted immediately, and
//     a later invocation with the same checkpoint file resumes, skipping the
//     jobs already done.
//
// internal/lab, cmd/experiments and cmd/sweep all run on this engine.
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Job is one unit of work: a stable Key (the checkpoint identity) plus the
// admission ID that fixes its slot in the aggregated output.
type Job struct {
	ID  int    `json:"id"`
	Key string `json:"key"`
}

// NewJobs assigns sequential admission IDs to keys, in order.
func NewJobs(keys []string) []Job {
	jobs := make([]Job, len(keys))
	for i, k := range keys {
		jobs[i] = Job{ID: i, Key: k}
	}
	return jobs
}

// Func executes one job. The context it receives is the pool context,
// narrowed by the per-job timeout when one is configured; implementations
// should pass it down into sim so cancellation lands mid-simulation.
type Func[T any] func(ctx context.Context, job Job) (T, error)

// Options configures a Run.
type Options struct {
	// Workers bounds the pool; 0 selects GOMAXPROCS. Workers=1 is the
	// serial reference ordering every other width must reproduce.
	Workers int
	// JobTimeout bounds each job's wall clock (0 = unbounded). An expired
	// job fails with context.DeadlineExceeded; the sweep continues.
	JobTimeout time.Duration
	// Progress is the interval between progress lines (0 disables them).
	Progress time.Duration
	// Logf receives progress lines (nil disables them).
	Logf func(format string, args ...any)
	// Checkpoint is the path of the JSON checkpoint file ("" disables
	// checkpointing). Completed jobs are flushed to it as they finish; if
	// the file already exists, its jobs are resumed instead of re-run.
	Checkpoint string
	// Meta fingerprints the matrix (instruction counts, seeds, flags...).
	// It is stored in the checkpoint; a checkpoint written under a different
	// Meta — or one that fails to decode — is moved aside to Checkpoint+".bak"
	// and the sweep starts clean (see LoadCheckpoint). Stale results are never
	// spliced in, and a corrupt file never refuses the run.
	Meta string
}

// Outcome is one job's result in admission order.
type Outcome[T any] struct {
	Job     Job
	Value   T
	Err     error
	Resumed bool          // satisfied from the checkpoint, not executed
	Elapsed time.Duration // execution wall clock (zero when resumed)
}

// PanicError wraps a panic raised inside a job.
type PanicError struct {
	Job   Job
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %q panicked: %v", e.Job.Key, e.Value)
}

// FirstError returns the first failed outcome's error in admission order
// (wrapped with its job key), or nil when every job succeeded.
func FirstError[T any](outs []Outcome[T]) error {
	for _, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("runner: job %q: %w", o.Job.Key, o.Err)
		}
	}
	return nil
}

// Run executes jobs on the worker pool and returns their outcomes indexed
// exactly like jobs — position i of the result is job i, whatever order the
// pool finished them in, so aggregation code iterates admission-ID order and
// produces output independent of Workers.
//
// Job failures (including panics and timeouts) do not abort the sweep; they
// are reported per-outcome (see FirstError). Run's own error is non-nil only
// when ctx was cancelled — the outcomes of jobs that never ran carry ctx's
// error too — or when the checkpoint file cannot be read or written. The
// checkpoint is flushed after every completed job, so even a cancelled or
// killed sweep resumes from everything that finished.
func Run[T any](ctx context.Context, jobs []Job, fn Func[T], opts Options) ([]Outcome[T], error) {
	outs := make([]Outcome[T], len(jobs))
	byKey := make(map[string]int, len(jobs))
	for i, j := range jobs {
		if j.Key == "" {
			return nil, fmt.Errorf("runner: job %d has an empty key", i)
		}
		if prev, dup := byKey[j.Key]; dup {
			return nil, fmt.Errorf("runner: jobs %d and %d share key %q", prev, i, j.Key)
		}
		byKey[j.Key] = i
		outs[i].Job = j
	}

	var cp *Checkpoint
	if opts.Checkpoint != "" {
		var err error
		cp, err = LoadCheckpoint(opts.Checkpoint, opts.Meta, opts.Logf)
		if err != nil {
			return nil, err
		}
	}
	var pending []int
	for i := range jobs {
		if raw, ok := cp.Lookup(jobs[i].Key); ok {
			var v T
			if err := json.Unmarshal(raw, &v); err != nil {
				return nil, fmt.Errorf("runner: checkpoint entry %q: %w", jobs[i].Key, err)
			}
			outs[i].Value = v
			outs[i].Resumed = true
			continue
		}
		pending = append(pending, i)
	}

	var completed, failed atomic.Int64
	start := time.Now()
	progressDone := make(chan struct{})
	if opts.Progress > 0 && opts.Logf != nil {
		go func() {
			tick := time.NewTicker(opts.Progress)
			defer tick.Stop()
			for {
				select {
				case <-progressDone:
					return
				case <-tick.C:
					c, f := completed.Load(), failed.Load()
					opts.Logf("runner: %d/%d jobs done (%d resumed, %d failed), %s elapsed",
						int(c)+len(jobs)-len(pending), len(jobs), len(jobs)-len(pending), f,
						time.Since(start).Round(time.Millisecond))
				}
			}
		}()
	}
	defer close(progressDone)

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	jobCh := make(chan int, len(pending))
	for _, i := range pending {
		jobCh <- i
	}
	close(jobCh)

	// ran[i] is written only by the worker that owns job i and read only
	// after wg.Wait, so the WaitGroup provides the happens-before edge.
	ran := make([]bool, len(outs))
	var cpErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobCh {
				// Between jobs: stop picking up new work once cancelled.
				if ctx.Err() != nil {
					return
				}
				ran[i] = true
				t0 := time.Now()
				outs[i].Value, outs[i].Err = Execute(ctx, outs[i].Job, fn, opts.JobTimeout)
				outs[i].Elapsed = time.Since(t0)
				if outs[i].Err != nil {
					failed.Add(1)
					continue
				}
				completed.Add(1)
				if err := cp.Record(outs[i].Job.Key, outs[i].Value); err != nil {
					e := err
					cpErr.Store(&e)
					return
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		// Jobs that never ran inherit the cancellation error so callers can
		// tell "not attempted" from "succeeded with a zero value".
		for i := range outs {
			if !outs[i].Resumed && !ran[i] {
				outs[i].Err = err
			}
		}
		return outs, err
	}
	if perr := cpErr.Load(); perr != nil {
		return outs, *perr
	}
	return outs, nil
}

// Execute runs a single job with panic isolation and an optional timeout: a
// panic inside fn becomes the job's *PanicError instead of crashing the
// process, and a positive timeout narrows ctx for the duration of the job.
// Run uses it for every pool job; the sweep service's worker loop uses it
// directly so a remote job crash is reported exactly like a local one.
func Execute[T any](ctx context.Context, job Job, fn Func[T], timeout time.Duration) (val T, err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Job: job, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, job)
}

// Checkpoint is the persistent completed-job store: a meta-fingerprinted map
// of key -> marshaled value, flushed atomically on every Record. Run uses it
// for -resume checkpoints; the sweep service's coordinator reuses it as the
// content-addressed result cache (keys there are spec fingerprints). A nil
// *Checkpoint (no path configured) is valid and inert, so call sites need no
// branching.
type Checkpoint struct {
	path string
	mu   sync.Mutex
	file checkpointFile
}

type checkpointFile struct {
	Version int                        `json:"version"`
	Meta    string                     `json:"meta,omitempty"`
	Jobs    map[string]json.RawMessage `json:"jobs"`
}

const checkpointVersion = 1

// LoadCheckpoint opens (or initializes) the store at path. An empty path is a
// purely in-memory store: Lookup and Record work, nothing touches disk.
//
// A file that cannot be decoded, carries an unknown version, or was written
// under a different meta fingerprint is NOT an error and is NOT spliced in:
// the stale file is moved aside to path+".bak", a warning goes to logf, and
// the run starts from a clean slate — corruption or a re-parameterized sweep
// costs re-simulation, never wrong results and never a refused run. Only I/O
// errors (unreadable file) are returned.
func LoadCheckpoint(path, meta string, logf func(format string, args ...any)) (*Checkpoint, error) {
	cp := &Checkpoint{path: path, file: checkpointFile{
		Version: checkpointVersion,
		Meta:    meta,
		Jobs:    map[string]json.RawMessage{},
	}}
	if path == "" {
		return cp, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return cp, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runner: reading checkpoint: %w", err)
	}
	discard := func(reason string) (*Checkpoint, error) {
		if err := os.Rename(path, path+".bak"); err != nil {
			return nil, fmt.Errorf("runner: moving %s checkpoint aside: %w", reason, err)
		}
		if logf != nil {
			logf("runner: discarding checkpoint %s (%s); previous contents saved to %s.bak",
				path, reason, path)
		}
		return cp, nil
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return discard(fmt.Sprintf("corrupt: %v", err))
	}
	if f.Version != checkpointVersion {
		return discard(fmt.Sprintf("version %d, want %d", f.Version, checkpointVersion))
	}
	if f.Meta != meta {
		return discard(fmt.Sprintf("written by a different sweep: meta %q, want %q", f.Meta, meta))
	}
	// The file holds values indented (RecordBatch writes it through
	// MarshalIndent); canonicalize them, so a reloaded value has the bytes
	// json.Marshal writes for it.
	for key, raw := range f.Jobs {
		canon, err := CanonicalJSON(raw)
		if err != nil {
			return discard(fmt.Sprintf("entry %q: %v", key, err))
		}
		f.Jobs[key] = canon
	}
	if f.Jobs != nil {
		cp.file.Jobs = f.Jobs
	}
	return cp, nil
}

// CanonicalJSON returns raw, one valid JSON value, in the form encoding/json
// writes a json.RawMessage in: compact, with <, >, &, U+2028 and U+2029
// escaped. When raw already has that form, as json.Marshal output always
// does, it returns raw itself and allocates nothing. It checks raw's syntax
// only when it has to rewrite raw, so callers pass it decoded values.
func CanonicalJSON(raw json.RawMessage) (json.RawMessage, error) {
	if canonical(raw) {
		return raw, nil
	}
	return json.Marshal(raw)
}

// canonical reports whether the valid JSON value b is in CanonicalJSON's
// form: no whitespace outside its strings, and no byte that encoding/json
// escapes in a json.RawMessage. It is a byte loop on purpose:
// bytes.ContainsAny with these runes falls into IndexAny's per-rune path.
func canonical(b []byte) bool {
	inString := false
	for i := 0; i < len(b); i++ {
		c := b[i]
		switch {
		case c == '<' || c == '>' || c == '&':
			return false
		case c == 0xE2 && i+2 < len(b) && b[i+1] == 0x80 && b[i+2]&^1 == 0xA8: // U+2028, U+2029
			return false
		case inString:
			if c == '\\' {
				i++ // an escaped byte never ends the string
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			return false
		}
	}
	return true
}

// Lookup returns the stored raw value for key, if present: canonical
// (CanonicalJSON) for a value loaded from the file, and as recorded for a
// json.RawMessage passed to Record. Safe for concurrent use with Record.
func (cp *Checkpoint) Lookup(key string) (json.RawMessage, bool) {
	if cp == nil {
		return nil, false
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	raw, ok := cp.file.Jobs[key]
	return raw, ok
}

// Len returns the number of stored entries.
func (cp *Checkpoint) Len() int {
	if cp == nil {
		return 0
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return len(cp.file.Jobs)
}

// Record persists one completed job and flushes the file atomically and
// durably (see RecordBatch), so neither a kill nor a power loss mid-write can
// corrupt the checkpoint.
// json.RawMessage values are stored verbatim, byte-for-byte.
func (cp *Checkpoint) Record(key string, value any) error {
	return cp.RecordBatch([]BatchEntry{{Key: key, Value: value}})
}

// BatchEntry is one (key, value) pair of a RecordBatch.
type BatchEntry struct {
	Key   string
	Value any
}

// RecordBatch persists several completed jobs with a single file flush — the
// flush serializes the whole store, so batching turns O(batch) flushes into
// one. An empty batch is a no-op. Values follow Record's rules
// (json.RawMessage stored verbatim, anything else marshaled once).
func (cp *Checkpoint) RecordBatch(entries []BatchEntry) error {
	if cp == nil || len(entries) == 0 {
		return nil
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for _, e := range entries {
		raw, ok := e.Value.(json.RawMessage)
		if !ok {
			var err error
			raw, err = json.Marshal(e.Value)
			if err != nil {
				return fmt.Errorf("runner: marshaling job %q for checkpoint: %w", e.Key, err)
			}
		}
		cp.file.Jobs[e.Key] = raw
	}
	if cp.path == "" {
		return nil
	}
	blob, err := json.MarshalIndent(&cp.file, "", "  ")
	if err != nil {
		return err
	}
	// The new contents reach the disk before the rename publishes them, and
	// the rename reaches it before RecordBatch returns: after a crash the
	// path holds either the previous store or this one, never a torn file.
	tmp := cp.path + ".tmp"
	if err := writeSynced(tmp, append(blob, '\n')); err != nil {
		return fmt.Errorf("runner: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, cp.path); err != nil {
		return fmt.Errorf("runner: committing checkpoint: %w", err)
	}
	if err := syncDir(filepath.Dir(cp.path)); err != nil {
		return fmt.Errorf("runner: committing checkpoint: %w", err)
	}
	return nil
}

// writeSynced writes data to path, truncating it, and fsyncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
