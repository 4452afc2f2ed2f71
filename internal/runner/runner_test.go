package runner

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

type val struct {
	N int `json:"n"`
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("job-%02d", i)
	}
	return out
}

func TestDeterministicAdmissionOrder(t *testing.T) {
	jobs := NewJobs(keys(32))
	fn := func(ctx context.Context, j Job) (val, error) {
		// Finish in scrambled wall-clock order.
		time.Sleep(time.Duration((j.ID*7)%5) * time.Millisecond)
		return val{N: j.ID * j.ID}, nil
	}
	for _, workers := range []int{1, 4, 16} {
		outs, err := Run(context.Background(), jobs, fn, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range outs {
			if o.Job.ID != i || o.Value.N != i*i || o.Err != nil {
				t.Fatalf("workers=%d: slot %d holds %+v", workers, i, o)
			}
		}
	}
}

func TestJobValidation(t *testing.T) {
	fn := func(context.Context, Job) (val, error) { return val{}, nil }
	if _, err := Run(context.Background(), []Job{{ID: 0, Key: ""}}, fn, Options{}); err == nil {
		t.Fatal("empty key accepted")
	}
	dup := []Job{{ID: 0, Key: "a"}, {ID: 1, Key: "a"}}
	if _, err := Run(context.Background(), dup, fn, Options{}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

func TestPanicIsolation(t *testing.T) {
	jobs := NewJobs(keys(8))
	fn := func(ctx context.Context, j Job) (val, error) {
		if j.ID == 3 {
			panic("policy exploded")
		}
		return val{N: j.ID}, nil
	}
	outs, err := Run(context.Background(), jobs, fn, Options{Workers: 4})
	if err != nil {
		t.Fatalf("panic aborted the sweep: %v", err)
	}
	for i, o := range outs {
		if i == 3 {
			var pe *PanicError
			if !errors.As(o.Err, &pe) {
				t.Fatalf("job 3 error = %v, want PanicError", o.Err)
			}
			if pe.Job.Key != "job-03" || len(pe.Stack) == 0 {
				t.Fatalf("panic error lacks context: %+v", pe)
			}
			continue
		}
		if o.Err != nil {
			t.Fatalf("healthy job %d failed: %v", i, o.Err)
		}
	}
	if err := FirstError(outs); err == nil || !errors.As(err, new(*PanicError)) {
		t.Fatalf("FirstError = %v", err)
	}
}

func TestJobTimeout(t *testing.T) {
	jobs := NewJobs(keys(3))
	fn := func(ctx context.Context, j Job) (val, error) {
		if j.ID == 1 {
			<-ctx.Done() // simulate a run that only stops when told to
			return val{}, ctx.Err()
		}
		return val{N: j.ID}, nil
	}
	outs, err := Run(context.Background(), jobs, fn, Options{Workers: 2, JobTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(outs[1].Err, context.DeadlineExceeded) {
		t.Fatalf("timed-out job error = %v", outs[1].Err)
	}
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatal("timeout leaked into other jobs")
	}
}

func TestCancellationPromptWithoutGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	jobs := NewJobs(keys(64))
	var started atomic.Int32
	release := make(chan struct{})
	fn := func(ctx context.Context, j Job) (val, error) {
		started.Add(1)
		select {
		case <-ctx.Done():
			return val{}, ctx.Err()
		case <-release:
			return val{N: j.ID}, nil
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for started.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	start := time.Now()
	outs, err := Run(ctx, jobs, fn, Options{Workers: 4, Progress: 50 * time.Millisecond,
		Logf: t.Logf})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	// "Within one progress interval": the pool must not wait for the queue.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	close(release)
	ranOK, cancelled := 0, 0
	for _, o := range outs {
		switch {
		case o.Err == nil:
			ranOK++
		case errors.Is(o.Err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("unexpected outcome error: %v", o.Err)
		}
	}
	if cancelled == 0 {
		t.Fatal("no job reported cancellation")
	}
	// All pool goroutines must have exited; poll briefly for the runtime to
	// settle before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt.json")
	jobs := NewJobs(keys(10))
	var executions atomic.Int32
	blockAfter := int32(4)
	ctx, cancel := context.WithCancel(context.Background())
	fn := func(c context.Context, j Job) (val, error) {
		if executions.Add(1) > blockAfter {
			cancel() // simulate an interruption partway through the sweep
			<-c.Done()
			return val{}, c.Err()
		}
		return val{N: j.ID * 10}, nil
	}
	opts := Options{Workers: 1, Checkpoint: path, Meta: "m1"}
	if _, err := Run(ctx, jobs, fn, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("first pass returned %v, want context.Canceled", err)
	}
	firstPass := executions.Load()
	if firstPass >= 10 {
		t.Fatal("interruption did not interrupt")
	}

	// The partial checkpoint must hold exactly the completed jobs.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Jobs map[string]json.RawMessage `json:"jobs"`
	}
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Jobs) != int(blockAfter) {
		t.Fatalf("checkpoint holds %d jobs, want %d", len(file.Jobs), blockAfter)
	}

	// Resume: completed jobs are skipped, the rest execute, values line up.
	executions.Store(0)
	blockAfter = 100
	fresh := func(c context.Context, j Job) (val, error) {
		executions.Add(1)
		return val{N: j.ID * 10}, nil
	}
	outs, err := Run(context.Background(), jobs, fresh, opts)
	if err != nil {
		t.Fatal(err)
	}
	resumed := 0
	for i, o := range outs {
		if o.Err != nil || o.Value.N != i*10 {
			t.Fatalf("slot %d after resume: %+v", i, o)
		}
		if o.Resumed {
			resumed++
		}
	}
	if resumed != 4 || executions.Load() != 6 {
		t.Fatalf("resume skipped %d and executed %d, want 4 and 6", resumed, executions.Load())
	}

	// A checkpoint from a different matrix must not be spliced in: the run
	// starts clean (every job re-executes) and the stale file moves to .bak.
	executions.Store(0)
	outs, err = Run(context.Background(), jobs, fresh, Options{Checkpoint: path, Meta: "other", Logf: t.Logf})
	if err != nil {
		t.Fatalf("meta mismatch refused the run: %v", err)
	}
	for i, o := range outs {
		if o.Resumed || o.Err != nil || o.Value.N != i*10 {
			t.Fatalf("slot %d after meta mismatch: %+v", i, o)
		}
	}
	if executions.Load() != 10 {
		t.Fatalf("meta mismatch executed %d jobs, want all 10", executions.Load())
	}
	if _, err := os.Stat(path + ".bak"); err != nil {
		t.Fatalf("stale checkpoint not preserved: %v", err)
	}
}

// TestCheckpointCorruptionRecovery pins the recovery contract: a truncated or
// garbage checkpoint, an unknown version, and a mismatched Meta fingerprint
// all fall back to a clean start — never an error, never silent reuse of
// stale results — with the damaged file preserved as .bak.
func TestCheckpointCorruptionRecovery(t *testing.T) {
	jobs := NewJobs(keys(4))
	fn := func(ctx context.Context, j Job) (val, error) { return val{N: j.ID + 1}, nil }

	// A valid checkpoint to corrupt, written under meta "m1".
	seedCheckpoint := func(t *testing.T, path string) []byte {
		t.Helper()
		if _, err := Run(context.Background(), jobs, fn, Options{Checkpoint: path, Meta: "m1"}); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	cases := []struct {
		name    string
		corrupt func(valid []byte) []byte
		meta    string
	}{
		{"truncated", func(v []byte) []byte { return v[:len(v)/3] }, "m1"},
		{"garbage", func(v []byte) []byte { return []byte("{\x00\xff not json") }, "m1"},
		{"version", func(v []byte) []byte {
			return []byte(`{"version": 999, "meta": "m1", "jobs": {"job-00": {"n": 777}}}`)
		}, "m1"},
		{"meta-mismatch", func(v []byte) []byte { return v }, "m2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ckpt.json")
			valid := seedCheckpoint(t, path)
			if err := os.WriteFile(path, tc.corrupt(valid), 0o644); err != nil {
				t.Fatal(err)
			}
			var executed atomic.Int32
			counting := func(ctx context.Context, j Job) (val, error) {
				executed.Add(1)
				return val{N: j.ID + 1}, nil
			}
			outs, err := Run(context.Background(), jobs, counting,
				Options{Checkpoint: path, Meta: tc.meta, Logf: t.Logf})
			if err != nil {
				t.Fatalf("recovery errored instead of starting clean: %v", err)
			}
			// Clean start: nothing resumed (no stale reuse), everything re-ran.
			if executed.Load() != int32(len(jobs)) {
				t.Fatalf("executed %d jobs, want %d", executed.Load(), len(jobs))
			}
			for i, o := range outs {
				if o.Resumed || o.Err != nil || o.Value.N != i+1 {
					t.Fatalf("slot %d: %+v", i, o)
				}
			}
			if _, err := os.Stat(path + ".bak"); err != nil {
				t.Fatalf("damaged checkpoint not moved aside: %v", err)
			}
			// The rewritten checkpoint must be healthy: a third run resumes all.
			outs, err = Run(context.Background(), jobs, counting, Options{Checkpoint: path, Meta: tc.meta})
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range outs {
				if !o.Resumed {
					t.Fatalf("slot %d not resumed from rewritten checkpoint", i)
				}
			}
		})
	}
}

// TestCheckpointInMemory pins LoadCheckpoint("") as a valid disk-free store —
// the mode the sweep coordinator uses when no cache path is configured.
func TestCheckpointInMemory(t *testing.T) {
	cp, err := LoadCheckpoint("", "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cp.Lookup("a"); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := cp.Record("a", val{N: 7}); err != nil {
		t.Fatal(err)
	}
	raw, ok := cp.Lookup("a")
	if !ok || cp.Len() != 1 {
		t.Fatalf("Lookup=%v Len=%d after Record", ok, cp.Len())
	}
	var v val
	if err := json.Unmarshal(raw, &v); err != nil || v.N != 7 {
		t.Fatalf("round trip: %v %+v", err, v)
	}
	// RawMessage values must be stored verbatim — the byte-determinism the
	// result cache relies on.
	blob := json.RawMessage(`{"n":  9}`)
	if err := cp.Record("b", blob); err != nil {
		t.Fatal(err)
	}
	got, _ := cp.Lookup("b")
	if string(got) != string(blob) {
		t.Fatalf("raw value altered: %q != %q", got, blob)
	}
}

// TestCheckpointRecordBatch pins the batched write path the sweep
// coordinator's sharded cache uses: one flush for the whole batch, values
// stored verbatim, and the file loadable by a fresh Checkpoint.
func TestCheckpointRecordBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.ckpt.json")
	cp, err := LoadCheckpoint(path, "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.RecordBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("empty batch flushed a file")
	}
	entries := []BatchEntry{
		{Key: "a", Value: val{N: 1}},
		{Key: "b", Value: json.RawMessage(`{"n":  2}`)},
		{Key: "c", Value: val{N: 3}},
	}
	if err := cp.RecordBatch(entries); err != nil {
		t.Fatal(err)
	}
	if cp.Len() != len(entries) {
		t.Fatalf("Len = %d, want %d", cp.Len(), len(entries))
	}
	// RawMessage entries keep their exact bytes — the determinism contract
	// batched completions inherit from Record.
	got, ok := cp.Lookup("b")
	if !ok || string(got) != `{"n":  2}` {
		t.Fatalf("raw batch value altered: %q", got)
	}
	reload, err := LoadCheckpoint(path, "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	if reload.Len() != len(entries) {
		t.Fatalf("reloaded %d entries, want %d", reload.Len(), len(entries))
	}
	for _, e := range entries {
		if _, ok := reload.Lookup(e.Key); !ok {
			t.Fatalf("entry %q missing after reload", e.Key)
		}
	}
	// The file holds values indented; a reload serves them canonical.
	if got, _ := reload.Lookup("b"); string(got) != `{"n":2}` {
		t.Fatalf("reloaded raw value = %q, want the canonical {\"n\":2}", got)
	}
	// A nil checkpoint ignores batches, like Record.
	var none *Checkpoint
	if err := none.RecordBatch(entries); err != nil {
		t.Fatalf("nil checkpoint: %v", err)
	}
}

func TestCheckpointSurvivesFailedJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	jobs := NewJobs(keys(4))
	fn := func(ctx context.Context, j Job) (val, error) {
		if j.ID == 2 {
			return val{}, errors.New("boom")
		}
		return val{N: j.ID}, nil
	}
	if _, err := Run(context.Background(), jobs, fn, Options{Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	// Failed jobs are not checkpointed: the resume re-runs them.
	var reran atomic.Int32
	fn2 := func(ctx context.Context, j Job) (val, error) {
		reran.Add(1)
		return val{N: j.ID}, nil
	}
	outs, err := Run(context.Background(), jobs, fn2, Options{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if reran.Load() != 1 || outs[2].Err != nil || outs[2].Value.N != 2 {
		t.Fatalf("failed job not retried: reran=%d outcome=%+v", reran.Load(), outs[2])
	}
}

func TestReflectValueRoundTrip(t *testing.T) {
	// Values restored from a checkpoint must equal freshly computed ones.
	path := filepath.Join(t.TempDir(), "ckpt.json")
	jobs := NewJobs(keys(5))
	fn := func(ctx context.Context, j Job) (map[string]float64, error) {
		return map[string]float64{"speedup": float64(j.ID) * 1.5}, nil
	}
	direct, err := Run(context.Background(), jobs, fn, Options{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Run(context.Background(), jobs, fn, Options{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if !restored[i].Resumed {
			t.Fatalf("slot %d not resumed", i)
		}
		if !reflect.DeepEqual(direct[i].Value, restored[i].Value) {
			t.Fatalf("slot %d: %v != %v", i, direct[i].Value, restored[i].Value)
		}
	}
}

// checkpointChildEnv names the checkpoint a re-executed test binary records
// into (see TestCheckpointSurvivesKill).
const checkpointChildEnv = "RUNNER_CHECKPOINT_KILL_CHILD"

// TestCheckpointSurvivesKill re-executes the test binary as a child that
// records batches into one checkpoint in a loop, SIGKILLs it partway
// through, and requires the file to load cleanly afterwards: no ".bak", no
// warning, every entry of the batches the child saw committed. Each round
// kills at a different point of the write cycle.
func TestCheckpointSurvivesKill(t *testing.T) {
	if path := os.Getenv(checkpointChildEnv); path != "" {
		recordUntilKilled(path)
		return
	}
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	for round, delay := range []time.Duration{0, 3 * time.Millisecond, 11 * time.Millisecond, 29 * time.Millisecond} {
		path := filepath.Join(t.TempDir(), "kill.ckpt.json")
		cmd := exec.Command(os.Args[0], "-test.run=^TestCheckpointSurvivesKill$")
		cmd.Env = append(os.Environ(), checkpointChildEnv+"="+path)
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// The child prints a line after each committed batch; wait for the
		// first, then let it run into the middle of later writes.
		lines := bufio.NewScanner(out)
		if !lines.Scan() {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("round %d: child exited before committing a batch", round)
		}
		time.Sleep(delay)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		committed := 1
		for lines.Scan() {
			committed++
		}
		cmd.Wait()

		var warned []string
		cp, err := LoadCheckpoint(path, "kill", func(f string, a ...any) { warned = append(warned, fmt.Sprintf(f, a...)) })
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(warned) > 0 {
			t.Fatalf("round %d: checkpoint discarded after kill: %v", round, warned)
		}
		if _, err := os.Stat(path + ".bak"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("round %d: %s.bak exists after kill", round, path)
		}
		if want := min(committed*killBatch, killKeys); cp.Len() < want {
			t.Fatalf("round %d: %d entries after %d committed batches, want >= %d", round, cp.Len(), committed, want)
		}
	}
}

// killBatch entries per batch cycle through killKeys keys, so the file
// stays a few hundred KiB however long the child runs.
const killBatch, killKeys = 16, 512

// recordUntilKilled is the child's loop. It gives up after a minute, so a
// child whose parent died before killing it does not write forever.
func recordUntilKilled(path string) {
	cp, err := LoadCheckpoint(path, "kill", nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pad := json.RawMessage(`"` + strings.Repeat("x", 512) + `"`)
	deadline := time.Now().Add(time.Minute)
	for i := 0; time.Now().Before(deadline); i++ {
		batch := make([]BatchEntry, killBatch)
		for j := range batch {
			batch[j] = BatchEntry{Key: fmt.Sprintf("job-%d", (i*killBatch+j)%killKeys), Value: pad}
		}
		if err := cp.RecordBatch(batch); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println("committed", i)
	}
}

// TestCanonicalJSON pins CanonicalJSON to the bytes encoding/json writes for
// a json.RawMessage, and pins that a value already in that form comes back
// as it is, with nothing allocated.
func TestCanonicalJSON(t *testing.T) {
	for _, raw := range []string{
		`{"n":2}`,
		`{"n":  2}`,
		"[1,\n\t2 ,\r3]",
		`{"s":"a b\t\"c\" \\"}`,
		`{"html":"<a href=\"x\">&amp;</a>"}`,
		"{\"sep\":\"\u2028 \u2029\"}",
		`"\u2028 is escaped already"`,
		"\"\xe2\x80 cut, \xe2\x80\xa7 U+2027\"",
		`"\\"`,
		`null`,
	} {
		want, err := json.Marshal(json.RawMessage(raw))
		if err != nil {
			t.Fatalf("%q: %v", raw, err)
		}
		got, err := CanonicalJSON(json.RawMessage(raw))
		if err != nil || string(got) != string(want) {
			t.Errorf("CanonicalJSON(%q) = %q, %v; want %q", raw, got, err, want)
		}
		if raw == string(want) {
			b := json.RawMessage(raw)
			if allocs := testing.AllocsPerRun(10, func() { CanonicalJSON(b) }); allocs != 0 {
				t.Errorf("CanonicalJSON(%q), already canonical, allocated %v times", raw, allocs)
			}
		}
	}
}
