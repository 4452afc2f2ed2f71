package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"memsched/internal/runner"
)

// referenceOutcomes is how the coordinator wrote an outcomes response before
// it appended one itself: writeJSON's encoder over the response struct, which
// compacts and HTML-escapes every raw value on the way out.
func referenceOutcomes(t *testing.T, sweepID string, done bool, outs []OutcomeV1) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(OutcomesResponseV1{SweepID: sweepID, Done: done, Outcomes: outs}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzOutcomesEncoding checks appendOutcomes against referenceOutcomes: for
// a value stored as it arrived, the reference compacts it on the way out;
// the coordinator canonicalizes it on arrival and copies it out. Both must
// give the same bytes. Each of the one to four slots takes its fields from
// three bits of mask: a value, an error, and a worker with its elapsed time.
func FuzzOutcomesEncoding(f *testing.F) {
	f.Add("s1", true, "8MEM-1/hf-rf", []byte(`{"n":1}`), "", "w0", int64(0), uint16(0o7777), uint8(3))
	f.Add("s2", false, "key", []byte("{ \"a\" : [1, 2,\n\t3] ,\r\"b\":{} }"), "boom", "w1", int64(12), uint16(0o1234), uint8(2))
	f.Add("s3", true, "<b>&amp;</b>", []byte(`{"html":"<script>&</script>"}`), "e<>&", "w&", int64(-5), uint16(0o7171), uint8(3))
	f.Add("s4", true, "sep\u2028\u2029", []byte("[\"\u2028\",\"\u2029\", \"\\u2028\"]"), "line\u2028", "w\u2029", int64(1), uint16(0o5555), uint8(1))
	f.Add("s5", false, "bad\xff\xfeutf8", []byte(`"\u00e9\xe2\x80"`), "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "w\xc3", int64(1<<40), uint16(0o3636), uint8(3))
	f.Add("s6", true, `quote"back\slash`, []byte(`null`), `"quoted" \err`, "", int64(7), uint16(0o0000), uint8(0))
	f.Add("s7", true, "k", []byte(`not json`), "", "w", int64(0), uint16(0o2222), uint8(2))
	f.Fuzz(func(t *testing.T, sweepID string, done bool, key string, value []byte, errMsg, worker string,
		elapsed int64, mask uint16, n uint8) {
		if !json.Valid(value) {
			value = nil // every stored value was decoded from JSON
		}
		var stored, canon []OutcomeV1
		for i := 0; i <= int(n%4); i++ {
			bits := mask >> (3 * i)
			o := OutcomeV1{ID: i * 37, Key: fmt.Sprint(key, i), CacheHit: done && bits&1 != 0}
			if bits&1 != 0 && value != nil {
				o.Value = value
			}
			if bits&2 != 0 {
				o.Err = errMsg
			}
			if bits&4 != 0 {
				o.Worker, o.ElapsedMillis = worker, elapsed
			}
			stored = append(stored, o)
			if o.Value != nil {
				v, err := runner.CanonicalJSON(o.Value)
				if err != nil {
					t.Fatal(err)
				}
				o.Value = v
			}
			canon = append(canon, o)
		}
		want := referenceOutcomes(t, sweepID, done, stored)
		if got := appendOutcomes(nil, sweepID, done, canon); !bytes.Equal(got, want) {
			t.Fatalf("appended response differs from the encoder's:\n got %q\nwant %q", got, want)
		}
	})
}

// submitCompleted submits jobs, completes every one with its value through
// the coordinator's lease endpoints, and returns the finished sweep's
// outcomes.
func submitCompleted(t testing.TB, client *Client, jobs []JobV1, values map[string]json.RawMessage) OutcomesResponseV1 {
	t.Helper()
	ctx := context.Background()
	sub, err := client.Submit(ctx, SweepRequestV1{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	claim, err := client.Claim(ctx, "w", len(jobs))
	if err != nil || len(claim.Leases) != len(jobs) {
		t.Fatalf("claim: %v, %d leases for %d jobs", err, len(claim.Leases), len(jobs))
	}
	comps := make([]CompleteRequestV1, len(claim.Leases))
	for i, l := range claim.Leases {
		comps[i] = CompleteRequestV1{LeaseID: l.LeaseID, Value: values[l.Job.Key]}
	}
	if _, err := client.CompleteBatch(ctx, comps); err != nil {
		t.Fatal(err)
	}
	out, err := client.Outcomes(ctx, sub.SweepID, true)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCacheFileServesFreshBytes restarts a coordinator on the cache file a
// first one wrote, and requires each cached outcome to carry exactly the
// bytes the fresh outcome carried, which are json.Marshal's: the file holds
// values indented, and since outcomes are written without re-compacting, the
// load must make them canonical again.
func TestCacheFileServesFreshBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	real := testSpec("hf-rf")
	odd := testSpec("fcfs")
	jobs := []JobV1{{ID: 0, Key: "real", Spec: real}, {ID: 1, Key: "odd", Spec: odd}}
	values := map[string]json.RawMessage{
		"real": localBytes(t, real),
		"odd":  json.RawMessage("{ \"html\": \"<a>&</a>\",\n  \"seps\": \"\u2028\u2029\", \"n\": [1, 2.50] }"),
	}

	coord1, err := NewCoordinator(CoordinatorConfig{CachePath: path, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	fresh := submitCompleted(t, NewInProcessClient(coord1), jobs, values)
	coord1.Close()
	blob, err := os.ReadFile(path + ".s0-of-1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte("\n      \"")) {
		t.Fatalf("cache file does not hold indented values:\n%s", blob)
	}

	coord2, err := NewCoordinator(CoordinatorConfig{CachePath: path, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	client := NewInProcessClient(coord2)
	ctx := context.Background()
	sub, err := client.Submit(ctx, SweepRequestV1{Jobs: jobs})
	if err != nil || sub.CacheHits != len(jobs) {
		t.Fatalf("resubmit after restart: %v, %d cache hits for %d jobs", err, sub.CacheHits, len(jobs))
	}
	cached, err := client.Outcomes(ctx, sub.SweepID, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		want, err := json.Marshal(values[j.Key])
		if err != nil {
			t.Fatal(err)
		}
		if got := fresh.Outcomes[i].Value; !bytes.Equal(got, want) {
			t.Errorf("%s: fresh outcome value %q, want the encoder's %q", j.Key, got, want)
		}
		if got := cached.Outcomes[i].Value; !bytes.Equal(got, want) {
			t.Errorf("%s: cached outcome value %q, want the fresh %q", j.Key, got, want)
		}
	}
}

// realResult is a real 2MEM-1 Result's JSON, the payload of perfbench's
// sweepd workload.
func realResult(t testing.TB) json.RawMessage {
	return localBytes(t, JobSpecV1{Mix: "2MEM-1", Policy: "fcfs", Instr: 1000, Seed: 1})
}

// stubJobs returns n distinct tiny jobs and the value each completes with,
// realResult.
func stubJobs(t testing.TB, n int) ([]JobV1, map[string]json.RawMessage) {
	payload := realResult(t)
	jobs := make([]JobV1, n)
	values := make(map[string]json.RawMessage, n)
	for i := range jobs {
		key := fmt.Sprintf("job-%d", i)
		jobs[i] = JobV1{ID: i, Key: key, Spec: JobSpecV1{Mix: "2MEM-1", Policy: "fcfs", Instr: 1000, Seed: uint64(i + 1)}}
		values[key] = payload
	}
	return jobs, values
}

// cachedResubmit submits jobs, every one a cache hit, and fetches the
// sweep's outcomes.
func cachedResubmit(t testing.TB, client *Client, jobs []JobV1) {
	ctx := context.Background()
	sub, err := client.Submit(ctx, SweepRequestV1{Jobs: jobs})
	if err != nil || sub.CacheHits != len(jobs) {
		t.Fatalf("resubmit: %v, %d cache hits for %d jobs", err, sub.CacheHits, len(jobs))
	}
	out, err := client.Outcomes(ctx, sub.SweepID, true)
	if err != nil || len(out.Outcomes) != len(jobs) {
		t.Fatalf("outcomes: %v, %d for %d jobs", err, len(out.Outcomes), len(jobs))
	}
}

// TestCachedResubmitAllocates bounds what a cached resubmit of 16 real
// Results (a 31 KB outcomes response) allocates through NewInProcessClient,
// both ends included. Canonicalizing once and reading bodies into pooled
// buffers took it from about 162,000 bytes to about 91,000; re-encoding
// every value on the way out, or a body buffer grown per call, breaks the
// bound.
func TestCachedResubmitAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	client := NewInProcessClient(coord)
	jobs, values := stubJobs(t, 16)
	submitCompleted(t, client, jobs, values)
	cachedResubmit(t, client, jobs) // warm the pools

	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		cachedResubmit(t, client, jobs)
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("a cached 16-job resubmit allocated %d bytes", perRound)
	if perRound > 120_000 {
		t.Fatalf("a cached 16-job resubmit allocated %d bytes, want at most 120,000", perRound)
	}
}

// BenchmarkOutcomesRoundTrip times the runner/sweepd protocol layer alone:
// a cached resubmit of 16 jobs whose value is a real 2MEM-1 Result, through
// NewInProcessClient, so one op is a submit answered from the cache plus an
// outcomes response built and decoded, with no TCP and no worker.
func BenchmarkOutcomesRoundTrip(b *testing.B) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	client := NewInProcessClient(coord)
	jobs, values := stubJobs(b, 16)
	submitCompleted(b, client, jobs, values)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cachedResubmit(b, client, jobs)
	}
}

// BenchmarkDecodeOutcomes times the client's decode alone of the outcomes
// body that BenchmarkOutcomesRoundTrip's resubmit gets back: 16 cached
// outcomes of a real 2MEM-1 Result.
func BenchmarkDecodeOutcomes(b *testing.B) {
	jobs, values := stubJobs(b, 16)
	outs := make([]OutcomeV1, len(jobs))
	for i, j := range jobs {
		outs[i] = OutcomeV1{ID: i, Key: j.Key, Value: values[j.Key], CacheHit: true}
	}
	body := appendOutcomes(nil, "s2", true, outs)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out OutcomesResponseV1
		if err := unmarshal(body, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWatchReportsCutStream closes the coordinator under a live Watch: the
// stream ends before its final "sweep" line, and Watch must say so rather
// than report a finished sweep.
func TestWatchReportsCutStream(t *testing.T) {
	coord, client := newTestService(t, CoordinatorConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sub, err := client.Submit(ctx, SweepRequestV1{Jobs: []JobV1{{Key: "queued", Spec: testSpec("hf-rf")}}})
	if err != nil {
		t.Fatal(err)
	}
	watched := make(chan error, 1)
	go func() { watched <- client.Watch(ctx, sub.SweepID, func(EventV1) {}) }()
	waitFor(t, "the stream to subscribe", func() bool {
		coord.sweepMu.Lock()
		sw := coord.sweeps[sub.SweepID]
		coord.sweepMu.Unlock()
		sw.mu.Lock()
		defer sw.mu.Unlock()
		return len(sw.subs) == 1
	})
	coord.Close()
	if err := <-watched; !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Watch of a stream cut by Close returned %v, want an error wrapping io.ErrUnexpectedEOF", err)
	}
}

// TestTrailingDataRefused pins whole-body decoding: a valid request followed
// by anything but whitespace is a 400, on every endpoint that reads a body.
func TestTrailingDataRefused(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	sweep, err := json.Marshal(SweepRequestV1{Jobs: []JobV1{{Key: "a", Spec: testSpec("hf-rf")}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/v1/sweeps", string(sweep) + " \n", http.StatusOK},
		{"/v1/sweeps", string(sweep) + `{"jobs":[]}`, http.StatusBadRequest},
		{"/v1/sweeps", string(sweep) + "x", http.StatusBadRequest},
		{"/v1/claim", `{"worker":"w"} {}`, http.StatusBadRequest},
		{"/v1/heartbeats", `{"lease_ids":[]}]`, http.StatusBadRequest},
		{"/v1/completes", `{"completions":[]},`, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader([]byte(c.body))))
		if rec.Code != c.want {
			t.Errorf("POST %s %q: status %d, want %d (%s)", c.path, c.body, rec.Code, c.want, rec.Body)
		}
	}
}
