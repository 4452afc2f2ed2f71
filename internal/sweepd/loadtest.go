package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the service's load harness: an in-process transport that
// serves the coordinator's handler with no TCP in the path, and LoadTest,
// which drives thousands of tiny jobs through the full submit → claim →
// complete → aggregate pipeline with stub executors. Workers complete jobs
// instantly with a canned payload, so the numbers isolate coordination cost —
// round trips, JSON codec work, lock contention — from simulation time.
// cmd/sweepd's loadtest subcommand and BenchmarkSweepdThroughput both run it.

// handlerTransport is an http.RoundTripper that dispatches every request
// straight into a handler on the calling goroutine. Compared to a loopback
// TCP server it removes port allocation, connection pooling, and kernel
// buffering from measurements — and from tests' determinism.
type handlerTransport struct {
	h http.Handler
}

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := &memResponse{header: http.Header{}, code: http.StatusOK}
	t.h.ServeHTTP(rec, req)
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", rec.code, http.StatusText(rec.code)),
		StatusCode:    rec.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.buf.Bytes())),
		ContentLength: int64(rec.buf.Len()),
		Request:       req,
	}, nil
}

// memResponse is the minimal in-memory http.ResponseWriter behind
// handlerTransport. It deliberately omits http.Flusher: streaming endpoints
// buffer until the handler returns, which every harness caller accepts.
type memResponse struct {
	header http.Header
	buf    bytes.Buffer
	code   int
	wrote  bool
}

func (r *memResponse) Header() http.Header { return r.header }

func (r *memResponse) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
}

func (r *memResponse) Write(p []byte) (int, error) {
	r.wrote = true
	return r.buf.Write(p)
}

// NewInProcessClient returns a Client whose requests are served directly by
// the coordinator's handler — no listener, no ports. The client is a full
// peer of a remote one (same wire encoding, same status-code handling), which
// is what lets tests byte-compare in-process and remote sweep outcomes.
func NewInProcessClient(c *Coordinator) *Client {
	return newClient("http://sweepd.inproc", &http.Client{Transport: handlerTransport{h: c.Handler()}})
}

// LoadOptions sizes a LoadTest run.
type LoadOptions struct {
	// Jobs is the total number of distinct jobs pushed through the service.
	// 0 selects 1000.
	Jobs int
	// SweepSize is the number of jobs per submitted sweep. 0 selects 250.
	SweepSize int
	// Workers is the number of concurrent claiming worker loops. 0 selects 2.
	Workers int
	// Batch is the claim/complete batch width. 0 selects 32.
	Batch int
	// Shards is the coordinator shard count. 0 selects DefaultShards.
	Shards int
	// InProcess serves requests straight through the coordinator's handler
	// instead of a loopback TCP listener. The default (false) measures the
	// real service path — connection handling, kernel buffering, syscalls —
	// which is where batching pays; in-process mode isolates coordinator CPU
	// cost and, with one worker, keeps allocation counts deterministic for
	// benchmarks.
	InProcess bool
	// Logf receives progress lines (nil disables them).
	Logf func(format string, args ...any)
}

// LoadReport is a LoadTest result.
type LoadReport struct {
	Jobs    int `json:"jobs"`
	Sweeps  int `json:"sweeps"`
	Workers int `json:"workers"`
	Batch   int `json:"batch"`
	Shards  int `json:"shards"`

	Elapsed    time.Duration `json:"elapsed_ns"`
	JobsPerSec float64       `json:"jobs_per_sec"`

	// ClaimCalls/CompleteCalls count round trips; with batching both sit far
	// below Jobs, which is where the throughput comes from. EmptyClaims
	// counts the claims that returned no lease: held to the coordinator's
	// bound, or released when the run ended.
	ClaimCalls    int64 `json:"claim_calls"`
	EmptyClaims   int64 `json:"empty_claims"`
	CompleteCalls int64 `json:"complete_calls"`
	// Conns counts the connections the loopback listener accepted (0
	// in-process): clients that reuse their connections keep it near the
	// number of requests in flight at once.
	Conns int64 `json:"conns"`

	// ClaimP50/ClaimP99 are the round trips of the claims that granted
	// leases, so a claim held idle at the end of the run does not count.
	ClaimP50 time.Duration `json:"claim_p50_ns"`
	ClaimP99 time.Duration `json:"claim_p99_ns"`
}

func (r LoadReport) String() string {
	return fmt.Sprintf("%d jobs in %v: %.0f jobs/sec (%d workers, batch %d, %d shards; "+
		"%d claims (%d empty), %d completes, %d connections; claim p50 %v p99 %v)",
		r.Jobs, r.Elapsed.Round(time.Millisecond), r.JobsPerSec,
		r.Workers, r.Batch, r.Shards, r.ClaimCalls, r.EmptyClaims, r.CompleteCalls, r.Conns,
		r.ClaimP50.Round(time.Microsecond), r.ClaimP99.Round(time.Microsecond))
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// loadStubValue is the canned result payload loadtest workers complete jobs
// with. It is valid JSON (the coordinator stores it verbatim) but never
// decoded as a sim.Result — the harness measures the scheduler, not the
// simulator.
var loadStubValue = json.RawMessage(`{"load_test_stub":true}`)

// LoadTest stands up a fresh in-memory coordinator, submits opts.Jobs tiny
// distinct RunSpec jobs in sweeps of opts.SweepSize, and drains them with
// opts.Workers stub worker loops claiming and completing in batches of
// opts.Batch. It returns once every sweep's outcomes are aggregated.
func LoadTest(ctx context.Context, opts LoadOptions) (LoadReport, error) {
	if opts.Jobs <= 0 {
		opts.Jobs = 1000
	}
	if opts.SweepSize <= 0 {
		opts.SweepSize = 250
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.Batch <= 0 {
		opts.Batch = 32
	}
	if opts.Shards == 0 {
		opts.Shards = DefaultShards
	}
	logf := func(format string, args ...any) {
		if opts.Logf != nil {
			opts.Logf(format, args...)
		}
	}

	// A long TTL keeps the reaper out of the measurement: nothing here
	// crashes, so no lease should ever expire mid-run.
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards:   opts.Shards,
		LeaseTTL: time.Minute,
	})
	if err != nil {
		return LoadReport{}, err
	}
	defer coord.Close()
	var client *Client
	var ln countingListener
	if opts.InProcess {
		client = NewInProcessClient(coord)
	} else {
		tcp, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return LoadReport{}, fmt.Errorf("sweepd: loadtest listener: %w", err)
		}
		ln.Listener = tcp
		srv := &http.Server{Handler: coord.Handler()}
		go srv.Serve(&ln)
		defer srv.Close()
		client = NewClient(tcp.Addr().String())
	}

	// Distinct seeds give every job a distinct fingerprint: no cache hits, no
	// coalescing, so completions == Jobs and the pipeline is fully exercised.
	sweeps := 0
	var jobs []JobV1
	var sweepIDs []string
	for i := 0; i < opts.Jobs; i++ {
		jobs = append(jobs, JobV1{ID: len(jobs), Key: fmt.Sprintf("job-%d", i),
			Spec: JobSpecV1{Mix: "2MEM-1", Policy: "fcfs", Instr: 1000, Seed: uint64(i + 1)}})
		if len(jobs) == opts.SweepSize || i == opts.Jobs-1 {
			resp, err := client.Submit(ctx, SweepRequestV1{
				Meta: fmt.Sprintf("loadtest sweep %d", sweeps), Jobs: jobs})
			if err != nil {
				return LoadReport{}, fmt.Errorf("sweepd: loadtest submit: %w", err)
			}
			sweepIDs = append(sweepIDs, resp.SweepID)
			sweeps++
			jobs = nil
		}
	}
	t0 := time.Now()

	var completed atomic.Int64
	var claimCalls, emptyClaims, completeCalls atomic.Int64
	latencies := make([][]time.Duration, opts.Workers)
	wctx, cancelWorkers := context.WithCancel(ctx)
	defer cancelWorkers()
	var wg sync.WaitGroup
	for wi := 0; wi < opts.Workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			name := fmt.Sprintf("loadworker-%d", wi)
			for wctx.Err() == nil && completed.Load() < int64(opts.Jobs) {
				c0 := time.Now()
				resp, err := client.Claim(wctx, name, opts.Batch)
				claimCalls.Add(1)
				if err != nil {
					return
				}
				if len(resp.Leases) == 0 {
					// Another worker holds the tail; the coordinator held
					// this claim, so there is nothing to wait out here.
					emptyClaims.Add(1)
					continue
				}
				latencies[wi] = append(latencies[wi], time.Since(c0))
				comps := make([]CompleteRequestV1, len(resp.Leases))
				for i, lv := range resp.Leases {
					comps[i] = CompleteRequestV1{LeaseID: lv.LeaseID, Value: loadStubValue}
				}
				bresp, err := client.CompleteBatch(wctx, comps)
				completeCalls.Add(1)
				if err == nil {
					completed.Add(int64(len(comps) - len(bresp.Lost)))
				}
			}
		}(wi)
	}

	// The run is over when every sweep's aggregation is done, not merely when
	// workers stop: outcome fan-out is part of the measured pipeline.
	for _, id := range sweepIDs {
		if _, err := client.Outcomes(ctx, id, true); err != nil {
			cancelWorkers()
			wg.Wait()
			return LoadReport{}, fmt.Errorf("sweepd: loadtest waiting on %s: %w", id, err)
		}
	}
	elapsed := time.Since(t0)
	cancelWorkers()
	wg.Wait()

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	rep := LoadReport{
		Jobs:          opts.Jobs,
		Sweeps:        sweeps,
		Workers:       opts.Workers,
		Batch:         opts.Batch,
		Shards:        opts.Shards,
		Elapsed:       elapsed,
		JobsPerSec:    float64(opts.Jobs) / elapsed.Seconds(),
		ClaimCalls:    claimCalls.Load(),
		EmptyClaims:   emptyClaims.Load(),
		CompleteCalls: completeCalls.Load(),
		Conns:         ln.accepted.Load(),
		ClaimP50:      pct(0.50),
		ClaimP99:      pct(0.99),
	}
	logf("sweepd: loadtest: %s", rep)
	return rep, nil
}
