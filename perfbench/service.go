package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memsched/internal/sweepd"
)

// Service parameters: the load harness's default claim batch, and the
// worker's wait after an empty claim, doubling from idlePoll to maxIdlePoll
// while the queue stays empty. Backing off keeps an idle worker from taking
// CPU from the submitter while resubmissions are served from the cache.
const (
	claimBatch  = 32
	idlePoll    = 100 * time.Microsecond
	maxIdlePoll = 2 * time.Millisecond
	// minSweeps fresh sweeps put ten samples beyond sweep_ms_p90; the
	// end-to-end pass runs past its budget to reach them, up to maxOverrun
	// times the budget.
	minSweeps  = 100
	maxOverrun = 2
)

// service is an in-process coordinator behind a loopback HTTP listener. The
// handler looks the coordinator up on every request, so a pass can swap in a
// fresh coordinator, with an empty cache, for each round.
type service struct {
	coord  atomic.Pointer[sweepd.Coordinator]
	srv    *http.Server
	served chan struct{} // closed when Serve returns
	client *sweepd.Client
}

func newCoordinator() (*sweepd.Coordinator, error) {
	// A long lease keeps the reaper out of the measurement, as in the
	// service's own load harness: no worker here dies mid-job.
	return sweepd.NewCoordinator(sweepd.CoordinatorConfig{LeaseTTL: time.Minute})
}

// startService starts a coordinator and its listener and makes the first
// round trip, so the service is known to answer when it returns.
func startService(ctx context.Context) (*service, error) {
	c, err := newCoordinator()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("listener: %w", err)
	}
	s := &service{served: make(chan struct{}), client: sweepd.NewClient(ln.Addr().String())}
	s.coord.Store(c)
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.coord.Load().Handler().ServeHTTP(w, r)
	})}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // always ErrServerClosed after close
	}()
	if _, err := s.client.Stats(ctx); err != nil {
		s.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	return s, nil
}

// reset replaces the coordinator with a fresh one and returns it.
func (s *service) reset() (*sweepd.Coordinator, error) {
	c, err := newCoordinator()
	if err != nil {
		return nil, err
	}
	s.coord.Swap(c).Close()
	return c, nil
}

// close shuts the listener, waits for in-flight requests and Serve, and
// stops the coordinator.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.srv.Shutdown(ctx) != nil {
		s.srv.Close()
	}
	<-s.served
	s.coord.Load().Close()
}

// roundStat is one round: a fresh pass over the plan's sweeps on an empty
// cache, then the plan's cachedReps resubmissions served from the cache.
type roundStat struct {
	freshJobs, cachedJobs int
	freshDur, cachedDur   time.Duration
	instr                 uint64
}

// passStats is everything one pass measured.
type passStats struct {
	rounds                     []roundStat
	sweepMs, submitMs, outWait []float64
	attempted, failed          int
	resubmitted, cacheHits     int
	allocBytes                 uint64
	gcCPU, busyCPU             float64
	procCPU                    time.Duration // user+system time of the process
	w                          workerStats
	wall                       time.Duration
	freshJobs                  int
	firstFailures              []string
}

// workerStats is what the stub or simulating worker measured.
type workerStats struct {
	claimMs, completeMs []float64
	claims, empty       int
	sims                []simStat
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runPass runs rounds of the plan with one submitter (this goroutine) and
// one worker loop: exactly rounds of them when rounds > 0, else for at least
// budget, at least one round and b.minSweeps fresh sweeps.
func (b *bench) runPass(ctx context.Context, budget time.Duration, rounds int, tr *tracer, parent uint64) (*passStats, error) {
	svc, err := startService(ctx)
	if err != nil {
		return nil, err
	}
	defer svc.close()

	ps := &passStats{}
	// A worker that fails cancels the pass, so the submitter's wait for
	// outcomes that will never come returns too.
	pctx, cancelPass := context.WithCancel(ctx)
	defer cancelPass()
	wctx, stopWorker := context.WithCancel(pctx)
	var round atomic.Uint64
	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if werr = b.worker(wctx, svc.client, tr, &round, &ps.w); werr != nil {
			cancelPass()
		}
	}()
	stop := func() error {
		stopWorker()
		wg.Wait()
		return werr
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := readCPUClasses()
	proc0 := processCPU()
	t0 := time.Now()
	more := func() bool {
		if rounds > 0 {
			return len(ps.rounds) < rounds
		}
		return len(ps.rounds) == 0 || time.Since(t0) < budget ||
			(len(ps.sweepMs) < b.minSweeps && time.Since(t0) < maxOverrun*budget)
	}
	for more() {
		rsp := tr.begin(parent, "round", "")
		round.Store(rsp.id())
		rs, err := b.round(pctx, svc, b.plan.rounds[len(ps.rounds)%len(b.plan.rounds)], ps, tr, rsp.id())
		rsp.end()
		if err != nil {
			if werr := stop(); werr != nil {
				return nil, fmt.Errorf("worker: %w", werr)
			}
			return nil, err
		}
		ps.rounds = append(ps.rounds, rs)
	}
	ps.wall = time.Since(t0)
	ps.procCPU = processCPU() - proc0
	if err := stop(); err != nil {
		return nil, fmt.Errorf("worker: %w", err)
	}
	runtime.ReadMemStats(&m1)
	cpu1 := readCPUClasses()
	ps.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ps.gcCPU = cpu1.gc - cpu0.gc
	ps.busyCPU = (cpu1.total - cpu1.idle) - (cpu0.total - cpu0.idle)
	return ps, nil
}

// round runs one round on a fresh coordinator and checks every outcome.
func (b *bench) round(ctx context.Context, svc *service, sweeps [][]sweepd.JobV1, ps *passStats, tr *tracer, parent uint64) (roundStat, error) {
	var rs roundStat
	coord, err := svc.reset()
	if err != nil {
		return rs, err
	}
	cl := svc.client
	fresh := map[string][]byte{}
	for _, jobs := range sweeps {
		ssp := tr.begin(parent, "sweep", "")
		t0 := time.Now()
		sub := tr.begin(ssp.id(), "client.Submit", "")
		resp, err := cl.Submit(ctx, sweepd.SweepRequestV1{Meta: "perfbench", Jobs: jobs})
		ps.submitMs = append(ps.submitMs, ms(time.Since(t0)))
		sub.end()
		if err != nil {
			return rs, fmt.Errorf("submit: %w", err)
		}
		t1 := time.Now()
		wsp := tr.begin(ssp.id(), "client.Outcomes", resp.SweepID)
		out, err := cl.Outcomes(ctx, resp.SweepID, true)
		wsp.end()
		ps.outWait = append(ps.outWait, ms(time.Since(t1)))
		d := time.Since(t0)
		ssp.end()
		if err != nil {
			return rs, fmt.Errorf("outcomes: %w", err)
		}
		ps.sweepMs = append(ps.sweepMs, ms(d))
		rs.freshDur += d
		rs.freshJobs += len(jobs)
		for _, j := range jobs {
			rs.instr += b.plan.instr[j.Key]
		}
		ps.attempted += len(jobs)
		ps.failed += b.checkFresh(ps, jobs, out, fresh)
	}

	// Collect the fresh pass's garbage first: in a deployment the
	// coordinator does not share a heap with simulating workers.
	runtime.GC()
	for rep := 0; rep < b.plan.cachedReps; rep++ {
		for _, jobs := range sweeps {
			before := coord.Stats()
			ssp := tr.begin(parent, "resubmit", "")
			t0 := time.Now()
			sub := tr.begin(ssp.id(), "client.Submit", "")
			resp, err := cl.Submit(ctx, sweepd.SweepRequestV1{Meta: "perfbench", Jobs: jobs})
			sub.end()
			if err != nil {
				return rs, fmt.Errorf("resubmit: %w", err)
			}
			wsp := tr.begin(ssp.id(), "client.Outcomes", resp.SweepID)
			out, err := cl.Outcomes(ctx, resp.SweepID, true)
			wsp.end()
			d := time.Since(t0)
			ssp.end()
			if err != nil {
				return rs, fmt.Errorf("cached outcomes: %w", err)
			}
			after := coord.Stats()
			rs.cachedDur += d
			rs.cachedJobs += len(jobs)
			ps.attempted += len(jobs)
			ps.resubmitted += len(jobs)
			ps.cacheHits += resp.CacheHits
			bad := checkCached(jobs, out, fresh)
			if after.Executed != before.Executed || after.CacheHits-before.CacheHits != int64(len(jobs)) {
				b.fail(ps, fmt.Sprintf("resubmit moved the executed counter (%d -> %d) or missed the cache (%d hits for %d jobs)",
					before.Executed, after.Executed, after.CacheHits-before.CacheHits, len(jobs)))
				bad = len(jobs)
			} else if bad > 0 {
				b.fail(ps, fmt.Sprintf("%d resubmitted outcomes differ from the fresh ones", bad))
			}
			ps.failed += bad
		}
	}
	ps.freshJobs += rs.freshJobs
	return rs, nil
}

// worker claims leases and completes them until ctx ends: with the stub
// payload on the service workload, by simulating the job otherwise.
func (b *bench) worker(ctx context.Context, cl *sweepd.Client, tr *tracer, round *atomic.Uint64, ws *workerStats) error {
	idle := idlePoll
	for ctx.Err() == nil {
		parent := round.Load()
		csp := tr.begin(parent, "client.Claim", "")
		t0 := time.Now()
		resp, err := cl.Claim(ctx, "perfbench", claimBatch)
		ws.claimMs = append(ws.claimMs, ms(time.Since(t0)))
		csp.end()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("claim: %w", err)
		}
		ws.claims++
		if len(resp.Leases) == 0 {
			ws.empty++
			time.Sleep(idle)
			idle = min(2*idle, maxIdlePoll)
			continue
		}
		idle = idlePoll
		comps := make([]sweepd.CompleteRequestV1, 0, len(resp.Leases))
		for _, l := range resp.Leases {
			c := sweepd.CompleteRequestV1{LeaseID: l.LeaseID}
			if b.plan.stub != nil {
				c.Value = b.plan.stub
			} else if val, st, err := simulate(ctx, l.Job, tr, parent); err != nil {
				c.Err = err.Error()
			} else {
				c.Value = val
				ws.sims = append(ws.sims, st)
			}
			comps = append(comps, c)
		}
		csp = tr.begin(parent, "client.CompleteBatch", "")
		t0 = time.Now()
		bresp, err := cl.CompleteBatch(ctx, comps)
		ws.completeMs = append(ws.completeMs, ms(time.Since(t0)))
		csp.end()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("complete: %w", err)
		}
		if len(bresp.Lost) > 0 {
			return fmt.Errorf("coordinator revoked %d leases", len(bresp.Lost))
		}
	}
	return nil
}
