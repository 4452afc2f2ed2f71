// Command sweepd runs the distributed sweep service (package sweepd): a
// coordinator that accepts RunSpec matrices over the versioned /v1/ HTTP API
// and shards them to worker processes, fronted by a content-addressed result
// cache so repeated or overlapping sweeps are nearly free.
//
// Usage:
//
//	sweepd serve    -addr :7023 -cache sweepd.cache.json -shards 8
//	sweepd worker   -addr localhost:7023 -parallel 4 -batch 16
//	sweepd loadtest -jobs 5000 -batch 32
//	sweep -remote localhost:7023 -knob buffer -values 32,64,128
//
// serve starts the coordinator. Jobs are leased to workers and re-queued if
// a worker stops heartbeating (crash recovery); results are cached by spec
// fingerprint in -cache, which survives restarts. State is split across
// -shards independent shards so concurrent submits, claims, and completes
// rarely contend; -debugaddr exposes pprof and expvar counters on a separate
// listener.
//
// worker starts a claim/execute/complete loop against a coordinator. A
// worker is stateless: kill it at any time and its in-flight jobs return to
// the queue after the lease TTL. It runs a fixed pool of -parallel executors;
// -batch bounds how many leases ride one claim round trip.
//
// loadtest stands up an in-process coordinator on a loopback listener and
// pushes -jobs tiny jobs through the full submit → claim → complete →
// aggregate pipeline with stub executors, printing jobs/sec and claim latency
// percentiles — the quick way to size -batch and -shards for a deployment.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"memsched/internal/cliflags"
	"memsched/internal/sweepd"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serve(os.Args[2:])
	case "worker":
		err = worker(os.Args[2:])
	case "loadtest":
		err = loadtest(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "sweepd: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `sweepd runs the distributed sweep service.

  sweepd serve    [flags]   start a coordinator
  sweepd worker   [flags]   start a worker against a coordinator
  sweepd loadtest [flags]   measure service throughput in-process

Run "sweepd <subcommand> -h" for flags.
`)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func serve(args []string) error {
	fs := flag.NewFlagSet("sweepd serve", flag.ExitOnError)
	addr := fs.String("addr", ":7023", "listen address")
	cache := fs.String("cache", "", "content-addressed result cache file (\"\" = in-memory only)")
	shards := fs.Int("shards", sweepd.DefaultShards, "independent state shards (queue, leases, cache)")
	lease := fs.Duration("lease", 30*time.Second, "job lease TTL: a worker silent this long forfeits its job")
	maxAttempts := fs.Int("maxattempts", 5, "lease expiries before a job is failed permanently")
	debugAddr := fs.String("debugaddr", "", "pprof/expvar debug listen address (\"\" = disabled)")
	fs.Parse(args)

	coord, err := sweepd.NewCoordinator(sweepd.CoordinatorConfig{
		CachePath:   *cache,
		Shards:      *shards,
		LeaseTTL:    *lease,
		MaxAttempts: *maxAttempts,
		Logf:        logf,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: *addr, Handler: coord.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: coord.DebugHandler()}
		go func() { errCh <- dbg.ListenAndServe() }()
		defer dbg.Close()
		logf("sweepd: debug endpoints (pprof, expvar) on %s", *debugAddr)
	}
	logf("sweepd: coordinator listening on %s (cache %q, %d shards, lease %s)",
		*addr, *cache, *shards, *lease)
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

func worker(args []string) error {
	fs := flag.NewFlagSet("sweepd worker", flag.ExitOnError)
	addr := fs.String("addr", "localhost:7023", "coordinator address")
	name := fs.String("name", "", "worker name in outcomes and logs (\"\" = hostname-pid)")
	batch := fs.Int("batch", 0, "max leases per claim round trip (0 = -parallel)")
	parallel := cliflags.Parallel(fs)
	timeout := cliflags.Timeout(fs)
	progress := cliflags.Progress(fs)
	poll := fs.Duration("poll", 500*time.Millisecond, "idle wait between claim attempts")
	fs.Parse(args)

	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var wlogf func(string, ...any)
	if *progress > 0 {
		wlogf = logf
	}
	logf("sweepd: worker %q: %d slots, batch %d, against %s",
		*name, *parallel, *batch, *addr)
	return sweepd.RunWorker(ctx, sweepd.WorkerOptions{
		Coordinator: *addr,
		Name:        *name,
		Slots:       *parallel,
		Batch:       *batch,
		JobTimeout:  *timeout,
		Poll:        *poll,
		Logf:        wlogf,
	})
}

func loadtest(args []string) error {
	fs := flag.NewFlagSet("sweepd loadtest", flag.ExitOnError)
	jobs := fs.Int("jobs", 5000, "total tiny jobs to push through the service")
	sweepSize := fs.Int("sweepsize", 250, "jobs per submitted sweep")
	workers := fs.Int("workers", 2, "concurrent claiming worker loops")
	batch := fs.Int("batch", 32, "claim/complete batch width")
	shards := fs.Int("shards", sweepd.DefaultShards, "coordinator state shards")
	fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := sweepd.LoadTest(ctx, sweepd.LoadOptions{
		Jobs:      *jobs,
		SweepSize: *sweepSize,
		Workers:   *workers,
		Batch:     *batch,
		Shards:    *shards,
	})
	if err != nil {
		return err
	}
	fmt.Println(rep)
	return nil
}
