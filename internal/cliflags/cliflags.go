// Package cliflags registers the operational flags shared by every sweep
// surface — cmd/sweep, cmd/experiments, and cmd/sweepd — with one canonical
// name, default, and help string each, so "-parallel", "-progress" and
// "-resume" mean exactly the same thing everywhere.
package cliflags

import (
	"flag"
	"time"
)

// Canonical defaults.
const (
	// DefaultProgress is the interval between progress lines.
	DefaultProgress = 10 * time.Second
)

// Parallel registers -parallel: the worker-pool width, that is how many
// independent jobs run at once (a sweep's runner pool, or a sweepd worker's
// executor slots). Output is identical for every width.
func Parallel(fs *flag.FlagSet) *int {
	return fs.Int("parallel", 1,
		"jobs run at once (0 = GOMAXPROCS); results are identical for every width")
}

// Progress registers -progress: the interval between progress lines on
// stderr (0 disables them).
func Progress(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("progress", DefaultProgress,
		"interval between progress lines (0 = off)")
}

// Resume registers -resume: the JSON checkpoint file persisting completed
// jobs; rerunning with the same file resumes instead of re-simulating. A
// corrupt or mismatched checkpoint is moved aside and the run starts clean.
func Resume(fs *flag.FlagSet) *string {
	return fs.String("resume", "",
		"checkpoint file: persist completed jobs, resume on rerun")
}

// Timeout registers -timeout: the per-job wall-clock budget.
func Timeout(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("timeout", 0, "per-job wall-clock budget (0 = unbounded)")
}
