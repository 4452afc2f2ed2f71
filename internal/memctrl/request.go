// Package memctrl implements the memory controller of the paper's Figure 1:
// a request buffer shared by all cores, per-core outstanding-read counters,
// workload priority tables with quantized entries, read-bypass-write with
// drain watermarks, and a pluggable scheduling policy that picks the next
// transaction whenever a memory channel can accept one.
package memctrl

import (
	"fmt"

	"memsched/internal/addr"
	"memsched/internal/dram"
	"memsched/internal/xrand"
)

// Kind distinguishes reads (demand misses: the core stalls on them) from
// writes (dirty write-backs: fire-and-forget).
type Kind uint8

const (
	// Read is a demand read; its completion unblocks core progress.
	Read Kind = iota
	// Write is a write-back; it completes silently.
	Write
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Request is one cache-line transaction queued at the controller.
type Request struct {
	// ID is unique per controller, in admission order.
	ID   uint64
	Kind Kind
	// Core identifies the requesting core; priority policies differentiate
	// requests by this field.
	Core int
	// Line is the cache-line address (byte address / line size).
	Line uint64
	// Coord is Line mapped onto DRAM geometry, precomputed at admission.
	Coord addr.Coord
	// Arrive is the cycle the request entered the controller buffer.
	Arrive int64
	// sink, for reads, receives the data return at the core side (including
	// the controller overhead). Nil for writes.
	sink ReadSink

	// nextFree links retired slots into the controller's free-list; requests
	// are pooled so steady-state admission allocates nothing.
	nextFree *Request
}

// ReadSink receives read-data returns for requests admitted through
// EnqueueRead. Implementations are persistent objects (e.g. the cache
// hierarchy), so admission does not allocate a completion closure per read.
type ReadSink interface {
	// ReadReturned fires when the data for (core, line) reaches the core side.
	ReadReturned(core int, line uint64, now int64)
}

// Candidate is a request that could be issued this cycle, annotated with the
// row-buffer outcome it would have. Policies rank candidates.
type Candidate struct {
	Req *Request
	// RowHit reports whether the access would hit the currently open row.
	RowHit bool
	// Class is the full access classification (hit / closed / conflict).
	Class dram.AccessClass
}

// Context carries the controller state a policy may consult when ranking
// candidates. Slices are indexed by core and must not be mutated by policies.
type Context struct {
	Now   int64
	Cores int
	// PendingReads is the number of outstanding read requests per core
	// currently tracked by the controller (queued or in flight).
	PendingReads []int
	// Scores is the priority-table output per core: the quantized
	// ME[i]/PendingRead[i] value (ME-based policies). Higher is better.
	Scores []float64
	// FixedME is the table output at PendingRead == 1, i.e. the quantized
	// memory-efficiency rank itself (used by the fixed-priority ME policy).
	FixedME []float64
	// LC flags latency-critical cores (serving-class experiments); indexed
	// by core, always non-nil when the controller built the context, and
	// all-false when no classes were assigned. Deadline-aware policies
	// combine it with Request.Arrive to compute remaining slack.
	LC []bool
	// RNG breaks ties deterministically; the paper specifies random
	// selection among equal-priority requests.
	RNG *xrand.Rand
	// SameRowQueued reports how many queued requests (including req itself)
	// target req's DRAM row — the burst-length signal used by
	// burst-scheduling policies [Shao & Davis, HPCA'07].
	SameRowQueued func(req *Request) int
}

// Policy selects which candidate to issue next. Implementations live in
// package sched; the controller calls Pick with a non-empty candidate list.
type Policy interface {
	// Name returns the policy's registry name (e.g. "me-lreq").
	Name() string
	// Pick returns the index into cands of the request to issue.
	Pick(cands []Candidate, ctx *Context) int
}
