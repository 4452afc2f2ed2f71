package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"memsched/internal/memctrl"
	"memsched/internal/trace"
)

// Tracing is done from the outside: spans are recorded around the benchmark's
// own calls into each layer, and the only hooks inside a simulation are two
// delegating wrappers the simulator accepts through its public options — a
// scheduling policy around sched.New and instruction generators around
// trace.NewSynthetic. Both forward every call unchanged, so a traced run's
// Result is identical to an untraced one (checked by digest on every run).

// Sampling periods: one policy pick in pickSample and one generated
// instruction in genSample — the first and every period-th after it — is
// timed and recorded as a span. Both are prime, so the sample does not lock
// onto a periodic pattern in the workload. A sampled call's span carries a
// clock read or two of overhead and the cost of running cold, so the
// per-call metrics come from the CPU profile instead (see layerMetrics).
const (
	pickSample = 251
	genSample  = 4099
)

// span is one timed interval. Spans that share a cause point at it through
// Parent; the root span of a run has Parent 0.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced passes run.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t     *tracer
	s     span
	start time.Time
}

// begin opens a span under parent; it returns nil on a nil tracer.
func (t *tracer) begin(parent uint64, name, key string) *openSpan {
	if t == nil {
		return nil
	}
	now := time.Now()
	return &openSpan{t: t, start: now, s: span{
		ID: t.next.Add(1), Parent: parent, Name: name, Key: key,
		Start: now.Sub(t.t0).Nanoseconds(),
	}}
}

// id returns the span's id, 0 for a nil span.
func (o *openSpan) id() uint64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span and records it.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.Dur = time.Since(o.start).Nanoseconds()
	o.t.add(o.s)
}

func (t *tracer) add(ss ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// sample records a completed sampled call as a span under parent.
func (t *tracer) sample(parent uint64, name string, start time.Time, d time.Duration) span {
	return span{ID: t.next.Add(1), Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), Dur: d.Nanoseconds()}
}

// write saves every span, with the run context, as one JSON document.
func (t *tracer) write(path string, ctx runContext) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.Marshal(struct {
		Context runContext `json:"context"`
		Spans   []span     `json:"spans"`
	}{ctx, t.spans})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, blob, 0o644)
}

// tracedPolicy counts the controller's picks and candidates and records a
// sample of picks as spans, delegating every decision to the wrapped policy through
// the same indexed path the controller would have used.
type tracedPolicy struct {
	inner  memctrl.IndexedPolicy
	t      *tracer
	parent uint64

	picks, cands uint64
	spans        []span
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

// Pick serves controllers that use the slice path; the built-in controller
// always takes PickIndexed.
func (p *tracedPolicy) Pick(cands []memctrl.Candidate, ctx *memctrl.Context) int {
	v := memctrl.ViewOf(cands)
	return p.PickIndexed(&v, ctx)
}

func (p *tracedPolicy) PickIndexed(v *memctrl.CandidateView, ctx *memctrl.Context) int {
	p.picks++
	p.cands += uint64(v.Len())
	if p.picks%pickSample != 1 {
		return p.inner.PickIndexed(v, ctx)
	}
	t0 := time.Now()
	i := p.inner.PickIndexed(v, ctx)
	p.spans = append(p.spans, p.t.sample(p.parent, "policy.Pick", t0, time.Since(t0)))
	return i
}

// tracedGen counts the instructions a core draws from its generator and
// records a sample of the calls as spans. Each core owns its generator, so the counters
// need no locking even when cores tick in parallel windows.
type tracedGen struct {
	inner  trace.Generator
	t      *tracer
	parent uint64

	n     uint64
	spans []span
}

func (g *tracedGen) Next(ins *trace.Instr) {
	g.n++
	if g.n%genSample != 1 {
		g.inner.Next(ins)
		return
	}
	t0 := time.Now()
	g.inner.Next(ins)
	g.spans = append(g.spans, g.t.sample(g.parent, "generator.Next", t0, time.Since(t0)))
}
