package memctrl

// CandidateView gives a policy indexed access to one scheduling cycle's
// issuable candidates. The controller builds it straight from the per-bank
// request FIFOs; candidates appear in ascending request-ID order (global
// admission order), exactly the order the original full-queue scan produced,
// so tie-break RNG consumption — and therefore simulation results — are
// identical on both policy paths.
type CandidateView struct {
	cands []Candidate
}

// ViewOf wraps an existing candidate slice (used by the slice-path adapter
// and by tests). The view aliases the slice; it does not copy.
func ViewOf(cands []Candidate) CandidateView { return CandidateView{cands: cands} }

// Len returns the number of candidates.
func (v *CandidateView) Len() int { return len(v.cands) }

// At returns the i-th candidate in admission order. The pointer is valid
// only for the duration of the Pick call: the controller reuses the backing
// storage across cycles.
func (v *CandidateView) At(i int) *Candidate { return &v.cands[i] }

// Slice returns the backing candidate slice in admission order, for
// slice-based policies (the legacy Policy.Pick signature). Same lifetime
// caveat as At.
func (v *CandidateView) Slice() []Candidate { return v.cands }

// IndexedPolicy is an optional extension of Policy. Policies that implement
// it are handed the controller's CandidateView directly; policies that do
// not are served through the legacy slice adapter (Policy.Pick receives
// view.Slice()). All built-in policies in package sched implement both, with
// identical decisions either way.
type IndexedPolicy interface {
	Policy
	// PickIndexed returns the index (as in CandidateView.At) of the request
	// to issue.
	PickIndexed(view *CandidateView, ctx *Context) int
}

// completion is one in-flight read whose data return is scheduled. The
// controller keeps completions in a typed min-heap ordered by (at, seq), a
// stable order, instead of scheduling closures, so the steady-state hot path
// allocates nothing per request.
type completion struct {
	at       int64
	seq      uint64
	req      *Request
	issuedAt int64
}

// compHeap is a binary min-heap of completions by (at, seq).
type compHeap []completion

func (h compHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *compHeap) push(c completion) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *compHeap) pop() completion {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = completion{} // release the request pointer for GC
	*h = s[:last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s) && s.less(l, smallest) {
			smallest = l
		}
		if r < len(s) && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
}
