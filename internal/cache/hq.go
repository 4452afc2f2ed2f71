package cache

// The hierarchy's internal latency events all carry the same tiny payload —
// a core, a line, and a destination — so they are stored as plain values in a
// typed min-heap instead of closures on a generic event queue. Ordering is
// (when, insertion seq), so events due in the same cycle run in the order
// they were scheduled, and the steady-state miss path allocates nothing.

// hevent kinds.
const (
	hkL2Req   uint8 = iota // run l2Request(core, line, when, instr)
	hkFill                 // deliver an L2 hit to core's L1D (or L1I if instr)
	hkFillL2               // PerfectMemory: install line into L2 directly
	hkMemRead              // try EnqueueRead; retry next cycle while full
)

// hevent is one scheduled hierarchy event.
type hevent struct {
	when  int64
	seq   uint64
	kind  uint8
	instr bool
	core  int32
	line  uint64
}

// heventHeap is a binary min-heap of hevents by (when, seq).
type heventHeap []hevent

func (h heventHeap) less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

func (h *heventHeap) push(e hevent) {
	*h = append(*h, e)
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

func (h *heventHeap) pop() hevent {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
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
