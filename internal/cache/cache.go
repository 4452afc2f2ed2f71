// Package cache implements the processor cache hierarchy: set-associative
// write-back write-allocate caches with true-LRU replacement, miss status
// holding registers (MSHRs) with same-line merging, and the two-level
// L1D / shared-L2 hierarchy of the paper's Table 1.
package cache

import (
	"fmt"
	"math/bits"

	"memsched/internal/config"
	"memsched/internal/trace"
)

// A frame is one tag word: the line shifted up by flagBits, then the valid
// and dirty bits. An invalid frame is zero. trace.LineLimit keeps every line
// below 2^62, so the shift never drops a bit and no two lines share a word.
const (
	dirtyBit = 1
	validBit = 2
	flagBits = 2
)

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// MissRate returns misses / (hits + misses).
func (s *Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// Cache is a single set-associative write-back cache operating on cache-line
// addresses. It models only the tag array: the simulator never moves data.
//
// Each set is assoc consecutive tag words in recency order: valid words
// first, most recently used first, and invalid words trailing. A hit or a
// refill moves its word to the front, a fill shifts the set down by one and
// evicts the word that falls off the end, and Invalidate closes the gap.
// That is exactly true LRU, the order a per-frame stamp of the last use
// would give, in 8 bytes per frame.
type Cache struct {
	tags    []uint64
	setMask uint64
	assoc   int
	stats   Stats
}

// New builds a cache from a validated CacheConfig.
func New(cc config.CacheConfig) (*Cache, error) {
	if cc.Assoc < 1 || cc.LineBytes < 1 {
		return nil, fmt.Errorf("cache: invalid geometry %+v", cc)
	}
	nSets := cc.SizeBytes / (cc.Assoc * cc.LineBytes)
	if nSets < 1 || nSets&(nSets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", nSets)
	}
	return &Cache{
		tags:    make([]uint64, nSets*cc.Assoc),
		setMask: uint64(nSets - 1),
		assoc:   cc.Assoc,
	}, nil
}

// MustNew is New but panics on invalid geometry.
func MustNew(cc config.CacheConfig) *Cache {
	c, err := New(cc)
	if err != nil {
		panic(err)
	}
	return c
}

// Sets returns the number of sets (for tests).
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Stats returns a copy of the cache's event counts.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counts; contents and LRU state are kept.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// set returns line's set and its clean tag word. A line at or above
// trace.LineLimit has no tag word, so it panics rather than alias another.
func (c *Cache) set(line uint64) ([]uint64, uint64) {
	if line >= trace.LineLimit {
		panic(badLine(line))
	}
	base := int(line&c.setMask) * c.assoc
	return c.tags[base : base+c.assoc], line<<flagBits | validBit
}

// Lookup probes for line. On a hit it updates LRU state and, if write is
// set, marks the block dirty. It returns whether the access hit.
func (c *Cache) Lookup(line uint64, write bool) bool {
	i := c.probe(line)
	if i < 0 {
		c.stats.Misses++
		return false
	}
	c.touch(line, i, write)
	return true
}

// probe returns line's position in its set (0 = most recently used), or -1
// on a miss. It records no statistics and touches no LRU state: in-package
// callers on the hot path use it to combine the hazard check and the tag
// lookup into one set scan, applying Lookup's hit side effects via touch (or
// counting the miss themselves) once the outcome is known.
func (c *Cache) probe(line uint64) int {
	set, tag := c.set(line)
	for i, w := range set {
		if w&^dirtyBit == tag {
			return i
		}
	}
	return -1
}

// touch applies Lookup's hit side effects to line at position i, as returned
// by probe: LRU refresh, optional dirty marking, and the hit count. The
// position is only valid until the next Insert/Invalidate on this cache.
func (c *Cache) touch(line uint64, i int, write bool) {
	set, _ := c.set(line)
	if write {
		set[i] |= dirtyBit
	}
	promote(set, i, set[i])
	c.stats.Hits++
}

// promote moves the word at position i to the front of set as w, shifting
// the more recently used words down by one.
func promote(set []uint64, i int, w uint64) {
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = w
}

// Peek probes for line without updating LRU, dirty bits, or statistics.
func (c *Cache) Peek(line uint64) bool { return c.probe(line) >= 0 }

// Victim describes a block evicted by Insert.
type Victim struct {
	Line  uint64
	Dirty bool
}

// Insert fills line into the cache (after a miss was serviced), evicting the
// LRU line if the set is full. dirty marks the incoming block dirty (e.g. a
// store that missed). It returns the evicted block, if any.
//
// Inserting a line that is already present just refreshes its state (this
// happens when two merged misses complete) and evicts nothing.
func (c *Cache) Insert(line uint64, dirty bool) (Victim, bool) {
	set, tag := c.set(line)
	if dirty {
		tag |= dirtyBit
	}
	for i, w := range set {
		if w&^dirtyBit == tag&^dirtyBit {
			promote(set, i, w|tag)
			return Victim{}, false
		}
	}
	// The last word falls off: the LRU line, or 0 if the set had a free frame.
	last := len(set) - 1
	old := set[last]
	promote(set, last, tag)
	if old == 0 {
		return Victim{}, false
	}
	victim := Victim{Line: old >> flagBits, Dirty: old&dirtyBit != 0}
	c.stats.Evictions++
	if victim.Dirty {
		c.stats.Writebacks++
	}
	return victim, true
}

// Invalidate removes line if present, returning whether it was dirty.
func (c *Cache) Invalidate(line uint64) (wasPresent, wasDirty bool) {
	set, tag := c.set(line)
	for i, w := range set {
		if w&^dirtyBit == tag {
			copy(set[i:], set[i+1:])
			set[len(set)-1] = 0
			return true, w&dirtyBit != 0
		}
	}
	return false, false
}

// NoCore marks a Waiter that wakes nobody on completion (e.g. a stream
// prefetch merged into the L2 MSHR file).
const NoCore = int32(-1)

// Waiter is one request merged into an MSHR entry. The fields are a union of
// what the two users of MSHRs need, so waiters are plain values and neither
// registration nor completion allocates a closure:
//
//	L1D/L1I files: Write (replay the access against the L1 on fill, which
//	re-establishes LRU order and the dirty bit) and Done (the core's
//	persistent callback, may be nil).
//	L2 file: Core and Instr route the fill to that core's L1D or L1I;
//	Core == NoCore wakes nobody.
type Waiter struct {
	Write bool
	Instr bool
	Core  int32
	Done  func(now int64)
}

// MSHR tracks outstanding misses, merging requests to the same line into one
// downstream fetch.
//
// The file is an open-addressed hash table with linear probing, sized once
// to at least twice its capacity, so a probe stops at a free slot within a
// few steps. Take deletes by shifting the rest of the probe run back, which
// leaves no tombstones. Each entry's waiters sit in a slice recycled through
// pool, so steady-state operation allocates nothing.
type MSHR struct {
	slots []mshrSlot // a power of two long
	shift uint       // 64 - log2(len(slots)): home keeps the hash's top bits
	n     int        // occupied slots
	cap   int
	pool  [][]Waiter
}

// mshrSlot is one table slot; a nil ws marks it free.
type mshrSlot struct {
	line uint64
	ws   []Waiter
}

// NewMSHR builds an MSHR file with n entries.
func NewMSHR(n int) *MSHR {
	size := 2
	for size < 2*n {
		size *= 2
	}
	return &MSHR{slots: make([]mshrSlot, size), shift: uint(65 - bits.Len(uint(size))), cap: n}
}

// home is line's first probe position: a Fibonacci hash, whose top bits mix
// every bit of the line, so neighbouring lines spread over the table.
func (m *MSHR) home(line uint64) int { return int(line * 0x9e3779b97f4a7c15 >> m.shift) }

// find returns line's slot and whether it is occupied by line; when it is
// not, the slot is the free one where line's probe run ends.
func (m *MSHR) find(line uint64) (int, bool) {
	mask := len(m.slots) - 1
	for i := m.home(line); ; i = (i + 1) & mask {
		if s := &m.slots[i]; s.ws == nil || s.line == line {
			return i, s.ws != nil
		}
	}
}

// Len returns the number of allocated entries (distinct outstanding lines).
func (m *MSHR) Len() int { return m.n }

// Full reports whether a new (non-mergeable) allocation would fail.
func (m *MSHR) Full() bool { return m.n >= m.cap }

// Outstanding reports whether line already has an entry.
func (m *MSHR) Outstanding(line uint64) bool {
	_, ok := m.find(line)
	return ok
}

// Allocate registers a waiter for line. It returns:
//
//	merged=true  if the line was already outstanding (no new fetch needed),
//	ok=false     if a new entry was required but the file is full.
func (m *MSHR) Allocate(line uint64, w Waiter) (merged, ok bool) {
	i, exists := m.find(line)
	s := &m.slots[i]
	if exists {
		s.ws = append(s.ws, w)
		return true, true
	}
	if m.Full() {
		return false, false
	}
	if n := len(m.pool); n > 0 {
		s.ws, m.pool = m.pool[n-1], m.pool[:n-1]
	} else {
		s.ws = make([]Waiter, 0, 4)
	}
	s.line, s.ws = line, append(s.ws, w)
	m.n++
	return false, true
}

// Take frees the entry for line and returns its waiters in registration
// order. The caller services them and then must hand the slice back via
// Recycle. Taking a line with no entry is a bug in the caller and panics.
func (m *MSHR) Take(line uint64) []Waiter {
	i, ok := m.find(line)
	if !ok {
		panic(fmt.Sprintf("cache: MSHR completion for line %#x with no entry", line))
	}
	ws := m.slots[i].ws
	// Backward-shift deletion: walk the probe run after the hole, moving
	// back each entry whose home does not lie between the hole and its slot,
	// so every remaining line is still reachable from its home.
	mask := len(m.slots) - 1
	for j := (i + 1) & mask; m.slots[j].ws != nil; j = (j + 1) & mask {
		if (j-m.home(m.slots[j].line))&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = mshrSlot{}
	m.n--
	return ws
}

// Recycle returns a slice obtained from Take to the entry pool, dropping the
// waiters' callbacks for GC.
func (m *MSHR) Recycle(ws []Waiter) {
	for i := range ws {
		ws[i] = Waiter{}
	}
	m.pool = append(m.pool, ws[:0])
}

// badLine is the panic value for a line at or above trace.LineLimit. It is
// formatted only when printed, which keeps set cheap enough to inline.
type badLine uint64

func (l badLine) Error() string {
	return fmt.Sprintf("cache: line %#x at or above trace.LineLimit", uint64(l))
}
