package cache

import (
	"cmp"
	"slices"
	"testing"

	"memsched/internal/config"
	"memsched/internal/trace"
	"memsched/internal/xrand"
)

// stampCache is the tag store Cache replaced, kept as an independent
// reference: one frame per way with valid and dirty flags, and a per-cache
// use clock stamped into each frame on every hit and fill, so the LRU victim
// is the frame with the smallest stamp.
type stampCache struct {
	sets     [][]stampWay
	setMask  uint64
	useClock uint64
	stats    Stats
}

type stampWay struct {
	valid   bool
	dirty   bool
	tag     uint64
	lastUse uint64
}

func newStampCache(sets, assoc int) *stampCache {
	c := &stampCache{sets: make([][]stampWay, sets), setMask: uint64(sets - 1)}
	for i := range c.sets {
		c.sets[i] = make([]stampWay, assoc)
	}
	return c
}

func (c *stampCache) probe(line uint64) *stampWay {
	set := c.sets[line&c.setMask]
	for i := range set {
		if w := &set[i]; w.valid && w.tag == line {
			return w
		}
	}
	return nil
}

func (c *stampCache) touch(w *stampWay, write bool) {
	c.useClock++
	w.lastUse = c.useClock
	w.dirty = w.dirty || write
	c.stats.Hits++
}

func (c *stampCache) Lookup(line uint64, write bool) bool {
	if w := c.probe(line); w != nil {
		c.touch(w, write)
		return true
	}
	c.stats.Misses++
	return false
}

func (c *stampCache) Peek(line uint64) bool { return c.probe(line) != nil }

func (c *stampCache) Insert(line uint64, dirty bool) (Victim, bool) {
	c.useClock++
	if w := c.probe(line); w != nil {
		w.lastUse = c.useClock
		w.dirty = w.dirty || dirty
		return Victim{}, false
	}
	set := c.sets[line&c.setMask]
	for i := range set {
		if !set[i].valid {
			set[i] = stampWay{valid: true, dirty: dirty, tag: line, lastUse: c.useClock}
			return Victim{}, false
		}
	}
	lru := 0
	for i := 1; i < len(set); i++ {
		if set[i].lastUse < set[lru].lastUse {
			lru = i
		}
	}
	victim := Victim{Line: set[lru].tag, Dirty: set[lru].dirty}
	set[lru] = stampWay{valid: true, dirty: dirty, tag: line, lastUse: c.useClock}
	c.stats.Evictions++
	if victim.Dirty {
		c.stats.Writebacks++
	}
	return victim, true
}

func (c *stampCache) Invalidate(line uint64) (wasPresent, wasDirty bool) {
	if w := c.probe(line); w != nil {
		d := w.dirty
		*w = stampWay{}
		return true, d
	}
	return false, false
}

// words renders the set holding line as Cache stores it: the valid frames
// as tag words, most recent stamp first, then zero words.
func (c *stampCache) words(line uint64) []uint64 {
	set := slices.Clone(c.sets[line&c.setMask])
	slices.SortFunc(set, func(a, b stampWay) int {
		return cmp.Compare(b.lastUse, a.lastUse) // invalid frames carry no stamp
	})
	out := make([]uint64, len(set))
	for i, w := range set {
		if w.valid {
			out[i] = w.tag<<flagBits | validBit
			if w.dirty {
				out[i] |= dirtyBit
			}
		}
	}
	return out
}

// tagGeometries are the (sets, assoc) shapes the oracle drives: direct
// mapped, odd associativities, the Table 1 L1 and L2 shapes in miniature,
// and fully associative caches.
var tagGeometries = [][2]int{{4, 1}, {1, 1}, {4, 2}, {2, 3}, {4, 3}, {8, 4}, {2, 5}, {1, 8}, {1, 16}}

// tagTop is a set-aligned base near trace.LineLimit, so half of the lines
// the oracle uses need all 62 line bits of a tag word.
const tagTop = trace.LineLimit - 1<<10

// checkTagStore runs ops against a Cache of the given geometry and the stamp
// reference. Each op is two bytes: the operation (modulo 10, in pairs:
// Lookup, Insert, Peek, Invalidate, probe then touch; odd means a write or a
// dirty fill), and a line drawn from a few sets' worth of lines, either
// small or just below trace.LineLimit. After
// every operation the outcome (hit, victim line and dirty bit), Stats, Peek
// of the line and the words of its set must agree.
func checkTagStore(t *testing.T, sets, assoc int, ops []byte) {
	t.Helper()
	c := MustNew(config.CacheConfig{SizeBytes: sets * assoc * 64, Assoc: assoc, LineBytes: 64})
	ref := newStampCache(sets, assoc)
	span := uint64(3*sets*assoc + 1)
	lineOf := func(b byte) uint64 {
		line := uint64(b&0x7f) % span
		if b&0x80 != 0 {
			line += tagTop
		}
		return line
	}
	for k := 0; k+1 < len(ops); k += 2 {
		line, write := lineOf(ops[k+1]), ops[k]&1 != 0
		// hit doubles as Insert's evicted and Invalidate's wasPresent.
		var got, want struct {
			hit, dirty bool
			victim     Victim
		}
		switch ops[k] % 10 {
		case 0, 1:
			got.hit, want.hit = c.Lookup(line, write), ref.Lookup(line, write)
		case 2, 3:
			got.victim, got.hit = c.Insert(line, write)
			want.victim, want.hit = ref.Insert(line, write)
		case 4, 5:
			got.hit, want.hit = c.Peek(line), ref.Peek(line)
		case 6, 7:
			got.hit, got.dirty = c.Invalidate(line)
			want.hit, want.dirty = ref.Invalidate(line)
		default:
			if i := c.probe(line); i >= 0 {
				c.touch(line, i, write)
				got.hit = true
			}
			if w := ref.probe(line); w != nil {
				ref.touch(w, write)
				want.hit = true
			}
		}
		if got != want {
			t.Fatalf("%dx%d op %d (%d on line %#x): got %+v, reference %+v", sets, assoc, k/2, ops[k]%10, line, got, want)
		}
		if c.Stats() != ref.stats {
			t.Fatalf("%dx%d op %d: stats %+v, reference %+v", sets, assoc, k/2, c.Stats(), ref.stats)
		}
		if c.Peek(line) != ref.Peek(line) {
			t.Fatalf("%dx%d op %d: Peek(%#x) = %v, reference %v", sets, assoc, k/2, line, c.Peek(line), ref.Peek(line))
		}
		if set, _ := c.set(line); !slices.Equal(set, ref.words(line)) {
			t.Fatalf("%dx%d op %d: set of line %#x holds %#x, reference %#x", sets, assoc, k/2, line, set, ref.words(line))
		}
	}
}

// TestTagStoreMatchesStampLRU drives the packed, recency-ordered tag store
// and the stamp-LRU reference with the same random operation sequences.
func TestTagStoreMatchesStampLRU(t *testing.T) {
	rng := xrand.New(1)
	ops := make([]byte, 2*3000)
	for _, g := range tagGeometries {
		for seed := 0; seed < 20; seed++ {
			for i := range ops {
				ops[i] = byte(rng.Uint32())
			}
			checkTagStore(t, g[0], g[1], ops)
		}
	}
}

// FuzzTagStore is the fuzzing form of TestTagStoreMatchesStampLRU: the
// first byte picks the geometry and the rest are operations.
func FuzzTagStore(f *testing.F) {
	f.Add([]byte{0, 2, 0, 2, 4, 6, 4, 0, 0, 2, 8})
	f.Add([]byte{2, 3, 1, 3, 3, 3, 5, 9, 1, 6, 3, 2, 7, 2, 9})
	f.Add([]byte{7, 2, 0x80, 3, 0x81, 2, 0x82, 8, 0x80, 6, 0x81, 2, 0x83})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := tagGeometries[int(data[0])%len(tagGeometries)]
		checkTagStore(t, g[0], g[1], data[1:])
	})
}
