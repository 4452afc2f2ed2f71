package cache

import (
	"fmt"
	"slices"
	"testing"

	"memsched/internal/xrand"
)

// mapMSHR is the miss file MSHR replaced, kept as an independent reference:
// a Go map from line to that line's waiters in registration order.
type mapMSHR struct {
	cap     int
	pending map[uint64][]Waiter
}

func newMapMSHR(n int) *mapMSHR { return &mapMSHR{cap: n, pending: map[uint64][]Waiter{}} }

func (m *mapMSHR) Len() int   { return len(m.pending) }
func (m *mapMSHR) Full() bool { return len(m.pending) >= m.cap }

func (m *mapMSHR) Outstanding(line uint64) bool {
	_, ok := m.pending[line]
	return ok
}

func (m *mapMSHR) Allocate(line uint64, w Waiter) (merged, ok bool) {
	if ws, exists := m.pending[line]; exists {
		m.pending[line] = append(ws, w)
		return true, true
	}
	if m.Full() {
		return false, false
	}
	m.pending[line] = []Waiter{w}
	return false, true
}

func (m *mapMSHR) Take(line uint64) []Waiter {
	ws := m.pending[line]
	delete(m.pending, line)
	return ws
}

// mshrCaps are the capacities the differential tests drive: the one-entry
// file, the L1I, L1D and L2 files of Table 1, and one between.
var mshrCaps = []int{1, 4, 8, 32, 64}

// mshrLines picks the lines a differential run draws from: runs of lines
// that share a home slot at the table's end and at its start, so probe runs
// collide and wrap around, then enough other lines to fill the file.
func mshrLines(capacity int) []uint64 {
	m := NewMSHR(capacity)
	last := len(m.slots) - 1
	want := map[int]int{last: 4, last - 1: 3, 0: 3, 1: 2}
	var lines []uint64
	for line := uint64(0); len(lines) < 12 && line < 1<<20; line++ {
		if h := m.home(line); want[h] > 0 {
			want[h]--
			lines = append(lines, line)
		}
	}
	for line := uint64(1 << 30); len(lines) < 2*capacity+8; line += 3 {
		lines = append(lines, line)
	}
	return lines
}

// driveMSHR applies the operations ops encodes to an MSHR of the given
// capacity and to the map reference, and fails on the first difference in an
// Allocate result, in the waiters a Take returns or in their order, or in
// Len, Full or Outstanding after any operation. Each operation takes two
// bytes: the first picks the operation, the second the line.
func driveMSHR(t *testing.T, capacity int, ops []byte) {
	m, ref := NewMSHR(capacity), newMapMSHR(capacity)
	lines := mshrLines(capacity)
	var held [][]Waiter // taken but not yet recycled
	seq := int32(0)
	for k := 0; k+1 < len(ops); k += 2 {
		op, line := ops[k]%16, lines[int(ops[k+1])%len(lines)]
		what := ""
		switch {
		case op < 9:
			seq++
			w := Waiter{Core: seq, Write: seq%3 == 0, Instr: seq%5 == 0}
			what = fmt.Sprintf("Allocate(%#x)", line)
			gm, gok := m.Allocate(line, w)
			wm, wok := ref.Allocate(line, w)
			if gm != wm || gok != wok {
				t.Fatalf("op %d %s = (%v, %v), reference (%v, %v)", k/2, what, gm, gok, wm, wok)
			}
		case op < 14:
			if ref.Len() == 0 {
				continue
			}
			if !ref.Outstanding(line) {
				// Take some outstanding line: the first in pick order.
				for _, l := range lines {
					if ref.Outstanding(l) {
						line = l
						break
					}
				}
			}
			what = fmt.Sprintf("Take(%#x)", line)
			got, want := m.Take(line), ref.Take(line)
			if !sameWaiters(got, want) {
				t.Fatalf("op %d %s = %v, reference %v", k/2, what, got, want)
			}
			held = append(held, got)
			if op == 13 {
				for _, ws := range held {
					m.Recycle(ws)
				}
				held = held[:0]
			}
		default:
			what = "Recycle"
			if len(held) > 0 {
				m.Recycle(held[len(held)-1])
				held = held[:len(held)-1]
			}
		}
		if m.Len() != ref.Len() || m.Full() != ref.Full() {
			t.Fatalf("after op %d %s: Len %d Full %v, reference %d %v", k/2, what, m.Len(), m.Full(), ref.Len(), ref.Full())
		}
		for _, l := range lines {
			if m.Outstanding(l) != ref.Outstanding(l) {
				t.Fatalf("after op %d %s: Outstanding(%#x) = %v, reference %v", k/2, what, l, m.Outstanding(l), ref.Outstanding(l))
			}
		}
	}
}

// sameWaiters compares waiters field by field; Done stays nil in these runs.
func sameWaiters(a, b []Waiter) bool {
	return slices.EqualFunc(a, b, func(x, y Waiter) bool {
		return x.Write == y.Write && x.Instr == y.Instr && x.Core == y.Core
	})
}

func TestMSHRMatchesMapReference(t *testing.T) {
	r := xrand.New(1)
	for _, capacity := range mshrCaps {
		ops := make([]byte, 40_000)
		for i := range ops {
			ops[i] = byte(r.Uint64())
		}
		t.Run(fmt.Sprint(capacity), func(t *testing.T) { driveMSHR(t, capacity, ops) })
	}
}

// FuzzMSHR drives the table and the map reference with operation sequences
// from the fuzzer; the first input byte picks the capacity.
func FuzzMSHR(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 10, 1})
	f.Add([]byte{2, 0, 0, 0, 1, 0, 2, 0, 3, 10, 0, 10, 1, 15, 0, 0, 4})
	f.Add([]byte{4, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 12, 1, 12, 0, 13, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		driveMSHR(t, mshrCaps[int(in[0])%len(mshrCaps)], in[1:])
	})
}
