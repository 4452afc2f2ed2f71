package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"memsched/internal/xrand"
)

// FuzzReader ensures arbitrary bytes never panic the decoder: it must return
// a clean error or EOF, and every line it decodes is below LineLimit. Seed
// corpus covers a valid header with garbage tails and a load stepping below
// line 0.
func FuzzReader(f *testing.F) {
	f.Add([]byte(magic))
	f.Add(rawLoads(-1))
	f.Add([]byte(magic + "\x05\x07garbage"))
	f.Add([]byte("not a trace at all"))
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(&Instr{Kind: KindLoad, Line: 42})
	w.Write(&Instr{Kind: KindInt, DepOnLoad: true})
	w.Flush()
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var ins Instr
		for i := 0; i < 10000; i++ {
			if err := r.Read(&ins); err != nil {
				if !errors.Is(err, io.EOF) && err.Error() == "" {
					t.Fatal("empty error message")
				}
				return
			}
			if ins.Line >= LineLimit {
				t.Fatalf("record %d: decoded line %#x", i, ins.Line)
			}
		}
	})
}

// TestReaderNeverPanicsOnRandomBytes is the quick-check twin of FuzzReader,
// exercised on every `go test` run (the fuzz engine only runs its seeds).
func TestReaderNeverPanicsOnRandomBytes(t *testing.T) {
	rng := xrand.New(42)
	fn := func(n uint16, prependMagic bool) bool {
		data := make([]byte, int(n%4096))
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		if prependMagic {
			data = append([]byte(magic), data...)
		}
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return true
		}
		var ins Instr
		for {
			if err := r.Read(&ins); err != nil {
				return true
			}
			if ins.Kind >= numKinds {
				return false // decoder let a corrupt kind through
			}
		}
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
