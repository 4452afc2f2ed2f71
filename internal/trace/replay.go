package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Trace file format: the magic header followed by one record per
// instruction. Each record is one kind byte (with bit 7 set when the
// instruction depends on the preceding load), followed, for memory
// instructions, by the line address delta from the previous memory access as
// a zig-zag varint. Delta encoding keeps streaming traces around two bytes
// per memory instruction.
const magic = "MSTR1\n"

const depFlag = 0x80

// Writer serializes an instruction stream.
type Writer struct {
	w        *bufio.Writer
	lastLine uint64
	count    uint64
	buf      [binary.MaxVarintLen64 + 1]byte
}

// NewWriter starts a trace on w and writes the format header.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one instruction to the trace.
func (w *Writer) Write(ins *Instr) error {
	b := byte(ins.Kind)
	if ins.DepOnLoad {
		b |= depFlag
	}
	w.buf[0] = b
	n := 1
	if ins.Kind.IsMem() {
		delta := int64(ins.Line) - int64(w.lastLine)
		n += binary.PutVarint(w.buf[1:], delta)
		w.lastLine = ins.Line
	}
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		return fmt.Errorf("trace: writing record: %w", err)
	}
	w.count++
	return nil
}

// Count returns the number of instructions written.
func (w *Writer) Count() uint64 { return w.count }

// Flush completes the trace. The caller owns closing the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader replays a recorded trace.
type Reader struct {
	r        *bufio.Reader
	lastLine uint64
	count    uint64
}

// NewReader opens a trace and validates its header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head) != magic {
		return nil, errors.New("trace: not a trace file (bad magic)")
	}
	return &Reader{r: br}, nil
}

// Read fills ins with the next instruction. It returns io.EOF at the clean
// end of the trace.
func (r *Reader) Read(ins *Instr) error {
	b, err := r.r.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("trace: reading record: %w", err)
	}
	ins.DepOnLoad = b&depFlag != 0
	ins.Kind = Kind(b &^ depFlag)
	if ins.Kind >= numKinds {
		return fmt.Errorf("trace: corrupt record: kind %d", ins.Kind)
	}
	ins.Line = 0
	if ins.Kind.IsMem() {
		delta, err := binary.ReadVarint(r.r)
		if err != nil {
			return fmt.Errorf("trace: truncated memory record: %w", err)
		}
		r.lastLine = uint64(int64(r.lastLine) + delta)
		if r.lastLine >= LineLimit {
			return fmt.Errorf("trace: record %d: line %#x at or above the line limit %#x", r.count, r.lastLine, LineLimit)
		}
		ins.Line = r.lastLine
	}
	r.count++
	return nil
}

// Count returns the number of instructions read so far.
func (r *Reader) Count() uint64 { return r.count }

// Looper adapts a finite recorded trace into an infinite Generator by
// replaying it in a loop, matching the paper's "reload the application and
// keep running" behavior for cores that finish their slice early.
type Looper struct {
	records []Instr
	pos     int
}

// NewLooper reads the whole trace from r into memory. The trace must hold at
// least one instruction.
func NewLooper(r io.Reader) (*Looper, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var l Looper
	for {
		var ins Instr
		if err := tr.Read(&ins); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
		l.records = append(l.records, ins)
	}
	if len(l.records) == 0 {
		return nil, errors.New("trace: empty trace")
	}
	return &l, nil
}

// Len returns the number of instructions in one iteration of the loop.
func (l *Looper) Len() int { return len(l.records) }

// Next implements Generator.
func (l *Looper) Next(ins *Instr) {
	*ins = l.records[l.pos]
	l.pos++
	if l.pos == len(l.records) {
		l.pos = 0
	}
}
