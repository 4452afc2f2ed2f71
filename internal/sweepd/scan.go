package sweepd

import (
	"bytes"
	"encoding/json"
)

// bodyScanner is implemented by the two wire types whose bodies carry
// Results: OutcomesResponseV1, which the client decodes, and
// CompleteBatchRequestV1, which the coordinator decodes. scanBody decodes
// data into its zero receiver in one pass and reports true, or reports false
// and leaves the receiver as it was.
type bodyScanner interface {
	scanBody(data []byte) bool
}

// unmarshal decodes the JSON body data into the zero value v points to,
// exactly as json.Unmarshal does, result and error alike. A body carrying Results is scanned once when
// it is in the plain form both ends write; json.Unmarshal scans every body
// twice, once to validate it and once more to find where each raw value
// ends. Any other body, and every other type, goes to json.Unmarshal.
func unmarshal(data []byte, v any) error {
	if s, ok := v.(bodyScanner); ok && s.scanBody(data) {
		return nil
	}
	return json.Unmarshal(data, v)
}

// scanBody decodes an outcomes response; see bodyScanner.
func (r *OutcomesResponseV1) scanBody(data []byte) bool {
	s := scanner{data: data}
	var out OutcomesResponseV1
	ok := s.object(func(key []byte) bool {
		switch string(key) {
		case "sweep_id":
			return s.str(&out.SweepID)
		case "done":
			return s.bool(&out.Done)
		case "outcomes":
			out.Outcomes = []OutcomeV1{} // an empty list decodes non-nil
			return s.list(func() bool {
				var o OutcomeV1
				ok := s.object(func(key []byte) bool {
					switch string(key) {
					case "id":
						return scanInt(&s, &o.ID)
					case "key":
						return s.str(&o.Key)
					case "value":
						return s.raw(&o.Value)
					case "err":
						return s.str(&o.Err)
					case "cache_hit":
						return s.bool(&o.CacheHit)
					case "worker":
						return s.str(&o.Worker)
					case "elapsed_ms":
						return scanInt(&s, &o.ElapsedMillis)
					}
					return false
				})
				out.Outcomes = append(out.Outcomes, o)
				return ok
			})
		}
		return false
	})
	if !ok || !s.end() {
		return false
	}
	*r = out
	return true
}

// scanBody decodes a completion batch; see bodyScanner.
func (r *CompleteBatchRequestV1) scanBody(data []byte) bool {
	s := scanner{data: data}
	var out CompleteBatchRequestV1
	ok := s.object(func(key []byte) bool {
		if string(key) != "completions" {
			return false
		}
		out.Completions = []CompleteRequestV1{} // an empty list decodes non-nil
		return s.list(func() bool {
			var c CompleteRequestV1
			ok := s.object(func(key []byte) bool {
				switch string(key) {
				case "lease_id":
					return s.str(&c.LeaseID)
				case "value":
					return s.raw(&c.Value)
				case "err":
					return s.str(&c.Err)
				case "elapsed_ms":
					return scanInt(&s, &c.ElapsedMillis)
				}
				return false
			})
			out.Completions = append(out.Completions, c)
			return ok
		})
	})
	if !ok || !s.end() {
		return false
	}
	*r = out
	return true
}

// maxNestingDepth is encoding/json's bound on open arrays and objects. A
// body nested deeper is an error there, so the scanner hands it over.
const maxNestingDepth = 10000

// scanner reads a JSON body front to back for scanBody. Its fast path
// takes exactly what both ends write: object keys that are exact field
// names, each once; strings of printable ASCII with no escapes; integers of
// at most 18 digits, with no fraction or exponent; booleans; lists in
// brackets; and any valid JSON value where a field holds a raw value. Every
// method skips the whitespace before its token and reports false on
// anything else, which sends the body to json.Unmarshal: case-folded,
// duplicate, unknown or escaped keys, escapes and non-ASCII in strings, null
// where a field is not raw, nesting past maxNestingDepth, and every error.
// Every string and raw value it returns is a copy, so nothing decoded refers
// to data once the scan is over.
type scanner struct {
	data  []byte
	off   int
	depth int // open arrays and objects
}

// space skips whitespace.
func (s *scanner) space() {
	for ; s.off < len(s.data); s.off++ {
		if c := s.data[s.off]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
	}
}

// next consumes c if it is the next token.
func (s *scanner) next(c byte) bool {
	s.space()
	if s.off < len(s.data) && s.data[s.off] == c {
		s.off++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.space()
	return s.off == len(s.data)
}

// open consumes the opening byte c of an array or object and counts its
// depth.
func (s *scanner) open(c byte) bool {
	if !s.next(c) {
		return false
	}
	s.depth++
	return s.depth <= maxNestingDepth
}

// object reads an object whose keys are plain and distinct (a wire type has
// fewer than eight fields), calling member with each key once the colon is
// read; member reads the value, and reports false for a key that names no
// field.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.open('{') {
		return false
	}
	if !s.next('}') {
		var keys [8][]byte
		for n := 0; ; n++ {
			key, ok := s.plain()
			if !ok || n == len(keys) || !s.next(':') {
				return false
			}
			for _, k := range keys[:n] {
				if bytes.Equal(k, key) {
					return false
				}
			}
			keys[n] = key
			if !member(key) {
				return false
			}
			if s.next('}') {
				break
			}
			if !s.next(',') {
				return false
			}
		}
	}
	s.depth--
	return true
}

// list reads a bracketed list, calling elem to read each element.
func (s *scanner) list(elem func() bool) bool {
	if !s.open('[') {
		return false
	}
	if !s.next(']') {
		for {
			if !elem() {
				return false
			}
			if s.next(']') {
				break
			}
			if !s.next(',') {
				return false
			}
		}
	}
	s.depth--
	return true
}

// plain reads a string of printable ASCII with no escapes and returns its
// contents, which alias data.
func (s *scanner) plain() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for i := s.off; i < len(s.data); i++ {
		c := s.data[i]
		if c == '"' {
			b := s.data[s.off:i]
			s.off = i + 1
			return b, true
		}
		if c < ' ' || c > '~' || c == '\\' {
			return nil, false
		}
	}
	return nil, false
}

// str reads a plain string into *p.
func (s *scanner) str(p *string) bool {
	b, ok := s.plain()
	*p = string(b)
	return ok
}

// bool reads true or false into *p.
func (s *scanner) bool(p *bool) bool {
	s.space()
	*p = s.literal("true")
	return *p || s.literal("false")
}

// scanInt reads into *p an integer of at most 18 digits, which fits an
// int64 without an overflow check, with no fraction or exponent.
func scanInt[T int | int64](s *scanner, p *T) bool {
	s.space()
	start := s.off
	if !s.skipNumber() {
		return false
	}
	num := s.data[start:s.off]
	digits := bytes.TrimPrefix(num, []byte("-"))
	if len(digits) > 18 {
		return false
	}
	var n int64
	for _, c := range digits {
		if c < '0' || c > '9' { // a fraction or an exponent
			return false
		}
		n = n*10 + int64(c-'0')
	}
	if len(digits) < len(num) {
		n = -n
	}
	*p = T(n)
	return int64(*p) == n // an int narrower than 64 bits
}

// raw reads any JSON value into *p as a copy of its bytes, as
// json.RawMessage decodes it.
func (s *scanner) raw(p *json.RawMessage) bool {
	s.space()
	start := s.off
	if !s.skip() {
		return false
	}
	*p = append(json.RawMessage(nil), s.data[start:s.off]...)
	return true
}

// skip reads one JSON value of any kind, with encoding/json's grammar: a
// string may hold any byte from 0x20 up but '"' and '\', invalid UTF-8
// included, and escapes are \", \\, \/, \b, \f, \n, \r, \t and \u with four
// hex digits.
func (s *scanner) skip() bool {
	s.space()
	if s.off == len(s.data) {
		return false
	}
	switch s.data[s.off] {
	case '{':
		if !s.open('{') {
			return false
		}
		if !s.next('}') {
			for {
				if !s.next('"') || !s.skipString() || !s.next(':') || !s.skip() {
					return false
				}
				if s.next('}') {
					break
				}
				if !s.next(',') {
					return false
				}
			}
		}
		s.depth--
		return true
	case '[':
		return s.list(s.skip)
	case '"':
		s.off++
		return s.skipString()
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	return s.skipNumber()
}

// unescapedByte marks the bytes a JSON string may hold as they are: every
// byte from 0x20 up but '"' and '\\'.
var unescapedByte = func() (t [256]bool) {
	for c := ' '; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// skipString reads the rest of a string whose opening quote is consumed.
func (s *scanner) skipString() bool {
	b := s.data
	for i := s.off; ; i++ {
		for i < len(b) && unescapedByte[b[i]] {
			i++
		}
		if i == len(b) {
			return false
		}
		switch b[i] {
		case '"':
			s.off = i + 1
			return true
		case '\\':
			i++
			if i == len(b) {
				return false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) {
					return false
				}
				for _, h := range b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return false
					}
				}
				i += 4
			default:
				return false
			}
		default: // a control byte
			return false
		}
	}
}

// skipNumber reads a number: an optional minus, an integer part with no
// leading zero, then an optional fraction and an optional exponent.
func (s *scanner) skipNumber() bool {
	b, i := s.data, s.off
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		if j := skipDigits(b, i+1); j > i+1 {
			i = j
		} else {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := skipDigits(b, i); j > i {
			i = j
		} else {
			return false
		}
	}
	s.off = i
	return true
}

// skipDigits returns the index of the first non-digit at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// literal reads the literal lit.
func (s *scanner) literal(lit string) bool {
	if !bytes.HasPrefix(s.data[s.off:], []byte(lit)) {
		return false
	}
	s.off += len(lit)
	return true
}
