package sweepd

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
)

// bodyScanner is implemented by the three wire types that carry the
// protocol's bulk: OutcomesResponseV1, which the client decodes, and
// CompleteBatchRequestV1 and SweepRequestV1, which the coordinator decodes.
// scanBody decodes data into its zero receiver in one pass and reports true,
// or reports false and leaves the receiver as it was.
type bodyScanner interface {
	scanBody(data []byte) bool
}

// unmarshal decodes the JSON body data into the zero value v points to,
// exactly as json.Unmarshal does, result and error alike. A body of a
// bodyScanner is scanned once when it is in the plain form both ends write;
// json.Unmarshal scans every body twice, once to validate it and once more to
// decode it. Any other body, and every other type, goes to json.Unmarshal.
func unmarshal(data []byte, v any) error {
	if s, ok := v.(bodyScanner); ok && s.scanBody(data) {
		return nil
	}
	return json.Unmarshal(data, v)
}

// jsonNames returns the json names of the fields of the struct v, in order:
// the keys scanBody accepts for that struct.
func jsonNames(v any) []string {
	t := reflect.TypeOf(v)
	names := make([]string, t.NumField())
	for i := range names {
		names[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return names
}

var (
	outcomesFields = jsonNames(OutcomesResponseV1{})
	outcomeFields  = jsonNames(OutcomeV1{})
	batchFields    = jsonNames(CompleteBatchRequestV1{})
	completeFields = jsonNames(CompleteRequestV1{})
	sweepFields    = jsonNames(SweepRequestV1{})
	jobFields      = jsonNames(JobV1{})
	specFields     = jsonNames(JobSpecV1{})
)

// scanBody decodes an outcomes response; see bodyScanner.
func (r *OutcomesResponseV1) scanBody(data []byte) bool {
	s := scanner{data: data}
	var out OutcomesResponseV1
	ok := s.object(outcomesFields, func(field string) bool {
		switch field {
		case "sweep_id":
			return s.str(&out.SweepID)
		case "done":
			return s.bool(&out.Done)
		case "outcomes":
			out.Outcomes = []OutcomeV1{} // an empty list decodes non-nil
			return s.list(func() bool {
				var o OutcomeV1
				ok := s.object(outcomeFields, func(field string) bool {
					switch field {
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
	ok := s.object(batchFields, func(field string) bool {
		if field != "completions" {
			return false
		}
		out.Completions = []CompleteRequestV1{} // an empty list decodes non-nil
		return s.list(func() bool {
			var c CompleteRequestV1
			ok := s.object(completeFields, func(field string) bool {
				switch field {
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

// scanBody decodes a sweep request; see bodyScanner.
func (r *SweepRequestV1) scanBody(data []byte) bool {
	s := scanner{data: data}
	var out SweepRequestV1
	ok := s.object(sweepFields, func(field string) bool {
		switch field {
		case "meta":
			return s.str(&out.Meta)
		case "jobs":
			out.Jobs = []JobV1{} // an empty list decodes non-nil
			return s.list(func() bool {
				out.Jobs = append(out.Jobs, JobV1{})
				j := &out.Jobs[len(out.Jobs)-1]
				return s.object(jobFields, func(field string) bool {
					switch field {
					case "id":
						return scanInt(&s, &j.ID)
					case "key":
						return s.str(&j.Key)
					case "spec":
						return s.spec(&j.Spec)
					}
					return false
				})
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

// spec reads a job spec into *p. A machine override, which a knob sweep
// puts in every job, is a config.Config without json tags, whose keys
// json.Unmarshal matches case-insensitively, so a spec that carries one sends
// the whole body to json.Unmarshal.
func (s *scanner) spec(p *JobSpecV1) bool {
	return s.object(specFields, func(field string) bool {
		switch field {
		case "mix":
			return s.str(&p.Mix)
		case "apps":
			return s.str(&p.Apps)
		case "policy":
			return s.str(&p.Policy)
		case "instr":
			return s.uint(&p.Instr)
		case "me":
			p.ME = []float64{} // an empty list decodes non-nil
			return s.list(func() bool {
				var v float64
				ok := s.float(&v)
				p.ME = append(p.ME, v)
				return ok
			})
		case "seed":
			return s.uint(&p.Seed)
		case "online_me":
			return s.bool(&p.OnlineME)
		case "online_epoch":
			return scanInt(s, &p.OnlineEpoch)
		case "warmup_instr":
			return s.uint(&p.WarmupInstr)
		case "no_warmup":
			return s.bool(&p.NoWarmup)
		case "no_cycle_skip":
			return s.bool(&p.NoCycleSkip)
		case "max_cycles":
			return scanInt(s, &p.MaxCycles)
		case "classes":
			return s.str(&p.Classes)
		}
		return false
	})
}

// maxNestingDepth is encoding/json's bound on open arrays and objects. A
// body nested deeper is an error there, so the scanner hands it over.
const maxNestingDepth = 10000

// scanner reads a JSON body front to back for scanBody. Its fast path
// takes exactly what both ends write: object keys that are exact field
// names, each once; strings of printable ASCII with no escapes; numbers
// that strconv parses as json.Unmarshal does, so integers with no fraction
// or exponent; booleans; lists in brackets; and any valid JSON value where
// a field holds a raw value. Every method skips the whitespace before its
// token and reports false on anything else, which sends the body to
// json.Unmarshal: case-folded, duplicate, unknown or escaped keys, escapes
// and non-ASCII in strings, null where a field is not raw, nesting past
// maxNestingDepth, and every error.
// Every string and raw value it returns is a copy, so nothing decoded refers
// to data once the scan is over.
type scanner struct {
	data  []byte
	off   int
	depth int // open arrays and objects
}

// space skips whitespace. Every byte that can start or end a token is above
// ' ', so one compare settles it.
func (s *scanner) space() {
	for ; s.off < len(s.data); s.off++ {
		if c := s.data[s.off]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
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

// object reads an object whose keys are plain, each one of fields (at most
// 64) and none twice, calling member with the field a key names once the
// colon is read; member reads the value.
func (s *scanner) object(fields []string, member func(field string) bool) bool {
	if !s.open('{') {
		return false
	}
	if !s.next('}') {
		var seen uint64 // bit i: fields[i] was read
		for {
			key, ok := s.plain()
			if !ok || !s.next(':') {
				return false
			}
			i := 0
			for i < len(fields) && fields[i] != string(key) {
				i++
			}
			if i == len(fields) || seen&(1<<i) != 0 {
				return false
			}
			seen |= 1 << i
			if !member(fields[i]) {
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

// number reads a number and returns its text, which aliases data.
func (s *scanner) number() ([]byte, bool) {
	s.space()
	start := s.off
	if !s.skipNumber() {
		return nil, false
	}
	return s.data[start:s.off], true
}

// scanInt reads a number into *p as json.Unmarshal reads an int or int64:
// through strconv.ParseInt, which refuses a fraction or an exponent, and
// with a check that the value fits T.
func scanInt[T int | int64](s *scanner, p *T) bool {
	num, ok := s.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	*p = T(n)
	return err == nil && int64(*p) == n
}

// uint reads a number into *p as json.Unmarshal reads a uint64: through
// strconv.ParseUint, which takes all 20 digits up to math.MaxUint64 and
// refuses a sign, a fraction or an exponent.
func (s *scanner) uint(p *uint64) bool {
	num, ok := s.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseUint(string(num), 10, 64)
	*p = n
	return err == nil
}

// float reads a number into *p as json.Unmarshal reads a float64: through
// strconv.ParseFloat, which refuses a value out of range.
func (s *scanner) float(p *float64) bool {
	num, ok := s.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	*p = f
	return err == nil
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
