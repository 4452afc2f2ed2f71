package sweepd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"memsched/internal/config"
)

// FuzzEncodeSweep checks the client's encoding of sweep requests against
// json.Marshal, the encoder it replaced: encode must return json.Marshal's
// bytes and error; appendBody must write its bytes, and refuse exactly where
// it fails or a spec carries a machine override, which is left to
// json.Marshal; each spec's appendJSON must do the same; and so every
// fingerprint is the SHA-256 of json.Marshal's encoding, as it always was. The request is
// the fuzz body as json.Unmarshal decodes it (or none), with the first job's
// fields then set by flags: any string, from str, in the meta, the key and
// the spec; any float bits, from f0 and f1, in the ME list and the machine;
// and nil, empty or default machines. What the client sends must decode as
// json.Unmarshal decodes it (checkScan).
func FuzzEncodeSweep(f *testing.F) {
	bodies := sweepBodies(f)
	for _, body := range bodies {
		f.Add(body, "", uint64(0), uint64(0), uint8(0))
	}
	floats := []float64{1e-6, 9.99e-7, 1e21, 1e20, math.Copysign(0, -1), 5e-324, math.MaxFloat64,
		2.5e-9, math.NaN(), math.Inf(1), math.Inf(-1)}
	strs := []string{"<b>&amp;</b>", "line\u2028sep\u2029", "bad\xff\xfeutf8", "ctl\x00\x1f\"\\", "plain"}
	for i, v := range floats {
		f.Add(bodies[i%len(bodies)], strs[i%len(strs)], math.Float64bits(v),
			math.Float64bits(floats[len(floats)-1-i]), uint8(i*37))
	}
	f.Fuzz(func(t *testing.T, body []byte, str string, f0, f1 uint64, flags uint8) {
		var req SweepRequestV1
		if json.Unmarshal(body, &req) != nil {
			req = SweepRequestV1{}
		}
		if flags&1 != 0 {
			req.Meta = str
		}
		if len(req.Jobs) > 0 {
			j := &req.Jobs[0]
			if flags&2 != 0 {
				j.Key = str
			}
			if flags&4 != 0 {
				j.Spec.Mix, j.Spec.Policy, j.Spec.Classes = str, str+str, "L"+str
			}
			switch flags >> 3 & 3 {
			case 1:
				j.Spec.ME = []float64{}
			case 2:
				j.Spec.ME = append(j.Spec.ME, math.Float64frombits(f0))
			case 3:
				j.Spec.ME = []float64{math.Float64frombits(f0), math.Float64frombits(f1)}
			}
			switch flags >> 5 & 7 {
			case 1:
				j.Spec.Config = nil
			case 2:
				j.Spec.Config = &config.Config{}
			case 3:
				machine := config.Default(2)
				j.Spec.Config = &machine
			case 4:
				machine := config.Default(2)
				machine.Memory.DrainLow = math.Float64frombits(f1)
				j.Spec.Config = &machine
			}
		}

		want, wantErr := json.Marshal(req)
		got, gotErr := encode(req)
		if !bytes.Equal(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("encode gave %s, %v; json.Marshal %s, %v", got, gotErr, want, wantErr)
		}
		machine := false
		for _, j := range req.Jobs {
			machine = machine || j.Spec.Config != nil
		}
		if body, ok := req.appendBody(nil); ok != (wantErr == nil && !machine) || ok && !bytes.Equal(body, want) {
			t.Fatalf("appendBody gave %s (ok %v); json.Marshal %s, %v", body, ok, want, wantErr)
		}
		for _, j := range req.Jobs {
			wantSpec, err := json.Marshal(j.Spec)
			gotSpec, ok := j.Spec.appendJSON(nil)
			if ok != (err == nil && j.Spec.Config == nil) || ok && !bytes.Equal(gotSpec, wantSpec) {
				t.Fatalf("appendJSON gave %s (ok %v); json.Marshal %s, %v", gotSpec, ok, wantSpec, err)
			}
			if err == nil {
				sum := sha256.Sum256(wantSpec)
				if fp := j.Spec.Fingerprint(); fp != hex.EncodeToString(sum[:]) {
					t.Fatalf("fingerprint %s, want the SHA-256 of %s", fp, wantSpec)
				}
			} else if !panics(func() { j.Spec.Fingerprint() }) {
				t.Fatalf("fingerprinting a spec json.Marshal refuses (%v) did not panic", err)
			}
		}
		if wantErr == nil {
			checkScan[SweepRequestV1](t, want)
		}
	})
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestEncodeAllocatesOnce pins that the client's encode of each of
// benchSweeps' 16-job sweep requests allocates once, the body it returns: a
// plain one is copied out of pooled scratch at its exact size, as
// json.Marshal copies out of its own, and one whose specs carry machine
// overrides is json.Marshal's.
func TestEncodeAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	for _, bs := range benchSweeps(t) {
		var req any = bs.req
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if got, err := encode(req); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("encode gave %s, %v; want %s", got, err, want)
			}
		})
		if allocs != 1 {
			t.Errorf("encoding the %s 16-job sweep request allocated %v times, want 1", bs.name, allocs)
		}
	}
}
