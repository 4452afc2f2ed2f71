package sweepd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"memsched/internal/runner"
)

// checkScan decodes body into a zero T through unmarshal and through
// json.Unmarshal and fails unless result and error agree, with nil and empty
// slices told apart, and unless the one-pass scan, when it takes body alone,
// gives json.Unmarshal's result for a body json.Unmarshal accepts.
func checkScan[T any, P interface {
	*T
	bodyScanner
}](t *testing.T, body []byte) {
	var want, got, fast T
	wantErr := json.Unmarshal(body, &want)
	gotErr := unmarshal(body, P(&got))
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
		t.Fatalf("decoding %q:\n got %+v, %v\nwant %+v, %v", body, got, gotErr, want, wantErr)
	}
	if P(&fast).scanBody(body) && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
		t.Fatalf("the scan took %q as %+v; json.Unmarshal gives %+v, %v", body, fast, want, wantErr)
	}
}

// deep returns a value of n nested lists. Every body below puts its raw
// values inside three open containers, so 9,997 lists reach encoding/json's
// bound of 10,000 and 9,998 pass it.
func deep(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }

// FuzzDecodeOutcomes checks the client's decode of outcomes responses
// against json.Unmarshal (checkScan).
func FuzzDecodeOutcomes(f *testing.F) {
	// FuzzOutcomesEncoding's seeds, as appendOutcomes writes them.
	for _, sd := range []struct {
		sweepID        string
		done           bool
		key            string
		value          string
		errMsg, worker string
		elapsed        int64
		mask           uint16
		n              uint8
	}{
		{"s1", true, "8MEM-1/hf-rf", `{"n":1}`, "", "w0", 0, 0o7777, 3},
		{"s2", false, "key", "{ \"a\" : [1, 2,\n\t3] ,\r\"b\":{} }", "boom", "w1", 12, 0o1234, 2},
		{"s3", true, "<b>&amp;</b>", `{"html":"<script>&</script>"}`, "e<>&", "w&", -5, 0o7171, 3},
		{"s4", true, "sep\u2028\u2029", "[\"\u2028\",\"\u2029\", \"\\u2028\"]", "line\u2028", "w\u2029", 1, 0o5555, 1},
		{"s5", false, "bad\xff\xfeutf8", `"\u00e9\xe2\x80"`, "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "w\xc3", 1 << 40, 0o3636, 3},
		{"s6", true, `quote"back\slash`, `null`, `"quoted" \err`, "", 7, 0o0000, 0},
		{"s7", true, "k", `not json`, "", "w", 0, 0o2222, 2},
	} {
		var outs []OutcomeV1
		for i := 0; i <= int(sd.n%4); i++ {
			bits := sd.mask >> (3 * i)
			o := OutcomeV1{ID: i * 37, Key: fmt.Sprint(sd.key, i), CacheHit: sd.done && bits&1 != 0}
			if bits&1 != 0 && json.Valid([]byte(sd.value)) {
				v, err := runner.CanonicalJSON(json.RawMessage(sd.value))
				if err != nil {
					f.Fatal(err)
				}
				o.Value = v
			}
			if bits&2 != 0 {
				o.Err = sd.errMsg
			}
			if bits&4 != 0 {
				o.Worker, o.ElapsedMillis = sd.worker, sd.elapsed
			}
			outs = append(outs, o)
		}
		f.Add(appendOutcomes(nil, sd.sweepID, sd.done, outs))
	}
	value := realResult(f)
	outs := make([]OutcomeV1, 4)
	for i := range outs {
		outs[i] = OutcomeV1{ID: i, Key: fmt.Sprintf("job-%d", i), Value: value, CacheHit: true}
	}
	outs[3] = OutcomeV1{ID: 3, Key: "job-3", Err: "boom", Worker: "w1", ElapsedMillis: 12}
	f.Add(appendOutcomes(nil, "s9", true, outs))
	for _, body := range []string{
		`{"sweep_id":"s1","done":true,"outcomes":[]}` + "\n",
		` { "sweep_id" : "s1" , "done" : false , "outcomes" : [ { "id" : 0 , "key" : "k" , "value" : [ 1 , {} ] } ] } `,
		`{}`,
		`null`,
		``,
		// Case-folded, duplicate, unknown and escaped keys.
		`{"Sweep_ID":"s1","DONE":true,"outcomes":[{"ID":1,"Key":"k","Value":{"a":1}}]}`,
		`{"sweep_id":"s1","sweep_id":"s2","outcomes":[]}`,
		`{"outcomes":[{"id":1,"key":"k","id":2}]}`,
		`{"outcomes":[{"id":1,"key":"k","cache_hit":true}],"outcomes":[{"key":"j"}]}`,
		`{"sweep_id":"s1","extra":[1,{"a":null}],"outcomes":[{"id":1,"key":"k","other":true}]}`,
		`{"sweep_\u0069d":"s1","outcomes":[{"i\u0064":3,"key":"k"}]}`,
		// Nulls: a null list, a null raw value, and null where a field is
		// not raw.
		`{"sweep_id":"s1","done":true,"outcomes":null}`,
		`{"outcomes":[{"id":0,"key":"k","value":null}]}`,
		`{"sweep_id":null,"done":null,"outcomes":[{"id":null,"key":null,"cache_hit":null}]}`,
		// Ids and elapsed times that are not plain integers.
		`{"outcomes":[{"id":-0,"key":"a","elapsed_ms":-0}]}`,
		`{"outcomes":[{"id":01,"key":"a"}]}`,
		`{"outcomes":[{"id":1.0,"key":"a"}]}`,
		`{"outcomes":[{"id":1e2,"key":"a","elapsed_ms":1E2}]}`,
		`{"outcomes":[{"id":9223372036854775808,"key":"a"}]}`,
		`{"outcomes":[{"id":-9223372036854775808,"key":"a","elapsed_ms":9223372036854775807}]}`,
		`{"outcomes":[{"id":999999999999999999,"key":"a","elapsed_ms":-999999999999999999}]}`,
		`{"outcomes":[{"id":"1","key":2,"value":-,"done":tru}]}`,
		// Nesting at and past encoding/json's bound, and 10,001 deep.
		`{"outcomes":[{"id":0,"value":` + deep(9997) + `}]}`,
		`{"outcomes":[{"id":0,"value":` + deep(9998) + `}]}`,
		`{"outcomes":[{"id":0,"value":` + deep(10001) + `}]}`,
		// Trailing data.
		`{"sweep_id":"s1","done":true,"outcomes":[]} x`,
		`{"sweep_id":"s1","done":true,"outcomes":[]}{}`,
		`{"outcomes":[]}]`,
		// A raw control byte, invalid UTF-8 and U+2028 inside strings, as
		// plain fields and inside raw values.
		"{\"sweep_id\":\"s\x01\",\"outcomes\":[]}",
		"{\"outcomes\":[{\"id\":0,\"value\":\"a\x01b\"}]}",
		"{\"sweep_id\":\"\xff\",\"outcomes\":[{\"id\":0,\"key\":\"\xc3\",\"value\":\"\xff\xfe\"}]}",
		"{\"outcomes\":[{\"id\":0,\"key\":\"ok\",\"value\":{\"\xff\":[\"\xe2\x80\"]}}]}",
		"{\"sweep_id\":\"a\u2028b\",\"outcomes\":[{\"id\":0,\"key\":\"k\u2029\",\"value\":\"\u2028\"}]}",
		`{"outcomes":[{"id":0,"value":"\u12G4"}]}`,
		`{"outcomes":[{"id":0,"value":"\x"}]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkScan[OutcomesResponseV1](t, body) })
}

// FuzzDecodeCompletes checks the coordinator's decode of completion batches
// against json.Unmarshal (checkScan).
func FuzzDecodeCompletes(f *testing.F) {
	batch, err := json.Marshal(CompleteBatchRequestV1{Completions: []CompleteRequestV1{
		{LeaseID: "l0.1", Value: realResult(f), ElapsedMillis: 3},
		{LeaseID: "l5.2", Err: `sim: "bad" <spec> & more`},
		{LeaseID: "l1.3", Value: json.RawMessage(`{"n":[1,2.5e-3,true,null,"\u00e9"]}`)},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batch)
	for _, body := range []string{
		`{"completions":[]}`,
		"\t{ \"completions\" : [ { \"lease_id\" : \"l0.1\" , \"value\" : { } } ] }\r\n",
		`{}`,
		`null`,
		``,
		// Case-folded, duplicate, unknown and escaped keys.
		`{"Completions":[{"Lease_ID":"l0.1","Value":{"a":1}}]}`,
		`{"completions":[{"lease_id":"l0.1","value":1,"value":2}]}`,
		`{"completions":[{"lease_id":"l0.1","err":"x"}],"completions":[{"value":3}]}`,
		`{"completions":[{"lease_id":"l0.1","value":1,"worker":"w"}],"meta":{}}`,
		`{"c\u006fmpletions":[{"lease\u005fid":"l0.1","value":1}]}`,
		// Nulls: a null list, a null raw value, and null where a field is
		// not raw.
		`{"completions":null}`,
		`{"completions":[{"lease_id":"l0.1","value":null}]}`,
		`{"completions":[{"lease_id":null,"err":null,"elapsed_ms":null}]}`,
		// Elapsed times that are not plain integers.
		`{"completions":[{"lease_id":"l0.1","value":1,"elapsed_ms":-0}]}`,
		`{"completions":[{"lease_id":"l0.1","value":1,"elapsed_ms":01}]}`,
		`{"completions":[{"lease_id":"l0.1","value":1,"elapsed_ms":1.0}]}`,
		`{"completions":[{"lease_id":"l0.1","value":1,"elapsed_ms":1e2}]}`,
		`{"completions":[{"lease_id":"l0.1","value":1,"elapsed_ms":9223372036854775808}]}`,
		// Nesting at and past encoding/json's bound, and 10,001 deep.
		`{"completions":[{"lease_id":"l0.1","value":` + deep(9997) + `}]}`,
		`{"completions":[{"lease_id":"l0.1","value":` + deep(9998) + `}]}`,
		`{"completions":[{"lease_id":"l0.1","value":` + deep(10001) + `}]}`,
		// Trailing data.
		`{"completions":[]},`,
		`{"completions":[]} {}`,
		// A raw control byte, invalid UTF-8 and U+2028 inside strings, as
		// plain fields and inside raw values.
		"{\"completions\":[{\"lease_id\":\"l\x000.1\",\"value\":1}]}",
		"{\"completions\":[{\"lease_id\":\"l0.1\",\"value\":[\"\x1f\"]}]}",
		"{\"completions\":[{\"lease_id\":\"l0.\xff\",\"err\":\"\xc3\x28\"}]}",
		"{\"completions\":[{\"lease_id\":\"l0.1\",\"value\":{\"k\":\"\xed\xa0\x80\"}}]}",
		"{\"completions\":[{\"lease_id\":\"l0.1\u2028\",\"value\":\"\u2029\"}]}",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkScan[CompleteBatchRequestV1](t, body) })
}

// fill sets every field of the struct v, through reflection, to a value of
// the form both ends write: raw values to value, strings to printable ASCII,
// integers and booleans to non-zero values, and lists to two filled
// elements. It returns the json names of the fields it set, and fails on a
// field type it has no value for.
func fill(t *testing.T, v reflect.Value, value json.RawMessage) []string {
	var names []string
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		names = append(names, name)
		switch {
		case f.Type() == reflect.TypeOf(value):
			f.SetBytes(value)
		case f.Kind() == reflect.String:
			f.SetString(name + "-" + strconv.Itoa(i))
		case f.Kind() == reflect.Int || f.Kind() == reflect.Int64:
			f.SetInt(int64(1000 + i))
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Struct:
			f.Set(reflect.MakeSlice(f.Type(), 2, 2))
			names = append(names, fill(t, f.Index(0), value)...)
			fill(t, f.Index(1), value)
		default:
			t.Fatalf("no test value for %s field %q", f.Type(), name)
		}
	}
	return names
}

// TestWireBodiesScanOnce pins that what both ends write takes the one-pass
// scan: an outcomes response with every field of OutcomesResponseV1 and
// OutcomeV1 set, written by appendOutcomes, and a completion batch with
// every field of CompleteBatchRequestV1 and CompleteRequestV1 set, written
// by json.Marshal, each carrying a real Result. A field added to a wire type
// and not to the scan fails here, rather than sending every body to
// json.Unmarshal.
func TestWireBodiesScanOnce(t *testing.T) {
	value := realResult(t)
	check := func(body []byte, names []string, want, got bodyScanner) {
		t.Helper()
		for _, name := range names {
			if !bytes.Contains(body, []byte(`"`+name+`":`)) {
				t.Errorf("the body has no %q field: %s", name, body)
			}
		}
		if !got.scanBody(body) {
			t.Fatalf("the scan refused %s", body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("the scan decoded %+v, want %+v", got, want)
		}
	}
	var resp OutcomesResponseV1
	names := fill(t, reflect.ValueOf(&resp).Elem(), value)
	check(appendOutcomes(nil, resp.SweepID, resp.Done, resp.Outcomes), names, &resp, &OutcomesResponseV1{})

	var batch CompleteBatchRequestV1
	names = fill(t, reflect.ValueOf(&batch).Elem(), value)
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	check(body, names, &batch, &CompleteBatchRequestV1{})
}
