package stats

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// latencyHistJSON is the wire form of LatencyHist: the scalar state plus a
// sparse map of occupied buckets, so an empty histogram costs a few bytes and
// a typical one costs tens of entries rather than LatencyBuckets zeros.
// encoding/json sorts map keys, so the encoding is canonical — equal
// histograms marshal to equal bytes, which content-addressed result caches
// rely on.
type latencyHistJSON struct {
	N      uint64            `json:"n"`
	Sum    uint64            `json:"sum"`
	Max    int64             `json:"max"`
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// MarshalJSON encodes the histogram sparsely (occupied buckets only).
func (h LatencyHist) MarshalJSON() ([]byte, error) {
	out := latencyHistJSON{N: h.n, Sum: h.sum, Max: h.max}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if out.Counts == nil {
			out.Counts = make(map[string]uint64)
		}
		out.Counts[strconv.Itoa(i)] = c
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the sparse form, validating bucket indices and that
// the scalar count matches the bucket population, so a corrupted or
// schema-drifted payload fails loudly instead of yielding a silently
// inconsistent histogram. Keys must be canonical ("1", not "01" or "+1"), so
// no two keys name the same bucket.
func (h *LatencyHist) UnmarshalJSON(data []byte) error {
	var in latencyHistJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	var out LatencyHist
	out.n, out.sum, out.max = in.N, in.Sum, in.Max
	var total uint64
	for key, c := range in.Counts {
		i, err := strconv.Atoi(key)
		if err != nil || i < 0 || i >= LatencyBuckets || strconv.Itoa(i) != key {
			return fmt.Errorf("stats: latency histogram bucket key %q is not a bucket index", key)
		}
		out.counts[i] = c
		if total+c < total {
			return fmt.Errorf("stats: latency histogram bucket counts overflow")
		}
		total += c
	}
	if total != in.N {
		return fmt.Errorf("stats: latency histogram count mismatch: n=%d but buckets hold %d", in.N, total)
	}
	*h = out
	return nil
}
