package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"time"
)

// Client speaks the /v1/ API. The zero HTTP client has no global timeout —
// outcome waits and event streams are long-lived by design; pass a context
// to bound individual calls.
//
// Transient failures — connection errors, timeouts, 5xx responses — are
// retried with capped exponential backoff plus jitter. Every call is safe to
// retry: reads are idempotent, lease semantics make claim/heartbeat/complete
// replays harmless (a lost claim response leaves a lease that expires and
// re-queues; a replayed completion on a consumed lease comes back in Lost and
// is discarded), and a duplicate submit coalesces onto the first submission's
// in-flight jobs. 4xx responses are never retried.
type Client struct {
	base string
	hc   *http.Client

	// maxRetries is the number of attempts after the first (0 disables
	// retrying). retryBase is the first backoff delay, doubled per attempt
	// and capped at retryMax; each delay is jittered to 50–100% of nominal.
	maxRetries int
	retryBase  time.Duration
	retryMax   time.Duration
}

// NewClient returns a client for the coordinator at addr ("host:port" or a
// full http:// URL).
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return newClient(strings.TrimRight(addr, "/"), &http.Client{})
}

// newClient returns a client for base over hc with the default retry policy.
func newClient(base string, hc *http.Client) *Client {
	return &Client{base: base, hc: hc,
		maxRetries: 4, retryBase: 50 * time.Millisecond, retryMax: 2 * time.Second}
}

// backoff sleeps out attempt's jittered exponential delay, or returns ctx's
// error if it fires first.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	d := c.retryBase << attempt
	if d > c.retryMax || d <= 0 {
		d = c.retryMax
	}
	// Jitter to 50–100% so a fleet of workers retrying a restarted
	// coordinator doesn't arrive in lockstep.
	d = d/2 + rand.N(d/2+1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// transient reports whether an attempt's failure is worth retrying: any
// transport error (connection refused, reset, timeout) while the caller's
// context is still live, or a 5xx status. resp is nil for transport errors.
func transient(ctx context.Context, resp *http.Response, err error) bool {
	if err != nil {
		return ctx.Err() == nil
	}
	return resp.StatusCode >= 500
}

// do issues one JSON round trip with retries, decoding the response into out.
// in==nil sends no body. Error statuses surface the server's message.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var blob []byte
	if in != nil {
		var err error
		blob, err = json.Marshal(in)
		if err != nil {
			return err
		}
	}
	resp, err := c.roundTrip(ctx, func() (*http.Request, error) {
		var body io.Reader
		if in != nil {
			body = bytes.NewReader(blob)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
		if err != nil {
			return nil, err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, nil
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("sweepd: %s %s: %s: %s", method, path, resp.Status,
			strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// roundTrip sends a freshly built request per attempt (bodies cannot be
// replayed), retrying transient failures under the client's backoff policy.
// It returns the first non-transient response, or the last error once the
// budget is spent.
func (c *Client) roundTrip(ctx context.Context, build func() (*http.Request, error)) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := c.hc.Do(req)
		if !transient(ctx, resp, err) || attempt >= c.maxRetries {
			return resp, err
		}
		if resp != nil {
			// Drain so the keep-alive connection is reusable.
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
		}
		if err := c.backoff(ctx, attempt); err != nil {
			return nil, err
		}
	}
}

// Submit sends a sweep matrix and returns its acknowledgment.
func (c *Client) Submit(ctx context.Context, req SweepRequestV1) (SubmitResponseV1, error) {
	var resp SubmitResponseV1
	err := c.do(ctx, http.MethodPost, "/"+APIVersion+"/sweeps", req, &resp)
	return resp, err
}

// Status fetches a sweep's progress summary.
func (c *Client) Status(ctx context.Context, sweepID string) (SweepStatusV1, error) {
	var st SweepStatusV1
	err := c.do(ctx, http.MethodGet, "/"+APIVersion+"/sweeps/"+sweepID, nil, &st)
	return st, err
}

// Outcomes fetches a sweep's outcomes in admission order. With wait=true the
// call blocks until the sweep completes (bounded by ctx).
func (c *Client) Outcomes(ctx context.Context, sweepID string, wait bool) (OutcomesResponseV1, error) {
	path := "/" + APIVersion + "/sweeps/" + sweepID + "/outcomes"
	if wait {
		path += "?wait=1"
	}
	var resp OutcomesResponseV1
	err := c.do(ctx, http.MethodGet, path, nil, &resp)
	return resp, err
}

// Watch streams a sweep's progress events to fn, starting from the sweep's
// full history, and returns when the sweep completes (after the final "sweep"
// event), the stream fails, or ctx fires. Connection establishment is retried
// like any other call; a failure mid-stream is returned (re-subscribing
// replays history, so callers can simply Watch again).
func (c *Client) Watch(ctx context.Context, sweepID string, fn func(EventV1)) error {
	resp, err := c.roundTrip(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet,
			c.base+"/"+APIVersion+"/sweeps/"+sweepID+"/events", nil)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("sweepd: events: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev EventV1
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		fn(ev)
		if ev.Type == "sweep" {
			return nil
		}
	}
}

// Stats fetches the coordinator's counters.
func (c *Client) Stats(ctx context.Context) (StatsV1, error) {
	var st StatsV1
	err := c.do(ctx, http.MethodGet, "/"+APIVersion+"/stats", nil, &st)
	return st, err
}

// Claim asks for up to max job leases in one round trip (max < 1 asks for
// one). No leases means the queue was empty.
func (c *Client) Claim(ctx context.Context, worker string, max int) (ClaimResponseV1, error) {
	var resp ClaimResponseV1
	err := c.do(ctx, http.MethodPost, "/"+APIVersion+"/claim",
		ClaimRequestV1{Worker: worker, Max: max}, &resp)
	return resp, err
}

// HeartbeatBatch extends several leases in one round trip and returns the
// IDs of leases that were already revoked (those runs must be abandoned).
func (c *Client) HeartbeatBatch(ctx context.Context, leaseIDs []string) (HeartbeatBatchResponseV1, error) {
	var resp HeartbeatBatchResponseV1
	err := c.do(ctx, http.MethodPost, "/"+APIVersion+"/heartbeats",
		HeartbeatBatchRequestV1{LeaseIDs: leaseIDs}, &resp)
	return resp, err
}

// CompleteBatch reports several finished jobs in one round trip and returns
// the lease IDs whose results were discarded because the lease was revoked.
func (c *Client) CompleteBatch(ctx context.Context, comps []CompleteRequestV1) (CompleteBatchResponseV1, error) {
	var resp CompleteBatchResponseV1
	err := c.do(ctx, http.MethodPost, "/"+APIVersion+"/completes",
		CompleteBatchRequestV1{Completions: comps}, &resp)
	return resp, err
}
