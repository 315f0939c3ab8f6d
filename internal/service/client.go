package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
)

// ClientOptions tunes one wire client (an agent or a submitter).
type ClientOptions struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8443".
	BaseURL string
	// Tenant and Actor identify the caller; they key the transport
	// fault stream and the server's agent bookkeeping.
	Tenant string
	Actor  string
	// Deadline bounds each RPC attempt (default 30s). It must exceed
	// the poll wait or long-polls always time out client-side.
	Deadline time.Duration
	// MaxAttempts bounds the retry loop per call (default 8). At a 10%
	// transport fault rate eight attempts leave a ~1e-8 chance of a
	// call failing outright — retried attempts draw fresh fault
	// decisions, so a faulted call can never starve.
	MaxAttempts int
	// BackoffBase and BackoffCap shape the capped exponential backoff
	// between attempts (defaults 25ms and 1s). Jitter is ±50%, drawn
	// from a stream seeded by (tenant, actor) so tests replay exactly.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Faults injects transport chaos at the codec boundary; the zero
	// value is a clean wire.
	Faults faults.Config
	// Transport overrides the HTTP transport; nil means the default.
	// Tests and the load bench pass a LoopbackTransport.
	Transport http.RoundTripper
	// Sleep overrides the backoff sleep; nil means time.Sleep.
	Sleep func(time.Duration)
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Deadline <= 0 {
		o.Deadline = 30 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 8
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 25 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = time.Second
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// Validate rejects a client configuration no operator can have meant.
// It is what `gist agent` and `gist submit` check before dialling, so
// each message names the flag that sets the offending field.
func (o ClientOptions) Validate() error {
	switch {
	case o.BaseURL == "":
		return fmt.Errorf("-server must be set to the diagnosis server URL")
	case !strings.HasPrefix(o.BaseURL, "http://") && !strings.HasPrefix(o.BaseURL, "https://"):
		return fmt.Errorf("-server %q must be an http(s) URL", o.BaseURL)
	case o.Tenant == "":
		return fmt.Errorf("-tenant must not be empty")
	case o.Deadline <= 0:
		return fmt.Errorf("-rpc-deadline %v must be positive", o.Deadline)
	case o.Faults.TransportRate < 0 || o.Faults.TransportRate > 1:
		return fmt.Errorf("-transport-fault-rate %g outside [0,1]", o.Faults.TransportRate)
	}
	return nil
}

// StatusError is a non-200 server reply.
type StatusError struct {
	Code int
	Msg  string
	// RetryAfter is the server's backoff hint on 429/503 replies (zero
	// when the server sent none). Millisecond precision when the server
	// set RetryAfterMsHeader; whole seconds from a plain Retry-After.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Code, e.Msg)
}

// Client is a fault-tolerant wire client: every call carries a body
// checksum and a per-attempt deadline, retries with capped exponential
// backoff and jitter, and (when configured) injects deterministic
// transport chaos at the codec boundary — requests dropped before the
// server, responses discarded after it, duplicated deliveries, and
// corrupted bodies the server's checksum rejects.
type Client struct {
	opts ClientOptions
	hc   *http.Client
	inj  *faults.Injector
	seq  atomic.Uint64

	jmu sync.Mutex
	jit *rand.Rand
}

// NewClient returns a client for the given options.
func NewClient(opts ClientOptions) *Client {
	opts = opts.withDefaults()
	h := fnv.New64a()
	fmt.Fprintf(h, "jitter|%s|%s", opts.Tenant, opts.Actor)
	return &Client{
		opts: opts,
		hc:   &http.Client{Transport: opts.Transport},
		inj:  faults.NewInjector(opts.Faults),
		jit:  rand.New(rand.NewSource(int64(h.Sum64()))),
	}
}

// Call performs one RPC: marshal in, POST to path, unmarshal the reply
// into out (out may be nil). Each retry attempt draws its own transport
// fault decision keyed by (tenant, actor, request, attempt); the
// request key is unique per Call, so two calls never share a fault
// stream but the retries of one call walk the same one.
func (c *Client) Call(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: marshal %s: %w", path, err)
	}
	reqKey := fmt.Sprintf("%s#%d", path, c.seq.Add(1))
	sum := BodyChecksum(body)

	var lastErr error
	var retryAfter time.Duration
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			// A server Retry-After hint (429 shed) overrides the computed
			// backoff for exactly one sleep: the server knows when a token
			// accrues, so honoring it beats guessing — but only once, lest
			// a stale hint pin every later retry to the same delay.
			d := c.backoff(attempt)
			if retryAfter > 0 {
				d = retryAfter
				retryAfter = 0
			}
			c.opts.Sleep(d)
		}
		dec := c.inj.ForRequest(c.opts.Tenant, c.opts.Actor, reqKey, attempt)
		switch dec.Kind {
		case faults.TransportDrop:
			// The request never reaches the server; the caller sees a
			// timeout and retries.
			lastErr = fmt.Errorf("client: %s: request dropped (injected)", path)
			continue
		case faults.TransportCorrupt:
			// Body bytes damaged in flight, checksum intact: the
			// server must reject before decoding.
			_, err := c.post(ctx, path, dec.CorruptBody(body), sum)
			if err == nil {
				lastErr = fmt.Errorf("client: %s: corrupted body was accepted", path)
				continue
			}
			lastErr = err
			continue
		case faults.TransportDelay, faults.TransportDisconnect:
			// The server processes the call; the response never makes
			// it back (past-deadline arrival or connection reset). The
			// retry exercises server-side idempotency.
			_, _ = c.post(ctx, path, body, sum)
			lastErr = fmt.Errorf("client: %s: response lost to %s (injected)", path, dec.Kind)
			continue
		case faults.TransportDuplicate:
			// Delivered twice; the second reply is the one the caller
			// sees. The server must admit the pair exactly once.
			_, _ = c.post(ctx, path, body, sum)
		}
		data, err := c.post(ctx, path, body, sum)
		if err != nil {
			var se *StatusError
			if errors.As(err, &se) {
				switch se.Code {
				case http.StatusServiceUnavailable:
					// Transient: draining or momentary overload.
				case http.StatusTooManyRequests:
					// Shed by admission control; retry when the server
					// says a token (or launch slot) should be free.
					retryAfter = se.RetryAfter
				default:
					// A definitive server verdict (bad request, method
					// not allowed) will not change on retry.
					return err
				}
			}
			lastErr = err
			continue
		}
		if out == nil {
			return nil
		}
		if err := json.Unmarshal(data, out); err != nil {
			lastErr = fmt.Errorf("client: decode %s reply: %w", path, err)
			continue
		}
		return nil
	}
	return fmt.Errorf("client: %s failed after %d attempts: %w", path, c.opts.MaxAttempts, lastErr)
}

// post performs one HTTP attempt under the per-attempt deadline.
func (c *Client) post(ctx context.Context, path string, body []byte, sum string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.Deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.opts.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ChecksumHeader, sum)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var er ErrorResponse
		_ = json.Unmarshal(data, &er)
		return nil, &StatusError{
			Code:       resp.StatusCode,
			Msg:        er.Err,
			RetryAfter: parseRetryAfter(resp.Header),
		}
	}
	return data, nil
}

// parseRetryAfter extracts the server's backoff hint. The ms-precision
// extension header wins (token-bucket refills are sub-second; rounding
// to the mandatory ≥1s standard header would triple a flooded tenant's
// recovery time); the standard delta-seconds Retry-After is the
// fallback for plain proxies.
func parseRetryAfter(h http.Header) time.Duration {
	if v := h.Get(RetryAfterMsHeader); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			return time.Duration(ms) * time.Millisecond
		}
	}
	if v := h.Get("Retry-After"); v != "" {
		if sec, err := strconv.Atoi(v); err == nil && sec > 0 {
			return time.Duration(sec) * time.Second
		}
	}
	return 0
}

// backoff returns the capped exponential delay before attempt n (n ≥
// 1), with ±50% deterministic jitter.
func (c *Client) backoff(n int) time.Duration {
	d := c.opts.BackoffBase << (n - 1)
	if d > c.opts.BackoffCap || d <= 0 {
		d = c.opts.BackoffCap
	}
	c.jmu.Lock()
	f := 0.5 + c.jit.Float64()
	c.jmu.Unlock()
	return time.Duration(float64(d) * f)
}

// LoopbackTransport is an http.RoundTripper that dispatches requests
// straight into a handler — no sockets, no listener. Tests and the
// ≥1,000-agent load bench ride it: the full codec (JSON, checksums,
// fault injection, retries) is exercised while staying deterministic
// and sandbox-friendly. Handlers run synchronously; a request's
// context deadline does not interrupt a running handler, so callers
// must keep server-side waits (the poll timeout) below their RPC
// deadline.
type LoopbackTransport struct {
	Handler http.Handler
}

// RoundTrip implements http.RoundTripper.
func (l LoopbackTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := &loopbackRecorder{code: http.StatusOK, header: http.Header{}}
	l.Handler.ServeHTTP(rec, req)
	return &http.Response{
		Status:        http.StatusText(rec.code),
		StatusCode:    rec.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.buf.Bytes())),
		ContentLength: int64(rec.buf.Len()),
		Request:       req,
	}, nil
}

// loopbackRecorder is a minimal in-memory http.ResponseWriter.
type loopbackRecorder struct {
	code   int
	wrote  bool
	header http.Header
	buf    bytes.Buffer
}

func (r *loopbackRecorder) Header() http.Header { return r.header }

func (r *loopbackRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
}

func (r *loopbackRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.buf.Write(p)
}
