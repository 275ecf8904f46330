package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/trace"
)

// Client is the typed wire-API client. The router proxies through it, the
// load generator drives clusters with it, and the end-to-end tests use it
// instead of hand-rolled HTTP calls. All methods honor ctx for deadline
// and cancellation; non-2xx responses come back as *Error, so callers can
// switch on the machine-readable code:
//
//	info, err := cl.Submit(ctx, req)
//	var apiErr *api.Error
//	if errors.As(err, &apiErr) && apiErr.Code == api.CodeQueueFull { ... }
//
// Any other error is transport-level (connection refused, ctx expiry) —
// the signal a router uses to eject a backend.
//
// Retries are opt-in via WithRetry: every Client method is idempotent
// (Submit dedupes by spec digest server-side; Cancel and the reads are
// naturally so), so a retrying client resubmits the same bytes safely.
// The zero policy — the default, and what the router's pool uses —
// performs exactly one attempt: the router has its own ring-walk
// failover, and client-side retries underneath it would double-count
// failures into its ejection logic.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy

	rngMu   sync.Mutex
	rng     *rand.Rand
	retries atomic.Int64
}

// RetryPolicy bounds automatic retries of failed calls.
type RetryPolicy struct {
	// MaxAttempts is the total attempts per call; <= 1 disables retries.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (<= 0: 100ms); the delay
	// before attempt n+1 is BaseDelay·2ⁿ⁻¹ with equal jitter, capped at
	// MaxDelay (<= 0: 5s). A server Retry-After hint overrides the
	// computed delay when longer.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed makes the jitter sequence reproducible in tests.
	Seed int64
}

// NewClient targets a base URL ("http://host:port"). The optional
// http.Client overrides transport behavior; it must not set a global
// Timeout (that would sever long watch streams — use ctx instead).
func NewClient(base string, hc ...*http.Client) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
	if len(hc) > 0 && hc[0] != nil {
		c.hc = hc[0]
	}
	return c
}

// WithRetry installs the retry policy and returns the same client:
//
//	cl := api.NewClient(url).WithRetry(api.RetryPolicy{MaxAttempts: 4})
//
// With retries on, unary calls back off exponentially with jitter on
// transport errors and on queue_full / unavailable / no_backend answers
// (honoring Retry-After), slice a caller deadline into per-attempt
// timeouts so one hung attempt can't eat the whole budget, and Watch
// reconnects a severed stream, resuming from where it left off.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	c.retry = p
	c.rng = rand.New(rand.NewSource(p.Seed))
	return c
}

// BaseURL reports the target this client was built for.
func (c *Client) BaseURL() string { return c.base }

// Retries reports the retry attempts performed so far (unary re-issues
// plus watch reconnects) — the load generator's "retries" column.
func (c *Client) Retries() int64 { return c.retries.Load() }

// retryable reports whether an error is worth another attempt: transport
// failures always are (the call may never have reached the server; every
// call is idempotent), and so are the three API answers that describe the
// server's state rather than the request's validity.
func retryable(err error) bool {
	var apiErr *Error
	if errors.As(err, &apiErr) {
		switch apiErr.Code {
		case CodeQueueFull, CodeUnavailable, CodeNoBackend:
			return true
		}
		// Any other 5xx is a proxy-shaped transient — e.g. the router
		// relaying a backend transport failure as an internal error while
		// its probes catch up. 4xx answers are the caller's fault.
		return apiErr.Status >= 500
	}
	return true
}

// retryDelay computes the pre-attempt backoff: exponential in the retry
// ordinal with equal jitter, capped, then overridden by a Retry-After
// hint when the server asked for longer.
func (c *Client) retryDelay(retryN int, err error) time.Duration {
	d := c.retry.BaseDelay << (retryN - 1)
	if d <= 0 || d > c.retry.MaxDelay {
		d = c.retry.MaxDelay
	}
	c.rngMu.Lock()
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.rngMu.Unlock()
	var apiErr *Error
	if errors.As(err, &apiErr) && apiErr.RetryAfterS > 0 {
		if ra := time.Duration(apiErr.RetryAfterS) * time.Second; ra > d {
			d = ra
		}
	}
	return d
}

// sleepRetry counts and performs one backoff, cut short by ctx. A backoff
// that would sleep to (or past) the caller's deadline is not performed at
// all: there would be no budget left for the retry it buys, so the call
// fails fast with the context error instead of discovering the expiry
// after sleeping through it.
func (c *Client) sleepRetry(ctx context.Context, retryN int, err error) error {
	d := c.retryDelay(retryN, err)
	if deadline, ok := ctx.Deadline(); ok && d >= time.Until(deadline) {
		return context.DeadlineExceeded
	}
	c.retries.Add(1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// attemptCtx derives one attempt's context: with a caller deadline and
// retries enabled, the remaining budget is split evenly across the
// attempts still available, so a black-holed call times out with budget
// left to try again instead of riding the full deadline down.
func (c *Client) attemptCtx(ctx context.Context, attempt int) (context.Context, context.CancelFunc) {
	deadline, ok := ctx.Deadline()
	if !ok || c.retry.MaxAttempts <= 1 {
		return ctx, func() {}
	}
	left := c.retry.MaxAttempts - attempt + 1
	share := time.Until(deadline) / time.Duration(left)
	if share <= 0 {
		return ctx, func() {} // deadline passed; let the attempt fail on ctx
	}
	return context.WithTimeout(ctx, share)
}

// do issues a request with the retry policy applied and decodes the
// response: 2xx into out (when non-nil), anything else into a *Error.
// hdr carries extra request headers (nil for none); retried attempts
// resend them unchanged.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, hdr http.Header, body []byte, out any) (int, error) {
	attempts := c.retry.MaxAttempts
	if attempts <= 1 {
		return c.doOnce(ctx, method, path, query, hdr, body, out)
	}
	var status int
	var err error
	for attempt := 1; ; attempt++ {
		actx, cancel := c.attemptCtx(ctx, attempt)
		status, err = c.doOnce(actx, method, path, query, hdr, body, out)
		cancel()
		if err == nil {
			return status, nil
		}
		// The caller's context governs; a per-attempt timeout with the
		// parent still live is exactly the case retries exist for.
		if ctx.Err() != nil {
			return status, err
		}
		if !retryable(err) || attempt == attempts {
			return status, err
		}
		if serr := c.sleepRetry(ctx, attempt, err); serr != nil {
			// Both chains stay inspectable: errors.Is sees the context
			// error (the reason we stopped), errors.As still finds the
			// *Error the server last answered.
			return status, fmt.Errorf("%w; retries abandoned after: %w", serr, err)
		}
	}
}

// doOnce issues one request.
func (c *Client) doOnce(ctx context.Context, method, path string, query url.Values, hdr http.Header, body []byte, out any) (int, error) {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	trace.Inject(ctx, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return resp.StatusCode, decodeError(resp)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode response: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// decodeError turns a non-2xx response into a *Error, tolerating
// non-envelope bodies (proxies, panics) by wrapping them as internal.
func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var env ErrorEnvelope
	if err := json.Unmarshal(data, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		env.Error.Status = resp.StatusCode
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if s, err := strconv.Atoi(ra); err == nil {
				env.Error.RetryAfterS = s
			}
		}
		return env.Error
	}
	return &Error{
		Code:    CodeInternal,
		Message: fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data))),
		Status:  resp.StatusCode,
	}
}

// Submit posts one job request.
func (c *Client) Submit(ctx context.Context, req service.Request) (*service.JobInfo, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	info, _, err := c.SubmitBody(ctx, body)
	return info, err
}

// SubmitBody posts a raw submit body (a request envelope or a bare spec
// document) and reports the backend's status code alongside the job — the
// router mirrors it (202 queued vs 200 cache hit) to its own caller.
//
// A deadline on ctx rides along as the X-Wlopt-Deadline header (absolute,
// so it survives any number of proxy hops and retries unchanged): the
// backend derives the job's deadline_ms from whatever remains of it at
// acceptance. The header is computed from the caller's context, not the
// per-attempt slice — the job's deadline is the caller's patience, not
// one attempt's share of it.
func (c *Client) SubmitBody(ctx context.Context, body []byte) (*service.JobInfo, int, error) {
	var hdr http.Header
	if deadline, ok := ctx.Deadline(); ok {
		hdr = http.Header{DeadlineHeader: []string{strconv.FormatInt(deadline.UnixMilli(), 10)}}
	}
	var info service.JobInfo
	status, err := c.do(ctx, http.MethodPost, "/v1/jobs", nil, hdr, body, &info)
	if err != nil {
		return nil, status, err
	}
	return &info, status, nil
}

// Job fetches one job snapshot.
func (c *Client) Job(ctx context.Context, id string) (*service.JobInfo, error) {
	var info service.JobInfo
	if _, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, nil, nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Jobs fetches one page of the job listing.
func (c *Client) Jobs(ctx context.Context, q service.ListQuery) (*service.JobPage, error) {
	vals := url.Values{}
	if q.Limit > 0 {
		vals.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.Cursor != "" {
		vals.Set("cursor", q.Cursor)
	}
	if q.State != "" {
		vals.Set("state", string(q.State))
	}
	var page service.JobPage
	if _, err := c.do(ctx, http.MethodGet, "/v1/jobs", vals, nil, nil, &page); err != nil {
		return nil, err
	}
	return &page, nil
}

// Cancel requests cooperative cancellation.
func (c *Client) Cancel(ctx context.Context, id string) (*service.JobInfo, error) {
	var info service.JobInfo
	if _, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, nil, nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// JobTrace fetches the job's recorded span tree. Through the router the
// tree is stitched: the proxy's own spans precede the backend's.
func (c *Client) JobTrace(ctx context.Context, id string) (*trace.Info, error) {
	var in trace.Info
	if _, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/trace", nil, nil, nil, &in); err != nil {
		return nil, err
	}
	return &in, nil
}

// Systems lists the registry systems the target accepts by name.
func (c *Client) Systems(ctx context.Context) ([]service.SystemInfo, error) {
	var list []service.SystemInfo
	if _, err := c.do(ctx, http.MethodGet, "/v1/systems", nil, nil, nil, &list); err != nil {
		return nil, err
	}
	return list, nil
}

// Health probes /healthz.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if _, err := c.do(ctx, http.MethodGet, "/healthz", nil, nil, nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// MetricsText scrapes /metrics (Prometheus text exposition).
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// Watch streams the job's events, invoking fn per event until the stream
// ends at the terminal event, fn returns false, or ctx expires. A nil
// return means the stream completed (terminal event seen or fn stopped
// it). The server sends the job's current state first, then at most one
// progress event per 50 ms carrying the latest step, then exactly one
// terminal event as soon as the job ends. Seq counts the events the job
// published, so gaps between delivered events are normal.
//
// With a retry policy installed, a severed stream reconnects with
// backoff instead of erroring: each reconnect resumes from the job's
// latest event, and events at or below the last delivered sequence
// number are suppressed so fn never sees one twice — except the terminal
// event, which is always delivered, because a job recovered after a
// crash restarts its count and its terminal may carry a sequence the
// pre-crash stream already passed. Watch returns at the first terminal
// event, so fn can never see two.
func (c *Client) Watch(ctx context.Context, id string, fn func(service.Event) bool) error {
	var lastSeq int
	if c.retry.MaxAttempts <= 1 {
		_, err := c.watchOnce(ctx, id, fn, &lastSeq)
		return err
	}
	failed := 0
	for {
		progressed, err := c.watchOnce(ctx, id, fn, &lastSeq)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		// Once events have flowed the job certainly exists, so any failure
		// is worth a bounded reconnect: a cluster mid-failover transiently
		// answers not_found (the owner is rebooting; its peers never heard
		// of the job) where a live stream existed moments earlier.
		if !retryable(err) && lastSeq == 0 {
			return err
		}
		// A stream that delivered events was a live connection; its loss is
		// a fresh failure, not one more strike against the same outage.
		if progressed {
			failed = 0
		}
		failed++
		if failed >= c.retry.MaxAttempts {
			return err
		}
		if serr := c.sleepRetry(ctx, failed, err); serr != nil {
			return err
		}
	}
}

// watchOnce runs one watch connection, delivering events past *lastSeq
// (terminals always) and advancing *lastSeq. It reports whether this
// connection delivered anything new, and returns nil exactly when the
// stream completed (terminal seen or fn stopped it).
func (c *Client) watchOnce(ctx context.Context, id string, fn func(service.Event) bool, lastSeq *int) (bool, error) {
	u := c.base + "/v1/jobs/" + url.PathEscape(id) + "?watch=1"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	trace.Inject(ctx, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, decodeError(resp)
	}
	progressed := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			return progressed, fmt.Errorf("watch %s: bad SSE payload %q: %w", id, line, err)
		}
		if ev.Seq <= *lastSeq && !ev.Terminal {
			continue // delivered before a reconnect
		}
		if ev.Seq > *lastSeq {
			*lastSeq = ev.Seq
		}
		progressed = true
		if !fn(ev) {
			return progressed, nil
		}
		if ev.Terminal {
			return progressed, nil
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return progressed, ctx.Err()
		}
		return progressed, fmt.Errorf("watch %s: stream: %w", id, err)
	}
	return progressed, fmt.Errorf("watch %s: stream ended before terminal event", id)
}

// Wait blocks until the job reaches a terminal state (or ctx expires) and
// returns its final snapshot. It rides the watch stream, so a job that
// already ended returns at once: the stream's first event is its
// terminal one.
func (c *Client) Wait(ctx context.Context, id string) (*service.JobInfo, error) {
	if err := c.Watch(ctx, id, func(service.Event) bool { return true }); err != nil {
		return nil, err
	}
	return c.Job(ctx, id)
}
