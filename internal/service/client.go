package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/analyze"
)

// Timeouts of the HTTP client a Client uses when it is given none: how
// long dialing a server may take, and how long a sent request may wait
// for the response headers. There is no whole-request timeout, because an
// SSE stream stays open for as long as its job runs; serveSSE flushes the
// stream's headers on connect, so the header timeout holds there too.
const (
	dialTimeout           = 10 * time.Second
	responseHeaderTimeout = 30 * time.Second
)

// errBodyLimit bounds how much of an error response a Client reads.
const errBodyLimit = 4096

// defaultHTTPClient serves every Client whose Client field is nil.
var defaultHTTPClient = newHTTPClient(responseHeaderTimeout)

// newHTTPClient returns a client on a copy of the default transport that
// dials within dialTimeout and waits headerTimeout for response headers.
func newHTTPClient(headerTimeout time.Duration) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.DialContext = (&net.Dialer{Timeout: dialTimeout, KeepAlive: 30 * time.Second}).DialContext
	t.ResponseHeaderTimeout = headerTimeout
	return &http.Client{Transport: t}
}

// Client speaks the service API (see http.go) to one server: a noiselabd
// daemon or a noisefleet coordinator. Each method makes one attempt and
// returns failures as errors; retry policy belongs to the caller (the
// fleet coordinator walks its ring to the next node).
type Client struct {
	// Name is the server's base URL, e.g. "http://10.0.0.7:8080"; it is
	// also a backend's identity on the fleet's hash ring.
	Name string
	// Client sends the requests (nil = a shared client with dial and
	// response-header timeouts).
	Client *http.Client
}

// Submit posts a spec and returns the accepted job's status.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	err := c.doJSON(ctx, http.MethodPost, "/v1/jobs", spec, &st, http.StatusOK, http.StatusAccepted)
	return st, err
}

// SubmitAnalysis posts a bare analysis spec and returns the accepted
// job's status. The job lives under the same IDs as any other, so Status,
// WaitDone, Result and Cancel serve it unchanged.
func (c *Client) SubmitAnalysis(ctx context.Context, spec analyze.Spec) (JobStatus, error) {
	var st JobStatus
	err := c.doJSON(ctx, http.MethodPost, "/v1/analyses", spec, &st, http.StatusOK, http.StatusAccepted)
	return st, err
}

// Status returns one job's status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st, http.StatusOK)
	return st, err
}

// Cancel cancels a job and returns its state after the call; canceling a
// finished job is a no-op that reports its final state.
func (c *Client) Cancel(ctx context.Context, id string) (JobState, error) {
	var body struct {
		State JobState `json:"state"`
	}
	err := c.doJSON(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &body, http.StatusOK)
	return body.State, err
}

// Result fetches a done job's stored payload verbatim.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	return c.fetch(ctx, "/v1/jobs/"+id+"/result")
}

// Timeline fetches a done job's recorded timeline.
func (c *Client) Timeline(ctx context.Context, id string) ([]byte, error) {
	return c.fetch(ctx, "/v1/jobs/"+id+"/timeline")
}

// AnalysisTimeline fetches one source's evidence timeline of a done
// analysis job.
func (c *Client) AnalysisTimeline(ctx context.Context, id, source string) ([]byte, error) {
	return c.fetch(ctx, "/v1/analyses/"+id+"/timeline/"+source)
}

// fetch returns the whole body of a 200 answer to GET path. A body cut
// short of its Content-Length is an error (io.ErrUnexpectedEOF), never
// short bytes.
func (c *Client) fetch(ctx context.Context, path string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, path, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", c.Name+path, err)
	}
	return data, nil
}

// doJSON is do, decoding the response body into out.
func (c *Client) doJSON(ctx context.Context, method, path string, body, out any, ok ...int) error {
	resp, err := c.do(ctx, method, path, body, ok...)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decoding response: %w", method, c.Name+path, err)
	}
	return nil
}

// do sends method to path, with body (when non-nil) encoded as JSON.
func (c *Client) do(ctx context.Context, method, path string, body any, ok ...int) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Name+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.send(req, ok...)
}

// send sends req and returns the response when its status is one of ok.
// Any other status closes the body and returns the server's error
// message, read from at most errBodyLimit bytes of it.
func (c *Client) send(req *http.Request, ok ...int) (*http.Response, error) {
	hc := c.Client
	if hc == nil {
		hc = defaultHTTPClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if slices.Contains(ok, resp.StatusCode) {
		return resp, nil
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, errBodyLimit))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		body = []byte(e.Error)
	}
	return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL, resp.Status, bytes.TrimSpace(body))
}

// WaitDone follows a job's SSE event stream until it reaches a terminal
// state, reporting progress updates through onProgress (may be nil). It
// resumes with Last-Event-ID across one stream break; when the stream breaks
// and a status poll says the job is still not terminal, the server is
// treated as unhealthy and the error is returned (the fleet coordinator's
// failover handles it).
func (c *Client) WaitDone(ctx context.Context, id string, onProgress func(done, total int)) (JobState, error) {
	var lastID uint64
	retried := false
	for {
		state, err := c.stream(ctx, id, &lastID, onProgress)
		if err == nil {
			return state, nil
		}
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
		// One status poll decides: the stream may have broken exactly at
		// terminal-event delivery, or the connection died mid-run.
		st, serr := c.Status(ctx, id)
		if serr == nil && st.State.Terminal() {
			return st.State, nil
		}
		if retried || serr != nil {
			return "", fmt.Errorf("service: event stream for %s on %s broke: %w", id, c.Name, err)
		}
		retried = true
	}
}

// stream consumes one SSE connection, returning the terminal state when the
// stream finishes cleanly, or an error when the connection breaks first.
func (c *Client) stream(ctx context.Context, id string, lastID *uint64, onProgress func(done, total int)) (JobState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Name+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	if *lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*lastID, 10))
	}
	resp, err := c.send(req, http.StatusOK)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()

	var (
		typ, data string
		terminal  JobState
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			if n, err := strconv.ParseUint(line[len("id: "):], 10, 64); err == nil {
				*lastID = n
			}
		case strings.HasPrefix(line, "event: "):
			typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "":
			// Dispatch the completed event.
			switch typ {
			case "progress":
				var p struct{ Done, Total int }
				if json.Unmarshal([]byte(data), &p) == nil && onProgress != nil {
					onProgress(p.Done, p.Total)
				}
			case "state":
				var s struct {
					State JobState `json:"state"`
				}
				if json.Unmarshal([]byte(data), &s) == nil && s.State.Terminal() {
					terminal = s.State
				}
			}
			typ, data = "", ""
		}
	}
	if terminal != "" {
		// The server closes the stream after delivering the terminal event;
		// reaching EOF with one in hand is the clean end of the stream.
		return terminal, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("service: event stream for %s ended without a terminal state", id)
}
