package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestClientErrorMessages pins how a Client reports a refused request: an
// unknown job's 404 carries the server's JSON message, and a long error
// body is read only up to errBodyLimit bytes.
func TestClientErrorMessages(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	cl := &Client{Name: ts.URL}
	_, err := cl.Status(context.Background(), "nope")
	if err == nil || !strings.Contains(err.Error(), "404 Not Found: unknown job") {
		t.Fatalf("status of an unknown job: %v, want the server's 404 message", err)
	}

	long := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(strings.Repeat("x", 64<<10)))
	}))
	t.Cleanup(long.Close)
	_, err = (&Client{Name: long.URL}).Result(context.Background(), "j000001")
	if err == nil {
		t.Fatal("a 500 answer returned no error")
	}
	if n := strings.Count(err.Error(), "x"); n != errBodyLimit {
		t.Fatalf("error carries %d bytes of the body, want %d", n, errBodyLimit)
	}
}

// TestClientTruncatedResult: a result body cut short of its Content-Length
// is an error, never short bytes.
func TestClientTruncatedResult(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		w.Write([]byte(`{"spec_hash":`))
	}))
	t.Cleanup(ts.Close)
	data, err := (&Client{Name: ts.URL}).Result(context.Background(), "j000001")
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated result: %d bytes, err %v; want io.ErrUnexpectedEOF", len(data), err)
	}
}

// TestClientHeaderTimeout: a server that accepts a request and never
// answers makes the default client fail instead of hanging. The test runs
// the default client's construction with a short header timeout.
func TestClientHeaderTimeout(t *testing.T) {
	if got := defaultHTTPClient.Transport.(*http.Transport).ResponseHeaderTimeout; got != responseHeaderTimeout {
		t.Fatalf("default client's header timeout is %v, want %v", got, responseHeaderTimeout)
	}
	stop := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stop
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(stop) })

	cl := &Client{Name: ts.URL, Client: newHTTPClient(50 * time.Millisecond)}
	done := make(chan error, 1)
	go func() {
		_, err := cl.Status(context.Background(), "j000001")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "timeout awaiting response headers") {
			t.Fatalf("status against a silent server: %v, want a header timeout", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("status against a silent server hung")
	}
}
