package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/analyze"
)

// API surface, served by noiselabd and by the noisefleet coordinator alike
// (one Server, one route table; only the runner differs):
//
//	POST   /v1/jobs            submit a JobSpec; 202 + JobStatus (200 when
//	                           served from cache at submit time)
//	GET    /v1/jobs/{id}       poll status (a fleet job adds sub_jobs: each
//	                           slice's node, backend job ID and retries)
//	GET    /v1/jobs/{id}/result fetch the stored result payload verbatim (a
//	                           fleet job's is the merged payload, byte-identical
//	                           to a single node's)
//	GET    /v1/jobs/{id}/events live progress as server-sent events (state
//	                           transitions + rep completions, aggregated across
//	                           a fleet job's slices; Last-Event-ID resumes a
//	                           dropped stream)
//	GET    /v1/jobs/{id}/timeline fetch the Chrome trace-event timeline
//	                           (specs submitted with "timeline": true; a fleet
//	                           job serves its offset-0 slice's)
//	DELETE /v1/jobs/{id}       cancel (a fleet job cancels its backend sub-jobs)
//	POST   /v1/analyses        submit a bare analysis spec (analyze.Spec);
//	                           the body is wrapped as JobSpec{Analyze: spec}
//	                           and rides the same queue, cache and SSE stream
//	                           (a fleet splits the sweep by source)
//	GET    /v1/analyses/{id}           poll status (alias of the job route)
//	GET    /v1/analyses/{id}/result    fetch the analysis artifact verbatim
//	GET    /v1/analyses/{id}/events    live progress (SSE)
//	GET    /v1/analyses/{id}/timeline  bottleneck source's evidence timeline
//	GET    /v1/analyses/{id}/timeline/{source} one source's evidence timeline
//	DELETE /v1/analyses/{id}           cancel
//	GET    /metrics            Prometheus text metrics (?format=json for the
//	                           JSON rendering of the same registries)
//	GET    /debug/flightrecorder recent flight-recorder dumps of failed reps
//	GET    /healthz            liveness
//	GET    /v1/ring?key=K      coordinator only: a key's owner and failover
//	                           order on the hash ring (internal/fleet)
//
// Malformed specs get 400, unknown jobs 404, a full queue 503 with
// Retry-After, and submissions during drain 503. A finished job is unknown
// once finishedKeep newer jobs have finished.

// Timeouts of the listeners built by NewHTTPServer: how long a client may
// take to send request headers, and how long an idle keep-alive connection
// stays open.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the listener noiselabd and noisefleet serve h on.
// It bounds header reads and idle connections only: no ReadTimeout or
// WriteTimeout, because a spec body may be 64 MB and an SSE progress
// stream legitimately stays open for as long as its job runs.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// Handler returns the HTTP handler for the service API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/timeline", s.handleTimeline)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/analyses", s.handleSubmitAnalysis)
	mux.HandleFunc("GET /v1/analyses/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/analyses/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/analyses/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/analyses/{id}/timeline", s.handleTimeline)
	mux.HandleFunc("GET /v1/analyses/{id}/timeline/{source}", s.handleAnalysisTimeline)
	mux.HandleFunc("DELETE /v1/analyses/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	return mux
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "decoding spec: "+err.Error())
		return
	}
	s.submitHTTP(w, spec)
}

// submitHTTP submits spec and answers with the job's status: 200 when the
// job was served from cache at submit time, 202 otherwise, even when a
// worker has finished the job by the time its status is read.
func (s *Server) submitHTTP(w http.ResponseWriter, spec JobSpec) {
	job, cached, err := s.submit(spec)
	switch {
	case err == nil:
	case errors.Is(err, errQueueFull), errors.Is(err, errDraining):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	default:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.testHookSubmitted != nil {
		s.testHookSubmitted(job.ID)
	}
	st, _ := s.Status(job.ID)
	code := http.StatusAccepted
	if cached {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// handleSubmitAnalysis accepts a bare analysis spec and submits it as an
// analysis job. The wrapped JobSpec leaves every single-node field unset,
// so validateAnalyze cannot reject it for field mixing — only the analysis
// spec itself is on trial.
func (s *Server) handleSubmitAnalysis(w http.ResponseWriter, r *http.Request) {
	var spec analyze.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "decoding analysis spec: "+err.Error())
		return
	}
	s.submitHTTP(w, JobSpec{Analyze: &spec})
}

// handleAnalysisTimeline serves one noise source's evidence timeline of a
// finished analysis job.
func (s *Server) handleAnalysisTimeline(w http.ResponseWriter, r *http.Request) {
	data, state, ok := s.AnalysisTimeline(r.PathValue("id"), r.PathValue("source"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	switch {
	case state == StateDone && data != nil:
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case state == StateDone:
		httpError(w, http.StatusNotFound, "no evidence timeline for that source (submit with \"timeline\": true)")
	case state.Terminal():
		httpError(w, http.StatusConflict, "job "+string(state)+", no timeline")
	default:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusAccepted, "job "+string(state))
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	data, state, ok := s.Result(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	switch state {
	case StateDone:
		// Serve the stored bytes verbatim: a cache hit is byte-identical
		// to the execution that produced the entry.
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case StateFailed, StateCanceled:
		httpError(w, http.StatusConflict, "job "+string(state)+", no result")
	default:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusAccepted, "job "+string(state))
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	log, ok := s.Events(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	serveSSE(w, r, log)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	state, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": r.PathValue("id"), "state": string(state)})
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	data, state, ok := s.Timeline(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	switch {
	case state == StateDone && data != nil:
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case state == StateDone:
		httpError(w, http.StatusNotFound, "no timeline recorded (submit with \"timeline\": true)")
	case state.Terminal():
		httpError(w, http.StatusConflict, "job "+string(state)+", no timeline")
	default:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusAccepted, "job "+string(state))
	}
}

func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.FlightDumps())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		s.writeMetricsJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.WritePrometheus(w)
	s.Metrics().render(w)
	// The kernel counters accumulated across job executions (repro_*
	// families) follow the service families.
	s.runReg.WritePrometheus(w)
}

// writeMetricsJSON renders the service snapshot plus both registries as one
// JSON document: the service families, and under "kernel" the runner's
// (the kernel's repro_* families on a daemon, noisefleet_* on a
// coordinator).
func (s *Server) writeMetricsJSON(w http.ResponseWriter) {
	var svc, kernel bytes.Buffer
	if err := s.met.reg.WriteJSON(&svc); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if err := s.runReg.WriteJSON(&kernel); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot": s.Metrics(),
		"service":  json.RawMessage(svc.Bytes()),
		"kernel":   json.RawMessage(kernel.Bytes()),
	})
}
