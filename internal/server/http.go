package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/resil"
	"repro/internal/workflow"
)

// maxBodyBytes bounds a submission body; anything larger is a 413 once
// the limit is crossed, not a buffer that grows with the sender's patience.
const maxBodyBytes = 8 << 20

// bodyPool recycles the buffers submission bodies are read into. A body
// is decoded and its buffer returned before the job is admitted; nothing
// decoded aliases it (encoding/json copies every string).
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// apiError is the JSON error envelope, mirroring internal/llm/httpapi.
type apiError struct {
	Error struct {
		Message string `json:"message"`
		Type    string `json:"type"`
	} `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, typ, msg string) {
	var e apiError
	e.Error.Message = msg
	e.Error.Type = typ
	writeJSON(w, code, e)
}

// statusFor maps the server's sentinel errors onto HTTP semantics: the
// caller's fault (400; a body over maxBodyBytes is 413, see handleSubmit),
// over the tenant's rate (429), over the tenant's budget (402), no
// capacity or shutting down (503), the upstream's breaker open (503 with
// Retry-After, see fail), unknown resource (404), everything else the
// server's fault (500).
func statusFor(err error) (code int, typ string) {
	switch {
	case errors.Is(err, ErrBadSpec):
		return http.StatusBadRequest, "invalid_request_error"
	case errors.Is(err, ErrRateLimited):
		return http.StatusTooManyRequests, "rate_limit_error"
	case errors.Is(err, workflow.ErrBudgetExhausted):
		return http.StatusPaymentRequired, "budget_exhausted_error"
	case errors.Is(err, resil.ErrBreakerOpen):
		return http.StatusServiceUnavailable, "upstream_unavailable_error"
	case errors.Is(err, ErrBusy), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "overloaded_error"
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, "not_found_error"
	default:
		return http.StatusInternalServerError, "server_error"
	}
}

func fail(w http.ResponseWriter, err error) {
	// A breaker refusal knows when the upstream will accept a probe;
	// surface it the standard way so well-behaved clients back off for
	// exactly that long (ceiling to whole seconds, the header's unit).
	var boe *resil.BreakerOpenError
	if errors.As(err, &boe) && boe.RetryAfter > 0 {
		secs := int64((boe.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	code, typ := statusFor(err)
	writeError(w, code, typ, err.Error())
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/pipelines           submit a Spec (sync, or async with poll)
//	GET    /v1/jobs/{id}           job status and, when done, the result
//	DELETE /v1/jobs/{id}           cancel a job
//	GET    /v1/tenants/{id}/report tenant spend, latency, cache-hit share
//	GET    /v1/stats               service-wide counters
//	GET    /healthz                liveness (503 while draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/pipelines", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/tenants/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// readSubmit reads and decodes a submission body through a pooled buffer.
func (s *Server) readSubmit(w http.ResponseWriter, r *http.Request) (SubmitRequest, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		bodyPool.Put(buf)
	}()
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF without growing
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return SubmitRequest{}, err
	}
	return s.decodeSubmit(buf.Bytes())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := s.readSubmit(w, r)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request_too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "invalid_request_error", "malformed request body: "+err.Error())
		return
	}
	st, err := s.Submit(r.Context(), req)
	if err != nil {
		fail(w, err)
		return
	}
	code := http.StatusOK
	if req.Async {
		code = http.StatusAccepted
	}
	writeJSON(w, code, st)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rep, err := s.Report(r.PathValue("id"))
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "overloaded_error", "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
