package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/llm/sim"
	"repro/internal/server"
)

// TestPprofBehindFlag: the profiles are served only with -pprof, and the
// service's own endpoints answer either way.
func TestPprofBehindFlag(t *testing.T) {
	srv := server.New(server.Config{Model: sim.NewNamed("sim-gpt-3.5-turbo")})
	defer srv.Drain(context.Background())
	for _, c := range []struct {
		pprof bool
		path  string
		want  int
	}{
		{false, "/debug/pprof/", http.StatusNotFound},
		{false, "/debug/pprof/cmdline", http.StatusNotFound},
		{false, "/healthz", http.StatusOK},
		{true, "/debug/pprof/", http.StatusOK},
		{true, "/debug/pprof/cmdline", http.StatusOK},
		{true, "/debug/pprof/heap", http.StatusOK},
		{true, "/healthz", http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		handler(srv.Handler(), c.pprof).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.path, nil))
		if rec.Code != c.want {
			t.Errorf("pprof=%v GET %s = %d, want %d", c.pprof, c.path, rec.Code, c.want)
		}
	}
}
