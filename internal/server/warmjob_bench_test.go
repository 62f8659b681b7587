package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/llm/sim"
	"repro/internal/pipeline"
)

// BenchmarkWarmJob sends one warm job through Handler: six stages that
// each read the same 256 restaurants (three filters, a categorize, a
// rating sort and a per-item count), every unit task of which the
// pre-warm job has already answered, so an op is the request decode, the
// pipeline over cache hits and the reply. It is the benchmark module's
// warm-replay job without the network, for profiling in-tree:
//
//	go test -run '^$' -bench WarmJob -benchmem -cpuprofile cpu.out ./internal/server/
func BenchmarkWarmJob(b *testing.B) {
	spec := pipeline.Spec{Stages: []pipeline.StageSpec{
		{Name: "casual", Kind: pipeline.KindFilter, Input: "source", Field: "name", Predicate: "the restaurant sounds like a casual neighbourhood place"},
		{Name: "seafood", Kind: pipeline.KindFilter, Input: "source", Field: "type", Predicate: "the restaurant serves seafood, steak, or pizza"},
		{Name: "street", Kind: pipeline.KindFilter, Input: "source", Field: "addr", Predicate: "the address is on a numbered street or avenue"},
		{Name: "kind", Kind: pipeline.KindCategorize, Input: "source", Field: "name", Categories: []string{"diner", "cafe", "grill", "bistro", "kitchen", "house"}},
		{Name: "fancy", Kind: pipeline.KindSort, Input: "source", Criterion: "how upscale the restaurant is", Strategy: "rating"},
		{Name: "share", Kind: pipeline.KindCount, Input: "source", Field: "name", Predicate: "the restaurant sounds like a casual neighbourhood place"},
	}}
	ds := dataset.GenerateRestaurants(0, 256, 1)
	source := make([]dataset.Record, len(ds.Test))
	for i, r := range ds.Test {
		source[i] = r.WithoutField(ds.TargetField)
	}
	body, err := json.Marshal(SubmitRequest{Tenant: "warm", Spec: spec, Tables: map[string][]dataset.Record{"source": source}})
	if err != nil {
		b.Fatal(err)
	}
	// Finished jobs are capped so a long run does not grow the heap.
	srv := New(Config{Model: sim.NewNamed("sim-gpt-3.5-turbo"), TenantRate: 1e9, TenantBurst: 1 << 20, MaxJobs: 64})
	defer srv.Drain(context.Background())
	h := srv.Handler()
	post := func() {
		w := &discardWriter{header: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/pipelines", bytes.NewReader(body)))
		if w.code != http.StatusOK {
			b.Fatalf("status %d: %s", w.code, w.failure)
		}
	}
	post() // the pre-warm: every unit task's answer lands in the cache
	calls := srv.Stats().UpstreamCalls
	b.ReportAllocs()
	for b.Loop() {
		post()
	}
	if got := srv.Stats().UpstreamCalls; got != calls {
		b.Fatalf("warm jobs made %d upstream calls", got-calls)
	}
}

// discardWriter is a ResponseWriter that keeps the status and drops a
// successful reply's bytes, so the benchmark counts the server's
// allocations and not a recorder's growing body buffer.
type discardWriter struct {
	header  http.Header
	code    int
	failure []byte
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	if w.code != http.StatusOK {
		w.failure = append(w.failure, p...)
	}
	return len(p), nil
}
