package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"testing"
	"time"

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
//
// seal-B/op is what each finished job keeps of its reply (sealBytes).
func BenchmarkWarmJob(b *testing.B) {
	body := warmJobBody(b)
	srv := benchServer()
	defer srv.Drain(context.Background())
	h := srv.Handler()
	postJob(b, h, body) // the pre-warm: every unit task's answer lands in the cache
	calls := srv.Stats().UpstreamCalls
	b.ReportAllocs()
	for b.Loop() {
		postJob(b, h, body)
	}
	if got := srv.Stats().UpstreamCalls; got != calls {
		b.Fatalf("warm jobs made %d upstream calls", got-calls)
	}
	b.ReportMetric(float64(sealBytes(warmSeal(b, srv, body))), "seal-B/op")
}

// warmSeal sends body once more to srv and returns that job's seal.
func warmSeal(b *testing.B, srv *Server, body []byte) *sealedReply {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/pipelines", bytes.NewReader(body)))
	var st struct{ ID string }
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	j, err := srv.lookup(st.ID)
	if err != nil {
		b.Fatal(err)
	}
	_, sealed := j.view()
	return sealed
}

// retainedJobs is about how many finished warm-replay jobs a server with
// the benchmark module's two-second retention holds.
const retainedJobs = 512

// BenchmarkWarmJobRetained is BenchmarkWarmJob on a server that holds
// retainedJobs finished warm jobs throughout, as one retaining two seconds
// of warm-replay traffic does, so the GC's cost of marking what they keep
// shows in-tree. gc-cpu-% is the GC's share of the process's CPU time over
// the loop (runtime/metrics).
func BenchmarkWarmJobRetained(b *testing.B) {
	body := warmJobBody(b)
	srv := New(Config{Model: sim.NewNamed("sim-gpt-3.5-turbo"), TenantRate: 1e9, TenantBurst: 1 << 20,
		JobRetention: -1, MaxJobs: retainedJobs})
	defer srv.Drain(context.Background())
	h := srv.Handler()
	for range retainedJobs {
		postJob(b, h, body) // the first pre-warms the cache
	}
	calls := srv.Stats().UpstreamCalls
	gc0, cpu0 := gcCPU()
	b.ReportAllocs()
	k := 0
	for b.Loop() {
		postJob(b, h, body)
		if k++; k%64 == 0 {
			srv.sweepJobs(time.Now()) // back to retainedJobs
		}
	}
	gc1, cpu1 := gcCPU()
	if got := srv.Stats().UpstreamCalls; got != calls {
		b.Fatalf("warm jobs made %d upstream calls", got-calls)
	}
	if cpu1 > cpu0 {
		b.ReportMetric(100*(gc1-gc0)/(cpu1-cpu0), "gc-cpu-%")
	}
}

// gcCPU reads the CPU time the GC has used and the process has used, in
// seconds, as runtime/metrics estimates them.
func gcCPU() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// warmJobBody is the warm-replay job BenchmarkWarmJob sends.
func warmJobBody(b *testing.B) []byte {
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
	return body
}

// knnJobs returns the knn-corpus job of the benchmark module: a hybrid
// impute at k = 5 against one 4,000-row train table, then a blocked
// pairwise resolve, as one request body for each of eight 32-record
// sources the jobs rotate over.
func knnJobs(tb testing.TB) [][]byte {
	spec := pipeline.Spec{Stages: []pipeline.StageSpec{
		{Name: "city", Kind: pipeline.KindImpute, TargetField: "city", Side: "train", Strategy: "hybrid", Neighbors: 5},
		{Name: "entities", Kind: pipeline.KindResolve, Strategy: "blocked-pairwise"},
	}}
	const jobs, records = 8, 32
	ds := dataset.GenerateRestaurants(4000, jobs*records, 1)
	bodies := make([][]byte, jobs)
	for k := range bodies {
		source := make([]dataset.Record, records)
		for i, r := range ds.Test[k*records : (k+1)*records] {
			source[i] = r.WithoutField(ds.TargetField)
		}
		body, err := json.Marshal(SubmitRequest{Tenant: "knn", Spec: spec, Tables: map[string][]dataset.Record{"source": source, "train": ds.Train}})
		if err != nil {
			tb.Fatal(err)
		}
		bodies[k] = body
	}
	return bodies
}

// BenchmarkKNNJob sends the benchmark module's knn-corpus job through
// Handler, rotating over its eight sources, each of which the pre-warm
// has run once: an op decodes the request (its train table recognised by
// its bytes), imputes through the registry's index of that table and
// blocks the source through the registry's index of it, and every ask is
// a cache hit. For profiling the k-NN path in-tree:
//
//	go test -run '^$' -bench KNNJob -benchmem -cpuprofile cpu.out ./internal/server/
func BenchmarkKNNJob(b *testing.B) {
	bodies := knnJobs(b)
	srv := benchServer()
	defer srv.Drain(context.Background())
	h := srv.Handler()
	for _, body := range bodies {
		postJob(b, h, body) // the pre-warm: each source's index, blocks and answers
	}
	calls := srv.Stats().UpstreamCalls
	b.ReportAllocs()
	k := 0
	for b.Loop() {
		postJob(b, h, bodies[k%len(bodies)])
		k++
	}
	if got := srv.Stats().UpstreamCalls; got != calls {
		b.Fatalf("warm jobs made %d upstream calls", got-calls)
	}
}

// benchServer returns the server the job benchmarks send to, with no
// tenant throttling and finished jobs capped so a long run does not grow
// the heap.
func benchServer() *Server {
	return New(Config{Model: sim.NewNamed("sim-gpt-3.5-turbo"), TenantRate: 1e9, TenantBurst: 1 << 20, MaxJobs: 64})
}

// postJob sends one job through h and fails b unless it succeeded.
func postJob(b *testing.B, h http.Handler, body []byte) {
	w := &discardWriter{header: http.Header{}}
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/pipelines", bytes.NewReader(body)))
	if w.code != http.StatusOK {
		b.Fatalf("status %d: %s", w.code, w.failure)
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
