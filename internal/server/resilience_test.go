package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/pipeline"
	"repro/internal/resil"
	"repro/internal/workflow"
)

// flakyFunc fails the first failN attempts of every distinct prompt with
// a transient fault, then answers "Yes".
func flakyFunc(failN int) llm.Func {
	var mu sync.Mutex
	attempts := map[string]int{}
	return llm.Func{ModelName: "flaky", Fn: func(_ context.Context, req llm.Request) (llm.Response, error) {
		mu.Lock()
		attempts[req.Prompt]++
		n := attempts[req.Prompt]
		mu.Unlock()
		if n <= failN {
			return llm.Response{}, fmt.Errorf("%w: warming up", llm.ErrTransient)
		}
		return unit("Yes"), nil
	}}
}

// postSubmit sends one submission through the HTTP handler.
func postSubmit(t *testing.T, h http.Handler, req SubmitRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/pipelines", bytes.NewReader(body)))
	return w
}

// TestBreakerOpen503RetryAfter pins the outage surface: once the breaker
// opens, submissions are refused at the door with 503 and a Retry-After
// header telling the client when a probe will be admitted.
func TestBreakerOpen503RetryAfter(t *testing.T) {
	down := llm.Func{ModelName: "down", Fn: func(context.Context, llm.Request) (llm.Response, error) {
		return llm.Response{}, fmt.Errorf("%w: outage", llm.ErrTransient)
	}}
	srv := New(Config{Model: down, Resilience: &resil.Policy{
		MaxAttempts: 1, BreakerThreshold: 1, BreakerCooldown: time.Minute,
	}})
	h := srv.Handler()
	tables := kindTable("br", 2, "tool", "toy")

	// The first submission is admitted (breaker closed), runs, and fails —
	// which trips the breaker.
	st, err := srv.Submit(context.Background(), SubmitRequest{Tenant: "t", Spec: toolSpec(), Tables: tables})
	if err != nil || st.State != JobFailed {
		t.Fatalf("outage job: err %v, state %+v", err, st)
	}
	if s := srv.Stats(); !s.BreakerOpen || s.BreakerOpens != 1 {
		t.Fatalf("breaker not open after the outage job: %+v", s)
	}

	// In-process: the refusal is typed.
	if _, err := srv.Submit(context.Background(), SubmitRequest{Tenant: "t", Spec: toolSpec(), Tables: tables}); !errors.Is(err, resil.ErrBreakerOpen) {
		t.Fatalf("open-breaker submission: err %v, want ErrBreakerOpen", err)
	}

	// Over HTTP: 503, the upstream-unavailable type, and a Retry-After
	// within the configured cooldown.
	w := postSubmit(t, h, SubmitRequest{Tenant: "t", Spec: toolSpec(), Tables: tables})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", w.Code, w.Body)
	}
	secs, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || secs < 1 || secs > 60 {
		t.Fatalf("Retry-After = %q (%v), want 1..60 seconds", w.Header().Get("Retry-After"), err)
	}
	var e apiError
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error.Type != "upstream_unavailable_error" {
		t.Fatalf("error envelope = %s (%v), want upstream_unavailable_error", w.Body, err)
	}
}

// TestTenantRetryBudget: retries are a tenant-scoped resource. A tenant
// with no retry allowance fails on the first transient fault; a default
// (unlimited) tenant heals, and its report shows what the healing spent.
func TestTenantRetryBudget(t *testing.T) {
	srv := New(Config{
		Model:      flakyFunc(1),
		Resilience: &resil.Policy{MaxAttempts: 3, BaseBackoff: time.Microsecond},
		Tenants:    map[string]TenantLimits{"frugal": {RetryBudget: -1}},
	})
	st, err := srv.Submit(context.Background(), SubmitRequest{
		Tenant: "frugal", Spec: toolSpec(), Tables: kindTable("fr", 2, "fr-a", "fr-b"),
	})
	if err != nil || st.State != JobFailed {
		t.Fatalf("no-retry tenant: err %v, state %+v (want failed on the first fault)", err, st)
	}
	st, err = srv.Submit(context.Background(), SubmitRequest{
		Tenant: "rich", Spec: toolSpec(), Tables: kindTable("ri", 2, "ri-a", "ri-b"),
	})
	if err != nil || st.State != JobDone {
		t.Fatalf("unlimited tenant: err %v, state %+v (want healed by retries)", err, st)
	}
	frugal, _ := srv.Report("frugal")
	rich, _ := srv.Report("rich")
	if frugal.RetriesUsed != 0 {
		t.Fatalf("frugal tenant spent %d retries with a zero allowance", frugal.RetriesUsed)
	}
	if rich.RetriesUsed == 0 {
		t.Fatal("rich tenant's report shows no retries despite healing transient faults")
	}
	if s := srv.Stats(); s.Retries != rich.RetriesUsed {
		t.Fatalf("service retries %d != rich tenant's %d (frugal spent none)", s.Retries, rich.RetriesUsed)
	}
}

// TestTaggedAskOutsideJobNotCounted: a tenant's serves and retries are
// what its jobs made. An ask tagged with workflow.TagTenant for a known
// tenant, but made outside any job — through the injected execution layer
// and the server's retrying model — is neither counted as a serve nor
// charged as a retry.
func TestTaggedAskOutsideJobNotCounted(t *testing.T) {
	layer := workflow.NewExecLayer()
	srv := New(Config{
		Model:      flakyFunc(1),
		Exec:       layer,
		Resilience: &resil.Policy{MaxAttempts: 3, BaseBackoff: time.Microsecond},
	})
	if st, err := srv.Submit(context.Background(), SubmitRequest{
		Tenant: "acme", Spec: toolSpec(), Tables: kindTable("in", 2, "in-a", "in-b"),
	}); err != nil || st.State != JobDone {
		t.Fatalf("job: err %v, state %+v", err, st)
	}
	before, _ := srv.Report("acme")
	if before.Served == 0 || before.RetriesUsed == 0 {
		t.Fatalf("the job's own asks went uncounted: %+v", before)
	}

	tagged := workflow.TagTenant(context.Background(), "acme")
	if _, err := srv.counting.Complete(tagged, llm.Request{Prompt: "outside, retried"}); err != nil {
		t.Fatal(err)
	}
	m := layer.Wrap(srv.counting)
	for i := 0; i < 2; i++ { // a miss, then a hit
		if _, err := m.Complete(tagged, llm.Request{Prompt: "outside, served"}); err != nil {
			t.Fatal(err)
		}
	}
	if s := srv.Stats(); s.Retries <= before.RetriesUsed {
		t.Fatalf("the outside asks made no retry (service retries %d): the test exercises nothing", s.Retries)
	}
	after, _ := srv.Report("acme")
	if after.Served != before.Served || after.FreeServed != before.FreeServed || after.RetriesUsed != before.RetriesUsed {
		t.Fatalf("asks outside any job were counted: before %+v, after %+v", before, after)
	}
}

// TestTenantSpendSurvivesRestart pins the persistence satellite: a
// drained server writes tenants.json, and a successor over the same state
// dir resumes each tenant's lifetime spend — reports agree and budget
// caps bind across the restart.
func TestTenantSpendSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	tables := kindTable("sp", 6, "tool", "toy", "gadget")

	srv := New(Config{Model: testOracle(), StateDir: dir})
	if st, err := srv.Submit(context.Background(), SubmitRequest{Tenant: "acct", Spec: toolSpec(), Tables: tables}); err != nil || st.State != JobDone {
		t.Fatalf("cold run: err %v, state %+v", err, st)
	}
	before, err := srv.Report("acct")
	if err != nil {
		t.Fatal(err)
	}
	if before.Calls != 3 {
		t.Fatalf("cold run cost %d calls, want 3", before.Calls)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, TenantsFileName)); err != nil {
		t.Fatalf("drain left no tenant ledger: %v", err)
	}

	// The successor caps the tenant at exactly its restored spend.
	successor := New(Config{Model: testOracle(), StateDir: dir, Tenants: map[string]TenantLimits{
		"acct": {Caps: TenantCaps{Calls: 3}},
	}})
	if err := successor.StateError(); err != nil {
		t.Fatal(err)
	}
	after, err := successor.Report("acct")
	if err != nil {
		t.Fatalf("restored tenant unknown to the successor: %v", err)
	}
	if after.Calls != before.Calls || after.Tokens != before.Tokens {
		t.Fatalf("restored spend {%d calls, %d tokens} != drained {%d, %d}",
			after.Calls, after.Tokens, before.Calls, before.Tokens)
	}
	if after.Calls != after.BudgetCalls || after.Cost != after.BudgetDollars {
		t.Fatalf("restored ledger and budget disagree: %+v", after)
	}
	// A warm replay is upstream-free, so it fits under the exhausted cap...
	if st, err := successor.Submit(context.Background(), SubmitRequest{Tenant: "acct", Spec: toolSpec(), Tables: tables}); err != nil || st.State != JobDone {
		t.Fatalf("warm replay: err %v, state %+v", err, st)
	}
	// ...but an unseen kind needs a 4th lifetime call, which the restored
	// budget must refuse.
	over, err := successor.Submit(context.Background(), SubmitRequest{
		Tenant: "acct", Spec: toolSpec(), Tables: kindTable("sp2", 1, "widget"),
	})
	switch {
	case err != nil && errors.Is(err, workflow.ErrBudgetExhausted):
	case err == nil && over.State == JobFailed && strings.Contains(over.Error, "budget"):
	default:
		t.Fatalf("restart forgot the tenant's spend: err %v, state %+v", err, over)
	}
	if err := successor.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestJobSweep drives the collector by hand: terminal jobs past the
// retention window vanish, the cap evicts oldest-first, and a swept job
// polls as not found.
func TestJobSweep(t *testing.T) {
	srv := New(Config{Model: testOracle(), JobRetention: time.Hour, MaxJobs: 2})
	tables := kindTable("gc", 2, "tool", "toy")
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := srv.Submit(context.Background(), SubmitRequest{Tenant: "t", Spec: toolSpec(), Tables: tables})
		if err != nil || st.State != JobDone {
			t.Fatalf("run %d: err %v, state %+v", i, err, st)
		}
		ids = append(ids, st.ID)
	}
	// Within retention, the cap evicts only the oldest job.
	if n := srv.sweepJobs(time.Now()); n != 1 {
		t.Fatalf("cap sweep removed %d jobs, want 1", n)
	}
	if _, err := srv.Job(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest job survived the cap: %v", err)
	}
	for _, id := range ids[1:] {
		if _, err := srv.Job(id); err != nil {
			t.Fatalf("young job %s swept early: %v", id, err)
		}
	}
	// Past retention, everything terminal goes.
	if n := srv.sweepJobs(time.Now().Add(2 * time.Hour)); n != 2 {
		t.Fatalf("age sweep removed %d jobs, want 2", n)
	}
	if s := srv.Stats(); s.Jobs != 0 {
		t.Fatalf("%d jobs survive a full sweep", s.Jobs)
	}

	// Negative retention and cap disable collection entirely.
	keeper := New(Config{Model: testOracle(), JobRetention: -1, MaxJobs: -1})
	st, err := keeper.Submit(context.Background(), SubmitRequest{Tenant: "t", Spec: toolSpec(), Tables: tables})
	if err != nil || st.State != JobDone {
		t.Fatalf("keeper run: err %v, state %+v", err, st)
	}
	if n := keeper.sweepJobs(time.Now().Add(24 * 365 * time.Hour)); n != 0 {
		t.Fatalf("disabled sweeper still removed %d jobs", n)
	}
}

// TestSweeperStopsOnDrain is the goroutine-leak pin for the background
// collector: Drain must stop it and wait it out.
func TestSweeperStopsOnDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := New(Config{Model: testOracle(), JobRetention: 20 * time.Millisecond})
	if st, err := srv.Submit(context.Background(), SubmitRequest{
		Tenant: "t", Spec: toolSpec(), Tables: kindTable("sw", 1, "tool"),
	}); err != nil || st.State != JobDone {
		t.Fatalf("run: err %v, state %+v", err, st)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitLeak(t, before)
}

// TestCancelledJobUnderFaultsNoLeak cancels a job whose model stack has
// live fault injection, retries, and hedging: whatever mix of faulted,
// hanging, and hedged attempts is in flight, cancellation must unwind
// every goroutine and free the slot.
func TestCancelledJobUnderFaultsNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	started := make(chan struct{})
	var once sync.Once
	inner := llm.Func{ModelName: "hang", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return llm.Response{}, ctx.Err()
	}}
	srv := New(Config{
		Model: llm.WithFaults(inner, llm.FaultPlan{Seed: 11, Transient: 0.3}),
		Resilience: &resil.Policy{
			MaxAttempts: 4, BaseBackoff: time.Millisecond, HedgeAfter: 2 * time.Millisecond,
		},
	})
	st, err := srv.Submit(context.Background(), SubmitRequest{
		Tenant: "t", Spec: toolSpec(), Tables: kindTable("cf", 2, "tool", "toy"), Async: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("no attempt ever reached the upstream")
	}
	if _, err := srv.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	// Injected faults may fail the job before the cancel lands; either
	// terminal state is fine — the pin is that nothing leaks.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := srv.Job(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State.terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", got.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitLeak(t, before)
	if s := srv.Stats(); s.Running != 0 || s.Waiting != 0 {
		t.Fatalf("cancelled faulty job wedged the gate: running %d waiting %d", s.Running, s.Waiting)
	}
}

// TestQuarantinedJobCompletes wires Config.OnRecordError through to job
// execution: records poisoned by a permanent fault are quarantined, the
// job completes, and the wire result carries the count.
func TestQuarantinedJobCompletes(t *testing.T) {
	model := llm.Func{ModelName: "poison", Fn: func(_ context.Context, req llm.Request) (llm.Response, error) {
		if strings.Contains(req.Prompt, "gremlin") {
			return llm.Response{}, fmt.Errorf("%w: cursed value", llm.ErrPermanent)
		}
		return unit("Yes"), nil
	}}
	srv := New(Config{Model: model, OnRecordError: pipeline.OnRecordQuarantine})
	st, err := srv.Submit(context.Background(), SubmitRequest{
		Tenant: "t", Spec: toolSpec(), Tables: kindTable("q", 4, "tool", "gremlin"),
	})
	if err != nil || st.State != JobDone {
		t.Fatalf("quarantine run: err %v, state %+v", err, st)
	}
	if st.Result == nil || st.Result.Quarantined != 2 {
		t.Fatalf("result quarantined = %+v, want 2", st.Result)
	}
	if got := len(st.Result.Tables["keep"]); got != 2 {
		t.Fatalf("keep has %d records, want 2 (gremlins quarantined)", got)
	}
}
