package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/workflow"
)

// post submits raw JSON and returns the response code and decoded body.
func post(t *testing.T, ts *httptest.Server, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func do(t *testing.T, ts *httptest.Server, method, path string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// TestHTTPLifecycle drives the wire surface end to end: sync submit
// (200), async submit (202) polled to done, tenant report, stats, and
// health.
func TestHTTPLifecycle(t *testing.T) {
	srv := New(Config{Model: testOracle()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tables := kindTable("http", 8, "tool", "toy", "tool", "gadget")

	// Sync submit completes inline with the result attached.
	raw, _ := json.Marshal(SubmitRequest{Tenant: "t", Spec: toolSpec(), Tables: tables})
	code, body := post(t, ts, "/v1/pipelines", raw)
	if code != http.StatusOK {
		t.Fatalf("sync submit: %d %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Result == nil || st.Result.Tables["keep"] == nil {
		t.Fatalf("sync job = %+v, want done with a keep table", st)
	}
	if got := st.Result.Scalars["tally"]; got != "4" {
		t.Fatalf("tally = %q, want 4", got)
	}

	// Async submit returns 202 immediately; poll the job to done.
	raw, _ = json.Marshal(SubmitRequest{Tenant: "t", Spec: toolSpec(), Tables: tables, Async: true})
	code, body = post(t, ts, "/v1/pipelines", raw)
	if code != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body = do(t, ts, "GET", "/v1/jobs/"+st.ID)
		if code != http.StatusOK {
			t.Fatalf("poll: %d %s", code, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("async job stuck in %s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != JobDone {
		t.Fatalf("async job ended %s: %s", st.State, st.Error)
	}

	// Tenant report over the wire.
	code, body = do(t, ts, "GET", "/v1/tenants/t/report")
	if code != http.StatusOK {
		t.Fatalf("report: %d %s", code, body)
	}
	var rep TenantReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 || rep.Calls != 3 {
		t.Fatalf("report = %+v, want 2 completed at 3 upstream calls", rep)
	}
	if rep.FreeServed == 0 || rep.HitShare <= 0 {
		t.Fatalf("report shows no free serves after a warm replay: %+v", rep)
	}

	// Stats and health.
	code, body = do(t, ts, "GET", "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var stats Stats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Balanced || stats.UpstreamCalls != 3 {
		t.Fatalf("stats = %+v, want balanced at 3 upstream calls", stats)
	}
	if code, _ = do(t, ts, "GET", "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
}

// TestHTTPStatusMapping drives the refusals reachable over the wire:
// 400 for malformed and invalid submissions, 413 for a body over the
// limit, 404 for unknown jobs and
// tenants, 429 for throttled tenants, and a mid-run budget exhaustion
// reported in the job; TestStatusForMapping pins the rest of the table.
func TestHTTPStatusMapping(t *testing.T) {
	srv := New(Config{Model: testOracle(), MaxConcurrent: 4, MaxQueue: 0, Tenants: map[string]TenantLimits{
		"free":   {Rate: 1e-9, Burst: 1},
		"broke":  {Caps: TenantCaps{Calls: 1}},
		"normal": {Burst: 64},
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tables := kindTable("map", 4, "tool", "toy")
	body := func(req SubmitRequest) []byte {
		raw, _ := json.Marshal(req)
		return raw
	}

	if code, b := post(t, ts, "/v1/pipelines", []byte("{not json")); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d %s", code, b)
	} else if !strings.Contains(string(b), "invalid_request_error") {
		t.Fatalf("malformed JSON error envelope: %s", b)
	}
	// One byte over the limit, valid JSON up to there: the size is what is
	// refused, and by name.
	oversize := append([]byte(`{"tenant":"normal","pad":"`), bytes.Repeat([]byte("a"), maxBodyBytes)...)
	if code, b := post(t, ts, "/v1/pipelines", oversize); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: %d %s, want 413", code, b)
	} else if !strings.Contains(string(b), "request_too_large") {
		t.Fatalf("413 envelope: %s", b)
	}
	if code, b := post(t, ts, "/v1/pipelines", body(SubmitRequest{Tenant: "no way", Spec: toolSpec(), Tables: tables})); code != http.StatusBadRequest {
		t.Fatalf("hostile tenant ID: %d %s", code, b)
	}
	if code, b := post(t, ts, "/v1/pipelines", body(SubmitRequest{Tenant: "t", Tables: tables})); code != http.StatusBadRequest {
		t.Fatalf("empty spec: %d %s", code, b)
	}
	if code, b := do(t, ts, "GET", "/v1/jobs/job-999999"); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d %s", code, b)
	}
	if code, b := do(t, ts, "GET", "/v1/tenants/ghost/report"); code != http.StatusNotFound {
		t.Fatalf("unknown tenant: %d %s", code, b)
	}

	// Throttled: burst 1 admits the first, bounces the second with 429.
	if code, b := post(t, ts, "/v1/pipelines", body(SubmitRequest{Tenant: "free", Spec: toolSpec(), Tables: tables})); code != http.StatusOK {
		t.Fatalf("free tenant's first submission: %d %s", code, b)
	}
	if code, b := post(t, ts, "/v1/pipelines", body(SubmitRequest{Tenant: "free", Spec: toolSpec(), Tables: tables})); code != http.StatusTooManyRequests {
		t.Fatalf("free tenant's burst overflow: %d %s, want 429", code, b)
	} else if !strings.Contains(string(b), "rate_limit_error") {
		t.Fatalf("429 envelope: %s", b)
	}

	// Budget: a 1-call cap on a run that needs several genuine upstream
	// calls (fresh tables, so the shared cache cannot absorb them) fails
	// mid-run; the sync response is still 200 — the submission was
	// admitted — with the exhaustion reported in the job itself.
	code, b := post(t, ts, "/v1/pipelines", body(SubmitRequest{Tenant: "broke", Spec: toolSpec(), Tables: kindTable("brk", 4, "brk-a", "brk-b", "brk-c", "brk-d")}))
	if code != http.StatusOK {
		t.Fatalf("over-budget run: %d %s", code, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed || !strings.Contains(st.Error, "budget") {
		t.Fatalf("over-budget run = %+v, want a failed job naming the budget", st)
	}

	// Normal tenant is unaffected by its neighbours' refusals.
	if code, b := post(t, ts, "/v1/pipelines", body(SubmitRequest{Tenant: "normal", Spec: toolSpec(), Tables: tables})); code != http.StatusOK {
		t.Fatalf("normal tenant: %d %s", code, b)
	}
}

// TestStatusForMapping pins the error→wire translation table, including
// the budget (402) and drain (503) arms the lifecycle tests cannot reach
// deterministically (whether a job's spend reaches its cap, and by how
// much it passes it, depends on how many asks were in flight when it did:
// the meter's admission reserves nothing, so each of them may pass it).
func TestStatusForMapping(t *testing.T) {
	cases := []struct {
		err  error
		code int
		typ  string
	}{
		{fmt.Errorf("spec: %w", ErrBadSpec), http.StatusBadRequest, "invalid_request_error"},
		{fmt.Errorf("tenant: %w", ErrRateLimited), http.StatusTooManyRequests, "rate_limit_error"},
		{fmt.Errorf("tenant: %w", workflow.ErrBudgetExhausted), http.StatusPaymentRequired, "budget_exhausted_error"},
		{ErrBusy, http.StatusServiceUnavailable, "overloaded_error"},
		{ErrDraining, http.StatusServiceUnavailable, "overloaded_error"},
		{fmt.Errorf("job: %w", ErrNotFound), http.StatusNotFound, "not_found_error"},
		{errors.New("disk on fire"), http.StatusInternalServerError, "server_error"},
	}
	for _, tc := range cases {
		if code, typ := statusFor(tc.err); code != tc.code || typ != tc.typ {
			t.Errorf("statusFor(%v) = %d %q, want %d %q", tc.err, code, typ, tc.code, tc.typ)
		}
	}
}

// TestHostileNeighborCounts: an impute stage's neighbour count comes
// straight from the submission. A negative one used to panic inside a
// per-record worker goroutine and a huge one to exhaust memory sizing a
// heap — either took the whole service down. Both must now be answered
// (refused, failed or completed — never a crash), and the server must
// serve the next job.
func TestHostileNeighborCounts(t *testing.T) {
	ts := httptest.NewServer(New(Config{Model: testOracle()}).Handler())
	defer ts.Close()
	for _, body := range hostileNeighborBodies {
		code, b := post(t, ts, "/v1/pipelines", []byte(body))
		if code != http.StatusOK && code != http.StatusBadRequest {
			t.Fatalf("%s: answered %d %s", body, code, b)
		}
		if code == http.StatusOK {
			var st JobStatus
			if err := json.Unmarshal(b, &st); err != nil || (st.State != JobDone && st.State != JobFailed) {
				t.Fatalf("%s: job %s (%v)", body, b, err)
			}
		}
	}
	raw, _ := json.Marshal(SubmitRequest{Tenant: "t", Spec: toolSpec(), Tables: kindTable("next", 4, "tool", "toy")})
	code, b := post(t, ts, "/v1/pipelines", raw)
	var st JobStatus
	if err := json.Unmarshal(b, &st); code != http.StatusOK || err != nil || st.State != JobDone {
		t.Fatalf("the job after the hostile ones: %d %s", code, b)
	}
}

// hostileNeighborBodies are k-NN impute submissions whose neighbour count
// is negative or far beyond any table (also FuzzServerSpecSubmit seeds).
var hostileNeighborBodies = func() []string {
	const tables = `"tables":{"source":[{"ID":"q","Fields":[{"Name":"kind","Value":"tool"}]}],` +
		`"train":[{"ID":"a","Fields":[{"Name":"kind","Value":"tool"},{"Name":"city","Value":"x"}]},` +
		`{"ID":"b","Fields":[{"Name":"kind","Value":"toy"},{"Name":"city","Value":"y"}]}]}`
	spec := func(neighbors string) string {
		return `{"tenant":"t","spec":{"stages":[{"name":"fill","kind":"impute","target_field":"city","strategy":"knn","neighbors":` +
			neighbors + `}]},` + tables + `}`
	}
	return []string{spec("-3"), spec("1099511627776")}
}()
