package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/pipeline"
	"repro/internal/token"
	"repro/internal/workflow"
)

// testOracle is a fresh deterministic sim model with the battery's one
// predicate registered: "the kind is tool" is true exactly for the value
// "tool", with margin 1 so the oracle's noise never reaches the decision.
func testOracle() *sim.Oracle {
	o := sim.NewNamed("sim-gpt-3.5-turbo")
	o.RegisterPredicate(sim.Predicate{
		Name:  "is-tool",
		Match: func(s string) bool { return strings.Contains(s, "kind is tool") },
		Truth: func(item string) (bool, float64) { return item == "tool", 1 },
	})
	return o
}

// toolSpec filters on the predicate and tallies the keepers; the tally
// re-asks the filter's prompts, so on a shared cache it is upstream-free.
func toolSpec() pipeline.Spec {
	return pipeline.Spec{Stages: []pipeline.StageSpec{
		{Name: "keep", Kind: pipeline.KindFilter, Field: "kind", Predicate: "the kind is tool"},
		{Name: "tally", Kind: pipeline.KindCount, Field: "kind", Predicate: "the kind is tool", Strategy: "per-item"},
	}}
}

// kindTable builds a source table whose records cycle through the given
// kind values. Distinct values mean distinct unit-task prompts, so the
// upstream cost of a cold run is exactly the distinct-value count.
func kindTable(prefix string, n int, kinds ...string) map[string][]dataset.Record {
	recs := make([]dataset.Record, n)
	for i := range recs {
		recs[i] = dataset.Record{
			ID:     fmt.Sprintf("%s-%02d", prefix, i),
			Fields: []dataset.Field{{Name: "kind", Value: kinds[i%len(kinds)]}},
		}
	}
	return map[string][]dataset.Record{"source": recs}
}

// unit is a minimal billed yes-response for llm.Func test models.
func unit(text string) llm.Response {
	return llm.Response{Text: text, Model: "func",
		Usage: token.Usage{PromptTokens: 5, CompletionTokens: 1, Calls: 1}}
}

// waitLeak asserts the goroutine population returns to the baseline,
// mirroring TestStreamingCancellationNoLeak's pin.
func waitLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitState polls a job until it reaches a terminal state.
func waitState(t *testing.T, s *Server, id string, want JobState) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("job %s ended %s (err %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestConcurrentTenantsLedgerBalances is the battery's core invariant
// under load: 4 tenants × 6 concurrent submissions on one engine, where
// every tenant shares one unit task ("tool") with the others and owns two
// private ones. Whatever interleaving happens, the per-tenant attribution
// must sum exactly to the global upstream ledger, every job must
// complete, and the gate must end empty. Run with -race.
func TestConcurrentTenantsLedgerBalances(t *testing.T) {
	srv := New(Config{Model: testOracle(), MaxConcurrent: 8, MaxQueue: 64, TenantBurst: 64})
	const tenants, subs = 4, 6
	var wg sync.WaitGroup
	errs := make([]error, tenants*subs)
	for ti := 0; ti < tenants; ti++ {
		id := fmt.Sprintf("tenant-%d", ti)
		tables := kindTable(id, 8, "tool", id+"-a", id+"-b")
		for k := 0; k < subs; k++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				st, err := srv.Submit(context.Background(), SubmitRequest{
					Tenant: id, Spec: toolSpec(), Tables: tables,
				})
				if err == nil && st.State != JobDone {
					err = fmt.Errorf("job ended %s: %s", st.State, st.Error)
				}
				errs[slot] = err
			}(ti*subs + k)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	ledger, upstream, ok := srv.Balanced()
	if !ok {
		t.Fatalf("ledger {calls %d, tokens %d} does not balance upstream {calls %d, tokens %d}",
			ledger.Calls, ledger.Total(), upstream.Calls, upstream.Total())
	}
	// Re-derive the balance from the public per-tenant reports: their sum
	// must also equal the upstream truth, with every tenant's jobs counted.
	var sumCalls, sumTokens int
	for ti := 0; ti < tenants; ti++ {
		rep, err := srv.Report(fmt.Sprintf("tenant-%d", ti))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Submitted != subs || rep.Completed != subs {
			t.Fatalf("%s: submitted %d completed %d, want %d/%d", rep.Tenant, rep.Submitted, rep.Completed, subs, subs)
		}
		if rep.Calls != rep.BudgetCalls || rep.Tokens != rep.BudgetTokens {
			t.Fatalf("%s: ledger {%d calls, %d tokens} disagrees with its budget {%d, %d}",
				rep.Tenant, rep.Calls, rep.Tokens, rep.BudgetCalls, rep.BudgetTokens)
		}
		sumCalls += rep.Calls
		sumTokens += rep.Tokens
	}
	if sumCalls != upstream.Calls || sumTokens != upstream.Total() {
		t.Fatalf("per-tenant reports sum to {%d calls, %d tokens}, upstream is {%d, %d}",
			sumCalls, sumTokens, upstream.Calls, upstream.Total())
	}
	// 1 shared value + 2 private per tenant: 9 unique unit tasks, ever.
	if upstream.Calls != 1+2*tenants {
		t.Fatalf("upstream calls = %d, want %d", upstream.Calls, 1+2*tenants)
	}
	st := srv.Stats()
	if st.Running != 0 || st.Waiting != 0 {
		t.Fatalf("gate not empty after the battery: running %d waiting %d", st.Running, st.Waiting)
	}
}

// TestNoCrossTenantBudgetBleed gives tenant A a budget of exactly its own
// cold cost (3 calls) and lets tenant B spend first on disjoint prompts.
// If any of B's spend leaked into A's budget, A's run would exhaust
// mid-flight; it must complete, and each tenant's budget must equal its
// ledger line.
func TestNoCrossTenantBudgetBleed(t *testing.T) {
	srv := New(Config{Model: testOracle(), Tenants: map[string]TenantLimits{
		"capped": {Caps: TenantCaps{Calls: 3}},
	}})
	for i := 0; i < 3; i++ {
		st, err := srv.Submit(context.Background(), SubmitRequest{
			Tenant: "spender", Spec: toolSpec(),
			Tables: kindTable("sp", 6, "sp-x", "sp-y", "sp-z"),
		})
		if err != nil || st.State != JobDone {
			t.Fatalf("spender run %d: err %v, state %v", i, err, st)
		}
	}
	st, err := srv.Submit(context.Background(), SubmitRequest{
		Tenant: "capped", Spec: toolSpec(),
		Tables: kindTable("cap", 6, "tool", "cap-a", "cap-b"),
	})
	if err != nil || st.State != JobDone {
		t.Fatalf("capped tenant's exactly-affordable run failed: err %v, state %+v", err, st)
	}
	for _, id := range []string{"spender", "capped"} {
		rep, err := srv.Report(id)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Calls != 3 || rep.BudgetCalls != 3 {
			t.Fatalf("%s: ledger %d calls, budget %d calls, want 3/3 (no bleed)", id, rep.Calls, rep.BudgetCalls)
		}
	}
	// The cap is now fully consumed: one more record with an unseen kind
	// needs a 4th call, and the budget must refuse it for "capped" only.
	// The refusal lands either at admission (ErrBudgetExhausted from
	// Submit) or mid-run (a failed job whose error names the budget).
	over, err := srv.Submit(context.Background(), SubmitRequest{
		Tenant: "capped", Spec: toolSpec(), Tables: kindTable("cap2", 1, "cap-c"),
	})
	switch {
	case err != nil && errors.Is(err, workflow.ErrBudgetExhausted):
	case err == nil && over.State == JobFailed && strings.Contains(over.Error, "budget"):
	default:
		t.Fatalf("capped tenant ran past its call budget: err %v, state %+v", err, over)
	}
	if st, err := srv.Submit(context.Background(), SubmitRequest{
		Tenant: "spender", Spec: toolSpec(), Tables: kindTable("sp2", 1, "sp-w"),
	}); err != nil || st.State != JobDone {
		t.Fatalf("unlimited tenant blocked by the capped tenant's exhaustion: err %v, state %+v", err, st)
	}
}

// TestFlightsTenantNeutral runs two tenants' identical jobs at once over
// a 20 ms upstream: "capped" may make one call, "free" is unlimited. Both
// jobs ask the same eight prompts, so one tenant leads each flight and the
// other follows it. In either submission order "free" must finish: a
// leader's budget refusal is retried by its followers under their own
// budget, and a reply that crossed the leader's cap is cached and served
// to them free — only the leader is told its budget ran out.
func TestFlightsTenantNeutral(t *testing.T) {
	tables := kindTable("n", 8, "tool", "toy", "tin", "tap", "top", "tub", "tag", "tan")
	for _, first := range []string{"capped", "free"} {
		t.Run(first+"-first", func(t *testing.T) {
			srv := New(Config{Model: llm.WithLatency(testOracle(), 20*time.Millisecond),
				Tenants: map[string]TenantLimits{"capped": {Caps: TenantCaps{Calls: 1}}}})
			order := []string{first, map[string]string{"capped": "free", "free": "capped"}[first]}
			states := make(map[string]JobStatus, 2)
			var mu sync.Mutex
			var wg sync.WaitGroup
			for _, tenant := range order {
				wg.Add(1)
				go func() {
					defer wg.Done()
					st, err := srv.Submit(context.Background(), SubmitRequest{Tenant: tenant, Spec: toolSpec(), Tables: tables})
					if err != nil {
						st = &JobStatus{State: JobFailed, Error: err.Error()}
					}
					mu.Lock()
					states[tenant] = *st
					mu.Unlock()
				}()
				time.Sleep(time.Millisecond)
			}
			wg.Wait()
			if st := states["free"]; st.State != JobDone {
				t.Fatalf("free tenant's job failed on the capped tenant's budget: %+v", st)
			}
		})
	}
}

// TestFreeServesExactWithBatching pins the per-tenant free-serve split at
// Batch 4: an answer split out of an envelope the tenant's own group paid
// for is a paid serve, so a lone tenant's free serves are exactly the
// layer's cache hits plus coalesced followers.
func TestFreeServesExactWithBatching(t *testing.T) {
	layer := workflow.NewExecLayer()
	srv := New(Config{Model: testOracle(), Exec: layer, Batch: 4})
	for i := 0; i < 2; i++ {
		if st, err := srv.Submit(context.Background(), SubmitRequest{
			Tenant: "acme", Spec: toolSpec(), Tables: kindTable("f", 10, "tool", "toy", "tin", "tap", "top"),
		}); err != nil || st.State != JobDone {
			t.Fatalf("job %d: err %v, state %+v", i, err, st)
		}
	}
	rep, err := srv.Report("acme")
	if err != nil {
		t.Fatal(err)
	}
	st := layer.Stats()
	if st.Batches == 0 {
		t.Fatalf("no envelope was sent: %+v", st)
	}
	if rep.FreeServed != st.CacheHits+st.Coalesced || rep.Served-rep.FreeServed != st.CacheSize {
		t.Fatalf("report served %d, free %d; layer %+v: want free = hits + coalesced and paid = cache size",
			rep.Served, rep.FreeServed, st)
	}
}

// TestThrottleExactness pins the 429 semantics: a burst-2 bucket with a
// negligible refill admits exactly 2 of 6 submissions and refuses 4 with
// ErrRateLimited, without touching another tenant's bucket.
func TestThrottleExactness(t *testing.T) {
	srv := New(Config{Model: testOracle(), Tenants: map[string]TenantLimits{
		"free": {Rate: 1e-9, Burst: 2},
	}})
	tables := kindTable("th", 4, "tool", "toy")
	var done, throttled int
	for i := 0; i < 6; i++ {
		st, err := srv.Submit(context.Background(), SubmitRequest{Tenant: "free", Spec: toolSpec(), Tables: tables})
		switch {
		case err == nil && st.State == JobDone:
			done++
		case errors.Is(err, ErrRateLimited):
			throttled++
		default:
			t.Fatalf("submission %d: err %v, state %+v", i, err, st)
		}
	}
	if done != 2 || throttled != 4 {
		t.Fatalf("admitted %d, throttled %d; want 2 admitted, 4 throttled", done, throttled)
	}
	rep, err := srv.Report("free")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throttled != 4 || rep.Completed != 2 {
		t.Fatalf("report throttled %d completed %d, want 4/2", rep.Throttled, rep.Completed)
	}
	if st, err := srv.Submit(context.Background(), SubmitRequest{Tenant: "other", Spec: toolSpec(), Tables: tables}); err != nil || st.State != JobDone {
		t.Fatalf("default-limit tenant caught the throttled tenant's 429: err %v, state %+v", err, st)
	}
}

// TestBusyQueueFull pins the 503 path: with one slot and a one-deep
// queue, a third concurrent job is refused with ErrBusy while the queued
// one eventually runs.
func TestBusyQueueFull(t *testing.T) {
	release := make(chan struct{})
	model := llm.Func{ModelName: "slow", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		select {
		case <-release:
			return unit("Yes"), nil
		case <-ctx.Done():
			return llm.Response{}, ctx.Err()
		}
	}}
	srv := New(Config{Model: model, MaxConcurrent: 1, MaxQueue: 1})
	tables := kindTable("busy", 1, "tool")
	spec := toolSpec()

	first, err := srv.Submit(context.Background(), SubmitRequest{Tenant: "t", Spec: spec, Tables: tables, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never occupied the slot")
		}
		time.Sleep(time.Millisecond)
	}
	second, err := srv.Submit(context.Background(), SubmitRequest{Tenant: "t", Spec: spec, Tables: tables, Async: true})
	if err != nil {
		t.Fatalf("queue-depth submission refused: %v", err)
	}
	if _, err := srv.Submit(context.Background(), SubmitRequest{Tenant: "t", Spec: spec, Tables: tables, Async: true}); !errors.Is(err, ErrBusy) {
		t.Fatalf("over-queue submission: err %v, want ErrBusy", err)
	}
	close(release)
	waitState(t, srv, first.ID, JobDone)
	waitState(t, srv, second.ID, JobDone)
	rep, err := srv.Report("t")
	if err != nil {
		t.Fatal(err)
	}
	if rep.RejectedBusy != 1 || rep.Completed != 2 {
		t.Fatalf("report rejectedBusy %d completed %d, want 1/2", rep.RejectedBusy, rep.Completed)
	}
}

// TestCancelledJobNoLeak mirrors TestStreamingCancellationNoLeak for the
// service: cancelling a running job must unwind every stage goroutine and
// the job's own runner, leaving the goroutine population at its baseline
// and the slot free.
func TestCancelledJobNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	started := make(chan struct{})
	var once sync.Once
	model := llm.Func{ModelName: "hang", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return llm.Response{}, ctx.Err()
	}}
	srv := New(Config{Model: model})
	st, err := srv.Submit(context.Background(), SubmitRequest{
		Tenant: "t", Spec: toolSpec(), Tables: kindTable("c", 2, "tool", "toy"), Async: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := srv.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, srv, st.ID, JobCancelled)
	if got.Error == "" {
		t.Fatal("cancelled job carries no error")
	}
	waitLeak(t, before)
	rep, err := srv.Report("t")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cancelled != 1 {
		t.Fatalf("report cancelled = %d, want 1", rep.Cancelled)
	}
	if s := srv.Stats(); s.Running != 0 || s.Waiting != 0 {
		t.Fatalf("cancelled job wedged the gate: running %d waiting %d", s.Running, s.Waiting)
	}
}

// TestQueuedJobCancelCounted pins the tenant report for a job cancelled
// before it ever left the gate queue: it counts as cancelled exactly like
// one cancelled while running, so the report's outcomes sum to what was
// submitted.
func TestQueuedJobCancelCounted(t *testing.T) {
	before := runtime.NumGoroutine()
	started := make(chan struct{})
	var once sync.Once
	model := llm.Func{ModelName: "hang", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return llm.Response{}, ctx.Err()
	}}
	srv := New(Config{Model: model, MaxConcurrent: 1, MaxQueue: 1})
	submit := func() *JobStatus {
		st, err := srv.Submit(context.Background(), SubmitRequest{
			Tenant: "t", Spec: toolSpec(), Tables: kindTable("q", 1, "tool"), Async: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	running := submit()
	<-started
	queued := submit()
	if s := srv.Stats(); s.Running != 1 || s.Waiting != 1 {
		t.Fatalf("gate running %d waiting %d, want 1/1", s.Running, s.Waiting)
	}
	for _, id := range []string{queued.ID, running.ID} {
		if _, err := srv.Cancel(id); err != nil {
			t.Fatal(err)
		}
		waitState(t, srv, id, JobCancelled)
	}
	waitLeak(t, before)
	rep, err := srv.Report("t")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 2 || rep.Cancelled != 2 || rep.Completed != 0 || rep.Failed != 0 {
		t.Fatalf("report submitted %d completed %d failed %d cancelled %d, want 2/0/0/2",
			rep.Submitted, rep.Completed, rep.Failed, rep.Cancelled)
	}
	if s := srv.Stats(); s.Running != 0 || s.Waiting != 0 {
		t.Fatalf("cancelled jobs wedged the gate: running %d waiting %d", s.Running, s.Waiting)
	}
}

// TestFailedJobNoLeak is the same pin for a job that dies of a model
// error: failed state, error surfaced, no goroutines left, slot free.
func TestFailedJobNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	model := llm.Func{ModelName: "poison", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return llm.Response{}, fmt.Errorf("synthetic upstream failure")
	}}
	srv := New(Config{Model: model})
	st, err := srv.Submit(context.Background(), SubmitRequest{
		Tenant: "t", Spec: toolSpec(), Tables: kindTable("f", 2, "tool", "toy"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed || !strings.Contains(st.Error, "synthetic upstream failure") {
		t.Fatalf("job = %+v, want failed with the model's error", st)
	}
	waitLeak(t, before)
	rep, err := srv.Report("t")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 {
		t.Fatalf("report failed = %d, want 1", rep.Failed)
	}
	if s := srv.Stats(); s.Running != 0 || s.Waiting != 0 {
		t.Fatalf("failed job wedged the gate: running %d waiting %d", s.Running, s.Waiting)
	}
}

// TestWarmSecondSubmission pins the shared-substrate property the server
// exists for: an identical second submission must add zero upstream
// calls, and the tenant's report must show the free serves.
func TestWarmSecondSubmission(t *testing.T) {
	srv := New(Config{Model: testOracle()})
	tables := kindTable("warm", 8, "tool", "toy", "tool", "gadget")
	submit := func() *JobStatus {
		t.Helper()
		st, err := srv.Submit(context.Background(), SubmitRequest{Tenant: "t", Spec: toolSpec(), Tables: tables})
		if err != nil || st.State != JobDone {
			t.Fatalf("submit: err %v, state %+v", err, st)
		}
		return st
	}
	submit()
	cold := srv.Stats().UpstreamCalls
	if cold != 3 {
		t.Fatalf("cold run cost %d upstream calls, want 3", cold)
	}
	repBefore, _ := srv.Report("t")
	submit()
	if warm := srv.Stats().UpstreamCalls; warm != cold {
		t.Fatalf("second submission grew upstream calls %d -> %d; want unchanged", cold, warm)
	}
	repAfter, err := srv.Report("t")
	if err != nil {
		t.Fatal(err)
	}
	if repAfter.FreeServed <= repBefore.FreeServed {
		t.Fatalf("free serves did not grow on the warm run: %d -> %d", repBefore.FreeServed, repAfter.FreeServed)
	}
	if repAfter.HitShare <= 0 {
		t.Fatalf("hit share = %v, want > 0 after a warm replay", repAfter.HitShare)
	}
}

// TestDrainFlushesState covers graceful shutdown end to end: a rival
// server cannot take the live state directory, drain refuses new work,
// persists the cache log and releases the directory, and a successor
// server over it answers the same workload upstream-free.
func TestDrainFlushesState(t *testing.T) {
	dir := t.TempDir()
	tables := kindTable("st", 6, "tool", "toy", "gadget")

	srv := New(Config{Model: testOracle(), StateDir: dir})
	if err := srv.StateError(); err != nil {
		t.Fatal(err)
	}
	if st, err := srv.Submit(context.Background(), SubmitRequest{Tenant: "t", Spec: toolSpec(), Tables: tables}); err != nil || st.State != JobDone {
		t.Fatalf("cold run: err %v, state %+v", err, st)
	}
	// One writer per state directory: a second server on the live
	// directory is refused its state and runs stateless.
	rival := New(Config{Model: testOracle(), StateDir: dir})
	if err := rival.StateError(); !errors.Is(err, workflow.ErrStateLocked) {
		t.Fatalf("second server on a live state dir: StateError %v, want workflow.ErrStateLocked", err)
	}
	if err := rival.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(context.Background(), SubmitRequest{Tenant: "t", Spec: toolSpec(), Tables: tables}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submission: err %v, want ErrDraining", err)
	}
	if _, err := os.Stat(filepath.Join(dir, workflow.CacheLogName)); err != nil {
		t.Fatalf("drain left no cache log: %v", err)
	}

	successor := New(Config{Model: testOracle(), StateDir: dir})
	if err := successor.StateError(); err != nil {
		t.Fatal(err)
	}
	if st, err := successor.Submit(context.Background(), SubmitRequest{Tenant: "t", Spec: toolSpec(), Tables: tables}); err != nil || st.State != JobDone {
		t.Fatalf("warm run: err %v, state %+v", err, st)
	}
	if calls := successor.Stats().UpstreamCalls; calls != 0 {
		t.Fatalf("successor spent %d upstream calls, want 0 (warm from the drained log)", calls)
	}
	if err := successor.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitRejectsBadInput covers the ErrBadSpec surface: hostile tenant
// IDs, uncompilable specs, and missing source tables must all refuse
// before any admission state is touched.
func TestSubmitRejectsBadInput(t *testing.T) {
	srv := New(Config{Model: testOracle()})
	cases := []struct {
		name string
		req  SubmitRequest
	}{
		{"bad tenant", SubmitRequest{Tenant: "no spaces allowed", Spec: toolSpec(), Tables: kindTable("x", 1, "tool")}},
		{"empty tenant", SubmitRequest{Spec: toolSpec(), Tables: kindTable("x", 1, "tool")}},
		{"bad spec", SubmitRequest{Tenant: "t", Spec: pipeline.Spec{}, Tables: kindTable("x", 1, "tool")}},
		{"no source table", SubmitRequest{Tenant: "t", Spec: toolSpec(), Tables: map[string][]dataset.Record{"other": nil}}},
		{"unknown dataset", SubmitRequest{Tenant: "t", Spec: toolSpec()}},
	}
	for _, tc := range cases {
		if _, err := srv.Submit(context.Background(), tc.req); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: err %v, want ErrBadSpec", tc.name, err)
		}
	}
	// Spec and tenant validation both precede admission, so nothing —
	// no job, no tenant record — may exist after only refused input.
	if s := srv.Stats(); s.Jobs != 0 || s.Tenants != 0 {
		t.Fatalf("bad input left state behind: %+v", s)
	}
}

// TestTenantLatencyWindow pins the bound on a tenant's latency history:
// after latencyWindow + k completed jobs the tenant keeps latencyWindow
// wall clocks, and its report's percentiles are those of the last
// latencyWindow jobs.
func TestTenantLatencyWindow(t *testing.T) {
	srv := New(Config{Model: testOracle()})
	if st, err := srv.Submit(context.Background(), SubmitRequest{
		Tenant: "acme", Spec: toolSpec(), Tables: kindTable("f", 2, "tool", "toy"),
	}); err != nil || st.State != JobDone {
		t.Fatalf("err %v, state %+v", err, st)
	}
	srv.mu.RLock()
	tn := srv.tenants["acme"]
	srv.mu.RUnlock()
	const k = 300
	tn.mu.Lock()
	walls := slices.Clone(tn.latencies)
	for i := range latencyWindow + k {
		// Scrambled, so the oldest jobs hold the extremes the window drops.
		wall := time.Duration((i*7919)%5003+1) * time.Microsecond
		if i < k {
			wall = time.Hour + time.Duration(i)
		}
		tn.complete(wall)
		walls = append(walls, wall)
	}
	held := len(tn.latencies)
	tn.mu.Unlock()
	if held != latencyWindow {
		t.Fatalf("the tenant holds %d latencies after %d completed jobs, want %d", held, len(walls), latencyWindow)
	}
	rep, err := srv.Report("acme")
	if err != nil {
		t.Fatal(err)
	}
	last := slices.Clone(walls[len(walls)-latencyWindow:])
	slices.Sort(last)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	want := [3]float64{ms(last[(latencyWindow-1)*50/100]), ms(last[(latencyWindow-1)*95/100]), ms(last[latencyWindow-1])}
	if got := [3]float64{rep.LatencyP50MS, rep.LatencyP95MS, rep.LatencyMaxMS}; got != want || rep.Completed != len(walls) {
		t.Fatalf("report p50/p95/max %v ms over %d completed jobs, want %v over %d", got, rep.Completed, want, len(walls))
	}
}
