package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/resil"
	"repro/internal/workflow"
)

// poisonOn fails every call whose prompt mentions any of the given
// flavor names with a permanent fault; everything else answers "Yes".
func poisonOn(names ...string) llm.Func {
	return llm.Func{ModelName: "poison", Fn: func(_ context.Context, req llm.Request) (llm.Response, error) {
		for _, n := range names {
			if strings.Contains(req.Prompt, n) {
				return llm.Response{}, fmt.Errorf("%w: bad record", llm.ErrPermanent)
			}
		}
		return unit("Yes"), nil
	}}
}

func filterSpec(t *testing.T) *Pipeline {
	t.Helper()
	p, err := Compile(Spec{Stages: []StageSpec{
		{Name: "keep", Kind: KindFilter, Predicate: "p"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestQuarantineIsolatesPoisonedRecords(t *testing.T) {
	poisoned := dataset.FlavorNames()[2]
	p := filterSpec(t)
	res, err := p.Run(context.Background(), ExecConfig{
		Model:         poisonOn(poisoned),
		Parallelism:   1,
		OnRecordError: OnRecordQuarantine,
	}, flavorTables(6))
	if err != nil {
		t.Fatalf("quarantine run failed: %v", err)
	}
	if res.Quarantined != 1 || res.Skipped != 0 {
		t.Fatalf("quarantined %d skipped %d, want 1/0", res.Quarantined, res.Skipped)
	}
	var keep StageReport
	for _, s := range res.Stages {
		if s.Name == "keep" {
			keep = s
		}
	}
	if keep.Quarantined != 1 {
		t.Fatalf("stage quarantined = %d, want 1", keep.Quarantined)
	}
	if len(keep.QuarantineErrors) != 1 || !strings.Contains(keep.QuarantineErrors[0], "bad record") {
		t.Fatalf("quarantine evidence missing: %q", keep.QuarantineErrors)
	}
	if got := len(res.Tables["keep"]); got != 5 {
		t.Fatalf("output %d records, want 5 (6 in, 1 quarantined)", got)
	}
	for _, r := range res.Tables["keep"] {
		if v, _ := r.Get("name"); v == poisoned {
			t.Fatalf("poisoned record %q leaked into the output", poisoned)
		}
	}
}

func TestSkipModeDropsSilently(t *testing.T) {
	p := filterSpec(t)
	res, err := p.Run(context.Background(), ExecConfig{
		Model:         poisonOn(dataset.FlavorNames()[1], dataset.FlavorNames()[4]),
		Parallelism:   1,
		OnRecordError: OnRecordSkip,
	}, flavorTables(6))
	if err != nil {
		t.Fatalf("skip run failed: %v", err)
	}
	if res.Skipped != 2 || res.Quarantined != 0 {
		t.Fatalf("skipped %d quarantined %d, want 2/0", res.Skipped, res.Quarantined)
	}
	for _, s := range res.Stages {
		if len(s.QuarantineErrors) != 0 {
			t.Fatalf("skip mode kept error evidence: %q", s.QuarantineErrors)
		}
	}
	if got := len(res.Tables["keep"]); got != 4 {
		t.Fatalf("output %d records, want 4", got)
	}
}

func TestRecordErrorDefaultsToFailFast(t *testing.T) {
	p := filterSpec(t)
	_, err := p.Run(context.Background(), ExecConfig{
		Model: poisonOn(dataset.FlavorNames()[2]), Parallelism: 1,
	}, flavorTables(6))
	if err == nil || !strings.Contains(err.Error(), "bad record") {
		t.Fatalf("default mode did not fail fast: %v", err)
	}
	if _, err := p.Run(context.Background(), ExecConfig{
		Model: poisonOn(), OnRecordError: "explode",
	}, flavorTables(2)); err == nil || !strings.Contains(err.Error(), "unknown OnRecordError") {
		t.Fatalf("bad mode accepted: %v", err)
	}
}

func TestBarrierStageFailsFastUnderQuarantine(t *testing.T) {
	// A sort is a barrier: its answer depends on the whole table, so
	// degraded mode must not absorb its failure.
	model := llm.Func{ModelName: "m", Fn: func(_ context.Context, req llm.Request) (llm.Response, error) {
		if strings.Contains(req.Prompt, "rate the following item") {
			return llm.Response{}, fmt.Errorf("%w: ranking down", llm.ErrPermanent)
		}
		return unit("Yes"), nil
	}}
	p, err := Compile(Spec{Stages: []StageSpec{
		{Name: "keep", Kind: KindFilter, Predicate: "p"},
		{Name: "rank", Kind: KindSort, Field: "name", Criterion: "c", Strategy: "rating"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(context.Background(), ExecConfig{
		Model: model, Parallelism: 1, OnRecordError: OnRecordQuarantine,
	}, flavorTables(4))
	if err == nil || !strings.Contains(err.Error(), "ranking down") {
		t.Fatalf("barrier failure absorbed by quarantine: %v", err)
	}
}

func TestBudgetExhaustionNotQuarantined(t *testing.T) {
	p := filterSpec(t)
	budget := workflow.NewBudget(0, 2, 0) // two tokens: the first call exhausts it
	_, err := p.Run(context.Background(), ExecConfig{
		Model: poisonOn(), Budget: budget, Parallelism: 1,
		OnRecordError: OnRecordQuarantine,
	}, flavorTables(6))
	if err == nil || !errors.Is(err, workflow.ErrBudgetExhausted) {
		t.Fatalf("budget exhaustion under quarantine: %v, want ErrBudgetExhausted", err)
	}
}

// TestResilienceHealsTransientFaults: a policy below the cache retries
// transient faults away; the run succeeds, attribution counts each
// logical call once, and the physical retries surface in the ledger's
// resilience counters.
func TestResilienceHealsTransientFaults(t *testing.T) {
	var mu sync.Mutex
	attempts := map[string]int{}
	inner := llm.Func{ModelName: "flaky", Fn: func(_ context.Context, req llm.Request) (llm.Response, error) {
		mu.Lock()
		attempts[req.Prompt]++
		n := attempts[req.Prompt]
		mu.Unlock()
		if n <= 2 {
			return llm.Response{}, fmt.Errorf("%w: warming up", llm.ErrTransient)
		}
		return unit("Yes"), nil
	}}
	p := filterSpec(t)
	attr := workflow.NewAttribution()
	res, err := p.Run(context.Background(), ExecConfig{
		Model:       inner,
		Attribution: attr,
		Parallelism: 1,
		Resilience:  &resil.Policy{MaxAttempts: 3, BaseBackoff: time.Microsecond},
	}, flavorTables(4))
	if err != nil {
		t.Fatalf("resilient run failed: %v", err)
	}
	if res.Resilience.Retries == 0 {
		t.Fatal("no retries recorded despite transient faults")
	}
	if got := attr.Resilience(); got != res.Resilience {
		t.Fatalf("ledger resilience %+v != result %+v", got, res.Resilience)
	}
	// Attribution still sums exactly: per-stage usage == run total, and
	// the logical call count is one per distinct ask (4 records), not one
	// per physical attempt (12).
	var sum int
	for _, s := range res.Stages {
		sum += s.Usage.Calls
	}
	if sum != res.Usage.Calls {
		t.Fatalf("stage calls %d != total %d", sum, res.Usage.Calls)
	}
	if res.Usage.Calls != 4 {
		t.Fatalf("logical calls = %d, want 4 (retries must not be billed)", res.Usage.Calls)
	}
	if len(res.Tables["keep"]) != 4 {
		t.Fatalf("output %d records, want 4", len(res.Tables["keep"]))
	}
}

// TestFaultlessRunByteIdentical: with a zero fault plan and a live
// resilience policy, results are byte-identical to a bare run — the
// wrappers are no-ops when nothing fires.
func TestFaultlessRunByteIdentical(t *testing.T) {
	run := func(wrap bool) *Result {
		p := filterSpec(t)
		model := llm.Model(llm.Func{ModelName: "plain", Fn: func(_ context.Context, req llm.Request) (llm.Response, error) {
			return unit("Yes"), nil
		}})
		cfg := ExecConfig{Model: model, Parallelism: 1}
		if wrap {
			cfg.Model = llm.WithFaults(model, llm.FaultPlan{})
			cfg.Resilience = &resil.Policy{MaxAttempts: 3, BreakerThreshold: 5, HedgeAfter: time.Hour}
			cfg.OnRecordError = OnRecordQuarantine
		}
		res, err := p.Run(context.Background(), cfg, flavorTables(6))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, wrapped := run(false), run(true)
	if !wrapped.Resilience.Zero() || wrapped.Quarantined != 0 || wrapped.Skipped != 0 {
		t.Fatalf("faultless wrapped run reported activity: %+v q=%d s=%d",
			wrapped.Resilience, wrapped.Quarantined, wrapped.Skipped)
	}
	if fmt.Sprint(plain.Tables["keep"]) != fmt.Sprint(wrapped.Tables["keep"]) {
		t.Fatal("faultless wrapped tables differ from bare run")
	}
	if plain.Usage != wrapped.Usage {
		t.Fatalf("usage differs: %+v vs %+v", plain.Usage, wrapped.Usage)
	}
}

// TestBreakerOpenAbortsNotQuarantines: an open breaker poisons every
// record, so quarantine mode must abort instead of dropping the stream
// record by record.
func TestBreakerOpenAbortsNotQuarantines(t *testing.T) {
	inner := llm.Func{ModelName: "down", Fn: func(context.Context, llm.Request) (llm.Response, error) {
		return llm.Response{}, fmt.Errorf("%w: outage", llm.ErrTransient)
	}}
	p := filterSpec(t)
	res, err := p.Run(context.Background(), ExecConfig{
		Model: inner, Parallelism: 1,
		Resilience:    &resil.Policy{MaxAttempts: 1, BreakerThreshold: 1, BreakerCooldown: time.Minute},
		OnRecordError: OnRecordQuarantine,
	}, flavorTables(6))
	if err == nil {
		t.Fatalf("run absorbed a full outage: quarantined %d", res.Quarantined)
	}
	if !errors.Is(err, resil.ErrBreakerOpen) && !errors.Is(err, llm.ErrTransient) {
		t.Fatalf("unexpected error: %v", err)
	}
}
