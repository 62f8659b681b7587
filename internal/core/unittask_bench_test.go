package core

import (
	"context"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/llm"
	"repro/internal/resil"
	"repro/internal/token"
	"repro/internal/workflow"
)

// serveCounter is a minimal workflow.ServeObserver, standing in for the
// server's per-tenant serve split.
type serveCounter struct{ served, free atomic.Int64 }

func (c *serveCounter) ObserveServe(ctx context.Context, free bool) {
	if workflow.TenantTag(ctx) == "" {
		return
	}
	c.served.Add(1)
	if free {
		c.free.Add(1)
	}
}

// unitTaskChain builds the model one operator of a declserver job asks
// through, wired the way server.New and the pipeline runtime wire it —
// shared layer (with a serve observer), the job's meter (tenant budget,
// job ledger forwarding to the tenant ledger), the upstream counter, the
// resilience wrapper — over an upstream that answers a constant. The
// context carries a tenant and a stage tag, as every job's asks do.
func unitTaskChain() (llm.Model, context.Context) {
	upstream := llm.Func{ModelName: "sim-gpt-3.5-turbo", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return llm.Response{Text: "yes", Model: "sim-gpt-3.5-turbo",
			Usage: token.Usage{PromptTokens: 12, CompletionTokens: 1, Calls: 1}}, nil
	}}
	counting := llm.NewCounting(resil.Wrap(upstream, resil.Policy{MaxAttempts: 4}))
	layer := workflow.NewExecLayer()
	layer.SetServeObserver(&serveCounter{})
	tenants := workflow.NewAttribution()
	e := New(counting,
		WithBudget(workflow.Unlimited()),
		WithAttribution(tenants.Child("tenant")),
		WithExecutionLayer(layer))
	ctx := workflow.TagStage(workflow.TagTenant(context.Background(), "tenant"), "stage")
	return e.newSession().model, ctx
}

// TestUnitTaskAllocs pins the chain's allocations, which need no clock:
// a warm ask allocates nothing and a cold ask against a free upstream at
// most 3 (leading a flight and publishing the answer; cache growth
// amortises below one). These are the allocs/op BenchmarkUnitTaskHit and
// BenchmarkUnitTaskMiss print, asserted — a span, closure or context
// value added to either path fails here instead of reading as noise.
func TestUnitTaskAllocs(t *testing.T) {
	m, ctx := unitTaskChain()
	ask := func(req llm.Request) {
		resp, err := m.Complete(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		unitTaskSink = resp
	}

	warm := llm.Request{Prompt: "is record 7 a tool? answer yes or no\n"}
	ask(warm)
	if got := testing.AllocsPerRun(200, func() { ask(warm) }); got != 0 {
		t.Errorf("warm ask allocates %v times, want 0", got)
	}

	// AllocsPerRun calls the function once more than it counts.
	const runs = 200
	cold := make([]llm.Request, runs+1)
	for i := range cold {
		cold[i].Prompt = "is record " + strconv.Itoa(1000+i) + " a tool? answer yes or no\n"
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() { ask(cold[next]); next++ }); got > 3 {
		t.Errorf("cold ask allocates %v times, want at most 3", got)
	}
}

var unitTaskSink llm.Response

// BenchmarkUnitTaskHit is one warm unit ask through the server's chain:
// what a job on a warm cache pays per record and stage.
func BenchmarkUnitTaskHit(b *testing.B) {
	m, ctx := unitTaskChain()
	req := llm.Request{Prompt: "is record 7 a tool? answer yes or no\n"}
	if _, err := m.Complete(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := m.Complete(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		unitTaskSink = resp
	}
}

// BenchmarkUnitTaskMiss is one cold unit ask through the server's chain
// against a free upstream: the chain's own overhead on a miss (admission,
// flight, settlement, publish).
func BenchmarkUnitTaskMiss(b *testing.B) {
	m, ctx := unitTaskChain()
	reqs := make([]llm.Request, b.N)
	for i := range reqs {
		reqs[i].Prompt = "is record " + strconv.Itoa(i) + " a tool? answer yes or no\n"
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := m.Complete(ctx, reqs[i])
		if err != nil {
			b.Fatal(err)
		}
		unitTaskSink = resp
	}
}
