package core

import (
	"context"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
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
	e, ctx := unitTaskEngine(func(string) string { return "yes" })
	return e.newSession().model, ctx
}

// unitTaskEngine is unitTaskChain's wiring as an engine, over an upstream
// that answers each prompt with answer(prompt).
func unitTaskEngine(answer func(prompt string) string) (*Engine, context.Context) {
	upstream := llm.Func{ModelName: "sim-gpt-3.5-turbo", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return llm.Response{Text: answer(req.Prompt), Model: "sim-gpt-3.5-turbo",
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
	return e, ctx
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

// TestWarmAskAllocs pins a warm unit task from the record to the parsed
// answer at zero allocations, for every per-record ask a job makes: the
// prompt is rendered into a pooled buffer, the cache is probed with those
// bytes, and the answer is parsed out of the cached response.
func TestWarmAskAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	e, ctx := unitTaskEngine(func(p string) string {
		switch {
		case strings.HasPrefix(p, "Assign"):
			return "cafe"
		case strings.HasPrefix(p, "On a scale"):
			return "5"
		case strings.HasPrefix(p, "Fill in"):
			return "Berkeley."
		case strings.HasPrefix(p, "Are Citation"):
			return "No, they differ."
		}
		return "Yes"
	})
	filter, err := e.PrepareFilter(FilterRequest{Predicate: "the restaurant sounds casual"})
	if err != nil {
		t.Fatal(err)
	}
	categorize, err := e.PrepareCategorize([]string{"diner", "cafe", "grill"})
	if err != nil {
		t.Fatal(err)
	}
	impute, err := e.PrepareImpute(ImputeRequest{TargetField: "city", Strategy: ImputeLLM})
	if err != nil {
		t.Fatal(err)
	}
	s := e.newSession()
	rec := dataset.Record{ID: "r1", Fields: []dataset.Field{
		{Name: "name", Value: "Joe's Diner"}, {Name: "addr", Value: "12 3rd Ave"}, {Name: "city", Value: "?"}}}
	left, right := Entity{ID: "a", Text: "Joe's Diner, 12 3rd Ave"}, Entity{ID: "b", Text: "Joes Diner, 12 Third Avenue"}

	// Each ask reports its answer as a string, which for these answers
	// costs no allocation of its own (a constant, a substring of the cached
	// response, a small integer).
	yesNo := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, op := range []struct {
		name, want string
		ask        func() (string, error)
	}{
		{"filter", "yes", func() (string, error) { a, err := filter.Ask(ctx, "Joe's Diner"); return yesNo(a.Keep), err }},
		{"categorize", "cafe", func() (string, error) { return categorize.Ask(ctx, "Joe's Diner") }},
		{"rating", "5", func() (string, error) {
			r, err := e.rateOnce(ctx, s, "Joe's Diner", "how upscale it is", 7)
			return strconv.Itoa(r), err
		}},
		{"impute", "Berkeley", func() (string, error) { a, err := impute.Ask(ctx, rec); return a.Value, err }},
		{"match", "no", func() (string, error) { m, err := e.matchOnce(ctx, s, left, right); return yesNo(m), err }},
	} {
		got, err := op.ask() // cold: fills the cache
		if err != nil || got != op.want {
			t.Fatalf("%s: got %q, %v; want %q", op.name, got, err, op.want)
		}
		if n := testing.AllocsPerRun(100, func() { warmAskSink, warmAskErr = op.ask() }); n != 0 {
			t.Errorf("warm %s ask allocates %v times, want 0", op.name, n)
		}
		if warmAskErr != nil || warmAskSink != op.want {
			t.Fatalf("warm %s: got %q, %v; want %q", op.name, warmAskSink, warmAskErr, op.want)
		}
	}
}

var (
	warmAskSink string
	warmAskErr  error
)

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

// TestCountPerItemAllocs pins that a per-item Count is the Filter it runs
// and nothing more: over the same items and predicate, with every answer
// cached, it allocates no more than that Filter does. A session of its
// own, opened and never used, was 24 allocations more.
func TestCountPerItemAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins skip under the race detector")
	}
	e := newEngine(t, "sim-gpt-3.5-turbo")
	items := dataset.FlavorNames()
	const pred = "it is a chocolatey flavor"
	filter := func() {
		if _, err := e.Filter(ctx(), FilterRequest{Items: items, Predicate: pred, Strategy: FilterPerItem}); err != nil {
			t.Fatal(err)
		}
	}
	count := func() {
		if _, err := e.Count(ctx(), CountRequest{Items: items, Predicate: pred, Strategy: CountPerItem}); err != nil {
			t.Fatal(err)
		}
	}
	filter() // every answer cached from here on
	f, c := testing.AllocsPerRun(20, filter), testing.AllocsPerRun(20, count)
	if c > f {
		t.Errorf("a per-item Count allocates %.0f times, the same Filter %.0f", c, f)
	}
	t.Logf("per-item Count %.0f allocations, Filter %.0f", c, f)
}
