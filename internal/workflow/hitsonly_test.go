package workflow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/llm"
	"repro/internal/token"
)

// tenantServes is a ServeObserver that counts serves per tenant tag.
type tenantServes struct {
	mu           sync.Mutex
	served, free map[string]int
}

func newTenantServes() *tenantServes {
	return &tenantServes{served: map[string]int{}, free: map[string]int{}}
}

func (o *tenantServes) ObserveServe(ctx context.Context, free bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.served[TenantTag(ctx)]++
	if free {
		o.free[TenantTag(ctx)]++
	}
}

func (o *tenantServes) counts(tenant string) (served, free int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.served[tenant], o.free[tenant]
}

// TestHitsOnlySettlesOnce pins the hits-only probe's accounting. Under a
// HitsOnly context a hit is served free and a miss ends in ErrNotCached
// before the upstream, a flight, the meter or the budget sees it. Hits are
// counted — in the cache's hits and to the ServeObserver, with the context
// Settle is given — only when the probed work settles served; work that hit
// and then missed leaves no trace. Concurrent probes, one per goroutine,
// beside plain asks on the same layer, count every hit exactly once.
func TestHitsOnlySettlesOnce(t *testing.T) {
	var upstreamCalls atomic.Int64
	upstream := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		upstreamCalls.Add(1)
		return llm.Response{Text: "echo:" + req.Prompt, Model: "m", Usage: token.Usage{PromptTokens: 3, Calls: 1}}, nil
	}}
	budget := Unlimited()
	meter := NewMeter(upstream, budget, nil)
	layer := NewExecLayer()
	obs := newTenantServes()
	layer.SetServeObserver(obs)
	m := layer.Wrap(meter)
	bm := m.(llm.ByteCompleter)

	ctx := context.Background()
	prompts := []string{"p0", "p1", "p2"}
	for _, p := range prompts {
		if _, err := m.Complete(ctx, llm.Request{Prompt: p}); err != nil {
			t.Fatal(err)
		}
	}
	type snapshot struct {
		stats              ExecStats
		calls              int64
		usage, spent       token.Usage
		served, free       int
		recServed, recFree int
	}
	snap := func() snapshot {
		spent, _ := budget.Spent()
		s := snapshot{stats: layer.Stats(), calls: upstreamCalls.Load(), usage: meter.Usage(), spent: spent}
		s.served, s.free = obs.counts("")
		s.recServed, s.recFree = obs.counts("record")
		return s
	}
	recCtx := TagTenant(ctx, "record")

	// Two hits, one through each entrance, then a miss: the probe must
	// leave no trace anywhere.
	before := snap()
	pctx, probe := HitsOnly(ctx)
	for i, ask := range []func(string) (llm.Response, error){
		func(p string) (llm.Response, error) { return m.Complete(pctx, llm.Request{Prompt: p}) },
		func(p string) (llm.Response, error) { return bm.CompleteBytes(pctx, []byte(p), llm.Request{}) },
	} {
		resp, err := ask(prompts[i])
		if err != nil || resp.Text != "echo:"+prompts[i] || !resp.Usage.IsZero() {
			t.Fatalf("probed hit %q: %q, usage %+v, %v; want a free hit", prompts[i], resp.Text, resp.Usage, err)
		}
	}
	if got := snap(); got != before {
		t.Fatalf("probed hits were counted before the probe settled:\nbefore %+v\nafter  %+v", before, got)
	}
	_, missErr := bm.CompleteBytes(pctx, []byte("cold"), llm.Request{})
	if !errors.Is(missErr, ErrNotCached) {
		t.Fatalf("probed miss returned %v, want ErrNotCached", missErr)
	}
	if _, err := m.Complete(pctx, llm.Request{Prompt: "cold too"}); !errors.Is(err, ErrNotCached) {
		t.Fatalf("probed miss through Complete returned %v, want ErrNotCached", err)
	}
	if probe.Settle(recCtx, fmt.Errorf("record r: %w", missErr)) {
		t.Fatal("a probe that missed settled as served")
	}
	if got := snap(); got != before {
		t.Fatalf("a probe that hit twice and missed left a trace:\nbefore %+v\nafter  %+v", before, got)
	}

	// All hits: counted once, as free serves under the record's context.
	for _, p := range prompts {
		if _, err := bm.CompleteBytes(pctx, []byte(p), llm.Request{}); err != nil {
			t.Fatal(err)
		}
	}
	if !probe.Settle(recCtx, nil) {
		t.Fatal("a probe that only hit did not settle as served")
	}
	got := snap()
	want := before
	want.stats.CacheHits += len(prompts)
	want.recServed += len(prompts)
	want.recFree += len(prompts)
	if got != want {
		t.Fatalf("settled probe counted\n%+v\nwant\n%+v", got, want)
	}

	// An outcome other than the miss is what the real asks would have
	// returned, so its hits count too.
	if _, err := m.Complete(pctx, llm.Request{Prompt: "p0"}); err != nil {
		t.Fatal(err)
	}
	if !probe.Settle(recCtx, errors.New("unparseable answer")) {
		t.Fatal("a probe that failed on its own settled as a miss")
	}
	if got := layer.Stats().CacheHits; got != want.stats.CacheHits+1 {
		t.Fatalf("cache hits %d after a failed probe's one hit, want %d", got, want.stats.CacheHits+1)
	}

	// A probe answers from one layer only: a hit from a second layer's cache
	// is a miss, and neither layer counts anything.
	other := NewExecLayer()
	om := other.Wrap(meter)
	if _, err := om.Complete(ctx, llm.Request{Prompt: "p0"}); err != nil {
		t.Fatal(err)
	}
	before, otherHits := snap(), other.Stats().CacheHits
	if _, err := m.Complete(pctx, llm.Request{Prompt: "p0"}); err != nil {
		t.Fatal(err)
	}
	_, err := om.Complete(pctx, llm.Request{Prompt: "p0"})
	if !errors.Is(err, ErrNotCached) {
		t.Fatalf("a hit from a second layer under one probe returned %v, want ErrNotCached", err)
	}
	if probe.Settle(recCtx, err) || snap() != before || other.Stats().CacheHits != otherHits {
		t.Fatal("a probe across two layers was counted")
	}

	// Concurrent probes beside plain asks: every served hit counted once.
	const workers, rounds = 4, 200
	before = snap()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func() { // a prober: two hits then a miss, then three hits
			defer wg.Done()
			pctx, probe := HitsOnly(ctx)
			for r := 0; r < rounds; r++ {
				m.Complete(pctx, llm.Request{Prompt: "p0"})
				m.Complete(pctx, llm.Request{Prompt: "p1"})
				_, err := m.Complete(pctx, llm.Request{Prompt: fmt.Sprintf("cold %d", r)})
				if probe.Settle(recCtx, err) {
					t.Error("a probe that missed settled as served")
				}
				for _, p := range prompts {
					m.Complete(pctx, llm.Request{Prompt: p})
				}
				if !probe.Settle(recCtx, nil) {
					t.Error("a probe that only hit settled as a miss")
				}
			}
		}()
		go func() { // a plain asker
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				m.Complete(recCtx, llm.Request{Prompt: "p2"})
			}
		}()
	}
	wg.Wait()
	got = snap()
	want = before
	want.stats.CacheHits += workers * rounds * (len(prompts) + 1)
	want.recServed += workers * rounds * (len(prompts) + 1)
	want.recFree += workers * rounds * (len(prompts) + 1)
	if got != want {
		t.Fatalf("concurrent probes counted\n%+v\nwant\n%+v", got, want)
	}
}
