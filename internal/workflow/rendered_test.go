package workflow

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/llm"
	"repro/internal/token"
)

// TestRenderedMissCopiesPrompt: a prompt asked from a caller's reused
// render buffer is copied on a miss before anything keeps it. Two callers
// ask the same prompts, each from a buffer of its own, so their misses
// race into shared flights; each overwrites its buffer as soon as a call
// returns, as its next render would. The keys of the flights in progress
// during every upstream call, the prompts the upstream saw, and the keys
// the cache holds must all still read as the original prompts.
func TestRenderedMissCopiesPrompt(t *testing.T) {
	layer := NewExecLayer()
	var (
		mu      sync.Mutex
		seen    []string // every prompt the upstream was asked
		flights []string // every flight key in progress during an upstream call
	)
	upstream := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		layer.flights.mu.Lock()
		var keys []string
		for k := range layer.flights.inflight {
			keys = append(keys, k.prompt)
		}
		layer.flights.mu.Unlock()
		mu.Lock()
		seen = append(seen, req.Prompt)
		flights = append(flights, keys...)
		mu.Unlock()
		return llm.Response{Text: "echo:" + req.Prompt, Model: "m", Usage: token.Usage{PromptTokens: 3, Calls: 1}}, nil
	}}
	m := layer.Wrap(upstream)
	bm, ok := m.(llm.ByteCompleter)
	if !ok {
		t.Fatal("the shared layer's model does not answer prompts given as bytes")
	}
	prompts := make([]string, 16)
	want := make(map[string]bool, len(prompts))
	for i := range prompts {
		prompts[i] = fmt.Sprintf("Does the following item satisfy the condition: record %d?\n", i)
		want[prompts[i]] = true
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for _, p := range prompts {
				buf = append(buf[:0], p...)
				resp, err := bm.CompleteBytes(ctx, buf, llm.Request{})
				if err != nil || resp.Text != "echo:"+p {
					t.Errorf("ask %q: got %q, %v", p, resp.Text, err)
				}
				for i := range buf {
					buf[i] = '#'
				}
			}
		}()
	}
	wg.Wait() // every upstream call so far happened before this

	if len(seen) != len(prompts) {
		t.Errorf("upstream asked %d times for %d distinct prompts", len(seen), len(prompts))
	}
	for _, p := range seen {
		if !want[p] {
			t.Errorf("upstream saw %q, which changed after its call returned", p)
		}
	}
	for _, p := range flights {
		if !want[p] {
			t.Errorf("flight key %q changed after its call returned", p)
		}
	}
	cached := layer.cache.snapshot()
	if len(cached) != len(prompts) {
		t.Errorf("cache holds %d entries for %d prompts", len(cached), len(prompts))
	}
	for k, v := range cached {
		if !want[k.prompt] || v.Text != "echo:"+k.prompt {
			t.Errorf("cache key %q (answer %q) changed after its call returned", k.prompt, v.Text)
		}
	}

	// Both entrances find every entry: the string path and a fresh buffer
	// hash to the same shard and hit, free.
	for _, p := range prompts {
		resp, err := m.Complete(ctx, llm.Request{Prompt: p})
		if err != nil || resp.Text != "echo:"+p || !resp.Usage.IsZero() {
			t.Errorf("string re-ask %q: %q, usage %+v, %v; want a free hit", p, resp.Text, resp.Usage, err)
		}
		resp, err = bm.CompleteBytes(ctx, []byte(p), llm.Request{})
		if err != nil || resp.Text != "echo:"+p || !resp.Usage.IsZero() {
			t.Errorf("byte re-ask %q: %q, usage %+v, %v; want a free hit", p, resp.Text, resp.Usage, err)
		}
	}
	if len(seen) != len(prompts) {
		t.Errorf("re-asks reached the upstream: %d calls for %d prompts", len(seen), len(prompts))
	}
}
