package workflow

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/llm"
	"repro/internal/token"
)

// echoModel answers every prompt with a deterministic transform and counts
// upstream calls.
func echoModel(name string, calls *atomic.Int64) llm.Model {
	return llm.Func{
		ModelName: name,
		Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			calls.Add(1)
			return llm.Response{
				Text:  "echo:" + req.Prompt,
				Model: name,
				Usage: token.Usage{PromptTokens: 1, CompletionTokens: 1, Calls: 1},
			}, nil
		},
	}
}

func TestCacheSpreadsAcrossShards(t *testing.T) {
	c := NewCache(8)
	for i := 0; i < 200; i++ {
		c.put(cacheKey{model: "m", prompt: fmt.Sprintf("p%d", i)}, llm.Response{Text: "x"})
	}
	populated := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		if len(c.shards[i].entries) > 0 {
			populated++
		}
		c.shards[i].mu.RUnlock()
	}
	if populated < 2 {
		t.Fatalf("200 keys landed in %d shard(s); hashing is not spreading", populated)
	}
	if size, _ := c.Stats(); size != 200 {
		t.Fatalf("size = %d, want 200", size)
	}
}

// TestCacheConcurrentAccess hammers one shared layer from many goroutines
// with overlapping keys, each through its own Wrap; run under -race this is
// the concurrency-safety proof for the sharded cache.
func TestCacheConcurrentAccess(t *testing.T) {
	var calls atomic.Int64
	layer := NewExecLayer()
	const workers, prompts = 16, 10
	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := layer.Wrap(echoModel("m", &calls))
			for i := 0; i < 50; i++ {
				p := fmt.Sprintf("prompt-%d", i%prompts)
				resp, err := m.Complete(ctx, llm.Request{Prompt: p})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if resp.Text != "echo:"+p {
					t.Errorf("worker %d: got %q", w, resp.Text)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Concurrent first requests coalesce, so every prompt was answered
	// upstream exactly once.
	if n := calls.Load(); n != prompts {
		t.Fatalf("upstream calls = %d, want %d", n, prompts)
	}
	st := layer.Stats()
	if st.CacheSize != prompts {
		t.Fatalf("cache size = %d, want %d", st.CacheSize, prompts)
	}
	if total := workers * 50; st.CacheHits+st.Coalesced+prompts != total {
		t.Fatalf("hits (%d) + coalesced (%d) + upstream (%d) != requests (%d)",
			st.CacheHits, st.Coalesced, prompts, total)
	}
}

func TestSharedCacheSpansModels(t *testing.T) {
	var calls atomic.Int64
	layer := NewExecLayer()
	ctx := context.Background()
	a := layer.Wrap(echoModel("model-a", &calls))
	b := layer.Wrap(echoModel("model-b", &calls))
	if _, err := a.Complete(ctx, llm.Request{Prompt: "p"}); err != nil {
		t.Fatal(err)
	}
	// Different model name: the shared store must keep the entries apart.
	if _, err := b.Complete(ctx, llm.Request{Prompt: "p"}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("distinct models must not share entries: calls = %d, want 2", calls.Load())
	}
	// Same model again: served from the shared cache.
	if _, err := a.Complete(ctx, llm.Request{Prompt: "p"}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("repeat should hit shared cache: calls = %d, want 2", calls.Load())
	}
}

// TestCacheSaveDeterministicAcrossModels: a shared multi-model cache with
// entries differing only in model, temperature, or max-tokens must persist
// byte-identically regardless of insertion order — the property that makes
// cache logs of one workload diffable and reproducible.
func TestCacheSaveDeterministicAcrossModels(t *testing.T) {
	entries := []cacheKey{
		{model: "model-b", prompt: "p", temperature: 0.7, seed: 1},
		{model: "model-a", prompt: "p", temperature: 0.7, seed: 1},
		{model: "model-a", prompt: "p", temperature: 0, seed: 1},
		{model: "model-a", prompt: "p", temperature: 0.7, maxTokens: 32, seed: 1},
		{model: "model-b", prompt: "p", seed: 2},
		{model: "model-a", prompt: "q"},
	}
	dir := t.TempDir()
	save := func(name string, order []int) (string, []byte) {
		c := NewCache(4)
		for _, i := range order {
			c.put(entries[i], llm.Response{Text: fmt.Sprintf("t%d", i)})
		}
		path := filepath.Join(dir, name)
		lg := openLog(t, path)
		if _, err := lg.Flush(c); err != nil {
			t.Fatal(err)
		}
		lg.Close() // release the writer lock for the replay below
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, raw
	}
	path, forward := save("forward.log", []int{0, 1, 2, 3, 4, 5})
	_, backward := save("backward.log", []int{5, 4, 3, 2, 1, 0})
	if !bytes.Equal(forward, backward) {
		t.Fatalf("log bytes depend on insertion order:\n%q\nvs\n%q", forward, backward)
	}

	// Round trip: a fresh cache replayed from the file serves every entry,
	// keyed by the full (model, temperature, maxTokens, seed) identity.
	fresh := NewCache(4)
	lg := openLog(t, path)
	if _, err := lg.Replay(fresh); err != nil {
		t.Fatal(err)
	}
	for i, key := range entries {
		resp, ok := fresh.get(key)
		if !ok || resp.Text != fmt.Sprintf("t%d", i) {
			t.Fatalf("entry %d (%+v) round-tripped to (%q, %v)", i, key, resp.Text, ok)
		}
	}
	if err := lg.Compact(fresh); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, forward) {
		t.Fatalf("flush -> replay -> compact is not a fixed point (err %v)", err)
	}
}

// TestExecLayerSaveLoadRoundTrip: a layer's answers, saved through its
// state dir, load into a fresh layer that serves them free.
func TestExecLayerSaveLoadRoundTrip(t *testing.T) {
	var calls atomic.Int64
	dir := t.TempDir()
	layer := NewExecLayer()
	if _, err := layer.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m1 := layer.Wrap(echoModel("m", &calls))
	for i := 0; i < 5; i++ {
		if _, err := m1.Complete(ctx, llm.Request{Prompt: fmt.Sprintf("p%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := layer.CloseState(); err != nil {
		t.Fatal(err)
	}

	fresh := NewExecLayer()
	if _, err := fresh.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	defer fresh.CloseState()
	m2 := fresh.Wrap(echoModel("m", &calls))
	before := calls.Load()
	resp, err := m2.Complete(ctx, llm.Request{Prompt: "p3"})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before {
		t.Fatalf("loaded entry should serve without an upstream call")
	}
	if resp.Text != "echo:p3" || !resp.Usage.IsZero() {
		t.Fatalf("loaded answer = %+v, want the saved text at zero usage", resp)
	}
	if st := fresh.Stats(); st.CacheSize != 5 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want size 5 hits 1", st)
	}
}

// TestCachedModelLoadRejectsJunk: a state dir whose cache.log is not a
// cache log is refused, and the layer keeps serving without state.
func TestCachedModelLoadRejectsJunk(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, CacheLogName), []byte("{not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	layer := NewExecLayer()
	if _, err := layer.OpenState(dir); !errors.Is(err, ErrNotCacheLog) {
		t.Fatalf("OpenState over junk = %v, want ErrNotCacheLog", err)
	}
	if layer.HasState() {
		t.Fatal("a refused log must not be attached")
	}
	resp, err := layer.Wrap(fixedModel("m", "x")).Complete(context.Background(), llm.Request{Prompt: "p"})
	if err != nil || resp.Text != "x" {
		t.Fatalf("stateless layer should still serve: %+v, %v", resp, err)
	}
}
