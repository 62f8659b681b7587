package workflow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/resil"
	"repro/internal/token"
)

// gatedModel blocks every upstream call until release is closed, so a test
// can guarantee N requests are simultaneously in flight.
func gatedModel(calls *atomic.Int64, release <-chan struct{}) llm.Model {
	return llm.Func{
		ModelName: "gated",
		Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			calls.Add(1)
			<-release
			return llm.Response{
				Text:  "echo:" + req.Prompt,
				Model: "gated",
				Usage: token.Usage{PromptTokens: 1, CompletionTokens: 1, Calls: 1},
			}, nil
		},
	}
}

// TestCoalescingCollapsesIdenticalConcurrent is the headline guarantee:
// N identical concurrent requests issue exactly one upstream call.
func TestCoalescingCollapsesIdenticalConcurrent(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	layer := NewExecLayer()
	c := layer.Wrap(gatedModel(&calls, release))
	ctx := context.Background()

	const n = 8
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		texts     []string
		usedCalls int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Complete(ctx, llm.Request{Prompt: "same"})
			if err != nil {
				t.Errorf("complete: %v", err)
				return
			}
			mu.Lock()
			texts = append(texts, resp.Text)
			usedCalls += resp.Usage.Calls
			mu.Unlock()
		}()
	}
	// Wait until the leader is inside the upstream call, give followers
	// time to pile onto the flight, then release.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("upstream calls = %d, want 1", calls.Load())
	}
	if got := layer.Stats().Coalesced; got != n-1 {
		t.Fatalf("coalesced = %d, want %d", got, n-1)
	}
	for _, text := range texts {
		if text != "echo:same" {
			t.Fatalf("follower text = %q", text)
		}
	}
	// Exactly one caller (the leader) carries the usage of the real call.
	if usedCalls != 1 {
		t.Fatalf("summed usage calls = %d, want 1 (followers must be free)", usedCalls)
	}
}

func TestCoalescingKeepsDistinctRequestsApart(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	close(release)
	c := NewExecLayer().Wrap(gatedModel(&calls, release))
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Complete(ctx, llm.Request{Prompt: fmt.Sprintf("p%d", i)}); err != nil {
				t.Errorf("complete: %v", err)
			}
		}(i)
	}
	// Seed-distinct sampling requests must also stay apart.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Complete(ctx, llm.Request{Prompt: "sample", Temperature: 0.7, Seed: int64(i)}); err != nil {
				t.Errorf("complete: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if calls.Load() != 7 {
		t.Fatalf("upstream calls = %d, want 7", calls.Load())
	}
}

func TestCoalescingSharesLeaderError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	release := make(chan struct{})
	inner := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		calls.Add(1)
		<-release
		return llm.Response{}, boom
	}}
	c := NewExecLayer().Wrap(inner)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Complete(ctx, llm.Request{Prompt: "p"})
		}(i)
	}
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err = %v, want boom", i, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("upstream calls = %d, want 1", calls.Load())
	}
}

// TestCoalescingFollowerSurvivesLeaderCancellation: a cancelled leader
// must not poison followers from live sessions — the follower retries
// under its own context and becomes the new leader.
func TestCoalescingFollowerSurvivesLeaderCancellation(t *testing.T) {
	var calls atomic.Int64
	leaderIn := make(chan struct{}, 2)
	inner := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		calls.Add(1)
		leaderIn <- struct{}{}
		select {
		case <-ctx.Done():
			return llm.Response{}, fmt.Errorf("upstream: %w", ctx.Err())
		case <-time.After(50 * time.Millisecond):
			return llm.Response{Text: "ok", Model: "m", Usage: token.Usage{Calls: 1}}, nil
		}
	}}
	layer := NewExecLayer()
	c := layer.Wrap(inner)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Complete(leaderCtx, llm.Request{Prompt: "p"})
		leaderErr <- err
	}()
	<-leaderIn // leader is inside the upstream call

	followerDone := make(chan error, 1)
	var followerResp llm.Response
	go func() {
		var err error
		followerResp, err = c.Complete(context.Background(), llm.Request{Prompt: "p"})
		followerDone <- err
	}()
	for layer.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want its own cancellation", err)
	}
	if err := <-followerDone; err != nil {
		t.Fatalf("follower err = %v, want retry success", err)
	}
	if followerResp.Text != "ok" {
		t.Fatalf("follower text = %q", followerResp.Text)
	}
	if calls.Load() != 2 {
		t.Fatalf("upstream calls = %d, want 2 (dead leader + follower retry)", calls.Load())
	}
}

func TestCoalescingFollowerHonoursOwnContext(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	defer close(release)
	layer := NewExecLayer()
	c := layer.Wrap(gatedModel(&calls, release))

	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Complete(context.Background(), llm.Request{Prompt: "p"})
		leaderErr <- err
	}()
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	followerCtx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Complete(followerCtx, llm.Request{Prompt: "p"})
		done <- err
	}()
	for layer.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled follower still blocked on the flight")
	}
}

// TestLateCallerDoesNotLeadSecondFlight pins the exactly-once contract of
// ExecLayer.Wrap under the one interleaving that used to break it: caller
// B misses the cache while leader A is still upstream; A finishes,
// publishing its response and retiring its flight; only then does B reach
// the flight group. B finds no flight — it must be answered from the cache
// its would-be predecessor filled, not lead a second upstream call.
func TestLateCallerDoesNotLeadSecondFlight(t *testing.T) {
	var calls atomic.Int64
	upstream, release := make(chan struct{}, 1), make(chan struct{})
	gated := gatedModel(&calls, release)
	layer := NewExecLayer()
	m := layer.Wrap(llm.Func{ModelName: "gated", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		upstream <- struct{}{}
		return gated.Complete(ctx, req)
	}}).(*sharedModel)
	ctx := context.Background()
	req := llm.Request{Prompt: "same ask"}
	key := keyFor(m.Name(), req)

	leader := make(chan error, 1)
	go func() {
		_, err := m.Complete(ctx, req)
		leader <- err
	}()
	<-upstream // A is the leader and is upstream
	if _, ok := layer.cache.get(key); ok {
		t.Fatal("B's lookup hit the cache while the leader was still upstream")
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}

	// B resumes from its miss only now.
	resp, err := m.afterMiss(ctx, key, req)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d upstream calls for one unit task: the late caller led a second flight", n)
	}
	if resp.Text != "echo:same ask" || !resp.Usage.IsZero() {
		t.Fatalf("late caller got %+v, want the cached answer at zero usage", resp)
	}
}

// TestFlightOutcomeTenantNeutral: a flight's leader ends on something that
// is its own, not the call's — its budget refused the call, its retry
// budget denied a retry, or the reply crossed its budget cap. Its follower,
// another tenant, is not failed by it: it asks again under its own context,
// or takes the billed reply free, which the cache keeps.
func TestFlightOutcomeTenantNeutral(t *testing.T) {
	billed := llm.Response{Text: "ok", Model: "m", Usage: token.Usage{PromptTokens: 1, CompletionTokens: 1, Calls: 1}}
	for _, tc := range []struct {
		name       string
		leader     func() (llm.Response, error)
		retried    bool // the follower led a second call
		leaderText string
	}{
		{"budget refusal", func() (llm.Response, error) {
			return llm.Response{}, fmt.Errorf("refusing call: %w", ErrBudgetExhausted)
		}, true, ""},
		{"retry denied", func() (llm.Response, error) {
			return llm.Response{}, fmt.Errorf("%w: %w", resil.ErrRetryDenied, llm.ErrTransient)
		}, true, ""},
		{"cap crossed", func() (llm.Response, error) {
			return billed, fmt.Errorf("after charging: %w", ErrBudgetExhausted)
		}, false, "ok"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			layer := NewExecLayer()
			type leaderKey struct{}
			inner := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
				calls.Add(1)
				if ctx.Value(leaderKey{}) == nil {
					return billed, nil
				}
				for layer.Stats().Coalesced == 0 {
					time.Sleep(time.Millisecond)
				}
				return tc.leader()
			}}
			m := layer.Wrap(inner)
			type result struct {
				resp llm.Response
				err  error
			}
			lead := make(chan result, 1)
			go func() {
				resp, err := m.Complete(context.WithValue(context.Background(), leaderKey{}, true), llm.Request{Prompt: "p"})
				lead <- result{resp, err}
			}()
			for calls.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
			resp, err := m.Complete(context.Background(), llm.Request{Prompt: "p"})
			if err != nil || resp.Text != "ok" {
				t.Fatalf("follower got (%q, %v), want the answer", resp.Text, err)
			}
			if l := <-lead; l.err == nil || l.resp.Text != tc.leaderText {
				t.Fatalf("leader got (%q, %v), want its own error with reply %q", l.resp.Text, l.err, tc.leaderText)
			}
			if want := map[bool]int64{true: 2, false: 1}[tc.retried]; calls.Load() != want {
				t.Fatalf("upstream calls = %d, want %d", calls.Load(), want)
			}
			if tc.retried != !resp.Usage.IsZero() {
				t.Fatalf("follower's usage %+v: it paid for its own call exactly when it led one", resp.Usage)
			}
			if size, _ := layer.Cache().Stats(); size != 1 {
				t.Fatalf("cache holds %d answers, want the one answer", size)
			}
		})
	}
}
