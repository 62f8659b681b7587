package resil

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
)

// flakyModel fails the first failN attempts per prompt with err, then
// succeeds.
func flakyModel(failN int, err error) (llm.Model, *atomic.Int64) {
	var attempts atomic.Int64
	var perPrompt = map[string]*atomic.Int64{}
	m := llm.Func{ModelName: "flaky", Fn: func(_ context.Context, req llm.Request) (llm.Response, error) {
		attempts.Add(1)
		c, ok := perPrompt[req.Prompt]
		if !ok {
			c = &atomic.Int64{}
			perPrompt[req.Prompt] = c
		}
		if int(c.Add(1)) <= failN {
			return llm.Response{}, err
		}
		return llm.Response{Text: "ok: " + req.Prompt}, nil
	}}
	return m, &attempts
}

func TestRetryHealsTransient(t *testing.T) {
	inner, attempts := flakyModel(2, llm.ErrTransient)
	m := Wrap(inner, Policy{MaxAttempts: 3, BaseBackoff: time.Microsecond})
	resp, err := m.Complete(context.Background(), llm.Request{Prompt: "a"})
	if err != nil || resp.Text != "ok: a" {
		t.Fatalf("got %q, %v", resp.Text, err)
	}
	if attempts.Load() != 3 {
		t.Fatalf("attempts = %d, want 3", attempts.Load())
	}
	s := m.Stats()
	if s.Calls != 1 || s.Retries != 2 || s.Attempts != 3 {
		t.Fatalf("stats %+v, want 1 call / 2 retries / 3 attempts", s)
	}
}

func TestRetriesExhaust(t *testing.T) {
	inner, attempts := flakyModel(99, llm.ErrTransient)
	m := Wrap(inner, Policy{MaxAttempts: 3})
	if _, err := m.Complete(context.Background(), llm.Request{Prompt: "a"}); !errors.Is(err, llm.ErrTransient) {
		t.Fatalf("want transient after exhaustion, got %v", err)
	}
	if attempts.Load() != 3 {
		t.Fatalf("attempts = %d, want 3", attempts.Load())
	}
}

func TestPermanentNotRetried(t *testing.T) {
	inner, attempts := flakyModel(99, llm.ErrPermanent)
	m := Wrap(inner, Policy{MaxAttempts: 5})
	if _, err := m.Complete(context.Background(), llm.Request{Prompt: "a"}); !errors.Is(err, llm.ErrPermanent) {
		t.Fatalf("want permanent, got %v", err)
	}
	if attempts.Load() != 1 {
		t.Fatalf("permanent error retried: %d attempts", attempts.Load())
	}
}

func TestAllowRetryBudget(t *testing.T) {
	inner, attempts := flakyModel(99, llm.ErrTransient)
	budget := int32(1)
	m := Wrap(inner, Policy{
		MaxAttempts: 5,
		AllowRetry: func(context.Context) bool {
			return atomic.AddInt32(&budget, -1) >= 0
		},
	})
	_, err := m.Complete(context.Background(), llm.Request{Prompt: "a"})
	if !errors.Is(err, ErrRetryDenied) || !errors.Is(err, llm.ErrTransient) {
		t.Fatalf("err = %v, want ErrRetryDenied wrapping the last attempt's error", err)
	}
	if attempts.Load() != 2 {
		t.Fatalf("attempts = %d, want 2 (1 retry allowed)", attempts.Load())
	}
	if s := m.Stats(); s.RetryDenials != 1 || s.Retries != 1 {
		t.Fatalf("stats %+v, want 1 retry / 1 denial", s)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	failing := atomic.Bool{}
	failing.Store(true)
	inner := llm.Func{ModelName: "m", Fn: func(context.Context, llm.Request) (llm.Response, error) {
		if failing.Load() {
			return llm.Response{}, llm.ErrTransient
		}
		return llm.Response{Text: "ok"}, nil
	}}
	m := Wrap(inner, Policy{MaxAttempts: 1, BreakerThreshold: 2, BreakerCooldown: 30 * time.Millisecond})
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := m.Complete(ctx, llm.Request{Prompt: "x"}); !errors.Is(err, llm.ErrTransient) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if open, after := m.BreakerState(); !open || after <= 0 {
		t.Fatalf("breaker not open after threshold (open=%v after=%s)", open, after)
	}
	_, err := m.Complete(ctx, llm.Request{Prompt: "x"})
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want breaker-open refusal, got %v", err)
	}
	var boe *BreakerOpenError
	if !errors.As(err, &boe) || boe.RetryAfter <= 0 {
		t.Fatalf("refusal carries no retry hint: %v", err)
	}

	// Probe while still failing: reopens.
	time.Sleep(35 * time.Millisecond)
	if _, err := m.Complete(ctx, llm.Request{Prompt: "x"}); !errors.Is(err, llm.ErrTransient) {
		t.Fatalf("probe: %v", err)
	}
	if open, _ := m.BreakerState(); !open {
		t.Fatal("failed probe did not reopen breaker")
	}

	// Recover: cooldown, then a successful probe closes it.
	failing.Store(false)
	time.Sleep(35 * time.Millisecond)
	if resp, err := m.Complete(ctx, llm.Request{Prompt: "x"}); err != nil || resp.Text != "ok" {
		t.Fatalf("recovery probe: %q, %v", resp.Text, err)
	}
	if open, _ := m.BreakerState(); open {
		t.Fatal("breaker still open after successful probe")
	}
	if resp, err := m.Complete(ctx, llm.Request{Prompt: "y"}); err != nil || resp.Text != "ok" {
		t.Fatalf("post-recovery call: %q, %v", resp.Text, err)
	}
	if s := m.Stats(); s.BreakerOpens != 2 || s.BreakerDenials != 1 {
		t.Fatalf("stats %+v, want 2 opens / 1 denial", s)
	}
}

func TestHedgeWinsSlowPrimary(t *testing.T) {
	var calls atomic.Int64
	inner := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		// First call is slow, the hedge is instant.
		if calls.Add(1) == 1 {
			select {
			case <-time.After(200 * time.Millisecond):
			case <-ctx.Done():
				return llm.Response{}, ctx.Err()
			}
		}
		return llm.Response{Text: "ok"}, nil
	}}
	m := Wrap(inner, Policy{MaxAttempts: 1, HedgeAfter: 5 * time.Millisecond})
	start := time.Now()
	resp, err := m.Complete(context.Background(), llm.Request{Prompt: "x"})
	if err != nil || resp.Text != "ok" {
		t.Fatalf("got %q, %v", resp.Text, err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("hedge did not cut latency: %s", elapsed)
	}
	if s := m.Stats(); s.Hedges != 1 || s.HedgeWins != 1 {
		t.Fatalf("stats %+v, want 1 hedge / 1 win", s)
	}
}

func TestHedgeSurvivesPrimaryFailure(t *testing.T) {
	var calls atomic.Int64
	inner := llm.Func{ModelName: "m", Fn: func(_ context.Context, req llm.Request) (llm.Response, error) {
		if calls.Add(1) == 1 {
			time.Sleep(10 * time.Millisecond)
			return llm.Response{}, llm.ErrTransient
		}
		time.Sleep(30 * time.Millisecond)
		return llm.Response{Text: "hedge"}, nil
	}}
	m := Wrap(inner, Policy{MaxAttempts: 1, HedgeAfter: time.Millisecond})
	resp, err := m.Complete(context.Background(), llm.Request{Prompt: "x"})
	if err != nil || resp.Text != "hedge" {
		t.Fatalf("got %q, %v (hedge result dropped after primary failure)", resp.Text, err)
	}
}

// TestHedgeDeniedMarksFailure: a primary that fails after its hedge was
// denied ends in ErrRetryDenied, wrapping the primary's error.
func TestHedgeDeniedMarksFailure(t *testing.T) {
	inner := llm.Func{ModelName: "m", Fn: func(context.Context, llm.Request) (llm.Response, error) {
		time.Sleep(10 * time.Millisecond)
		return llm.Response{}, llm.ErrTransient
	}}
	m := Wrap(inner, Policy{MaxAttempts: 1, HedgeAfter: time.Millisecond,
		AllowRetry: func(context.Context) bool { return false }})
	_, err := m.Complete(context.Background(), llm.Request{Prompt: "x"})
	if !errors.Is(err, ErrRetryDenied) || !errors.Is(err, llm.ErrTransient) {
		t.Fatalf("err = %v, want ErrRetryDenied wrapping the primary's error", err)
	}
}

func TestAttemptTimeoutRetries(t *testing.T) {
	var calls atomic.Int64
	inner := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // hang until the per-attempt deadline
			return llm.Response{}, ctx.Err()
		}
		return llm.Response{Text: "ok"}, nil
	}}
	m := Wrap(inner, Policy{MaxAttempts: 2, AttemptTimeout: 10 * time.Millisecond})
	resp, err := m.Complete(context.Background(), llm.Request{Prompt: "x"})
	if err != nil || resp.Text != "ok" {
		t.Fatalf("got %q, %v", resp.Text, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
}

func TestCallerCancellationStopsRetries(t *testing.T) {
	inner, attempts := flakyModel(99, llm.ErrTransient)
	m := Wrap(inner, Policy{MaxAttempts: 10, BaseBackoff: 20 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := m.Complete(ctx, llm.Request{Prompt: "x"}); err == nil {
		t.Fatal("expected error after cancellation")
	}
	if attempts.Load() > 2 {
		t.Fatalf("kept retrying after cancel: %d attempts", attempts.Load())
	}
}

func TestZeroPolicyPassthrough(t *testing.T) {
	inner := llm.Func{ModelName: "m", Fn: func(_ context.Context, req llm.Request) (llm.Response, error) {
		return llm.Response{Text: "v:" + req.Prompt}, nil
	}}
	m := Wrap(inner, Policy{})
	resp, err := m.Complete(context.Background(), llm.Request{Prompt: "p"})
	if err != nil || resp.Text != "v:p" {
		t.Fatalf("got %q, %v", resp.Text, err)
	}
	s := m.Stats()
	if s.Calls != 1 || s.Attempts != 1 || s.Retries != 0 || s.Hedges != 0 {
		t.Fatalf("zero policy stats %+v", s)
	}
}

func TestBackoffDeterministicAndCapped(t *testing.T) {
	m := Wrap(llm.Func{ModelName: "m"}, Policy{MaxAttempts: 8, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond})
	for k := 1; k < 8; k++ {
		a, b := m.backoff("p", k), m.backoff("p", k)
		if a != b {
			t.Fatalf("jitter nondeterministic at k=%d: %s vs %s", k, a, b)
		}
		if a > 4*time.Millisecond {
			t.Fatalf("backoff uncapped at k=%d: %s", k, a)
		}
		if a < time.Millisecond/2 {
			t.Fatalf("backoff below half the base at k=%d: %s", k, a)
		}
	}
}
