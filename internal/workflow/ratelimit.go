package workflow

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/llm"
)

// RateLimiter is a token-bucket limiter for model calls: vendors meter
// requests per minute, and production workflows must pace their fan-out
// accordingly. The zero value is unusable; construct with NewRateLimiter.
type RateLimiter struct {
	mu       sync.Mutex
	capacity float64
	tokens   float64
	refill   float64 // tokens per second
	last     time.Time
	now      func() time.Time
	sleep    func(ctx context.Context, d time.Duration) error
}

// NewRateLimiter returns a limiter permitting ratePerSecond calls
// sustained with bursts of up to burst calls. Both must be positive.
func NewRateLimiter(ratePerSecond float64, burst int) *RateLimiter {
	if ratePerSecond <= 0 || burst <= 0 {
		panic("workflow: NewRateLimiter needs positive rate and burst")
	}
	l := &RateLimiter{
		capacity: float64(burst),
		tokens:   float64(burst),
		refill:   ratePerSecond,
		now:      time.Now,
		sleep: func(ctx context.Context, d time.Duration) error {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
				return nil
			}
		},
	}
	l.last = l.now()
	return l
}

// Wait blocks until one call is permitted or the context is cancelled.
func (l *RateLimiter) Wait(ctx context.Context) error {
	for {
		l.mu.Lock()
		now := l.now()
		l.tokens += now.Sub(l.last).Seconds() * l.refill
		if l.tokens > l.capacity {
			l.tokens = l.capacity
		}
		l.last = now
		if l.tokens >= 1 {
			l.tokens--
			l.mu.Unlock()
			return nil
		}
		deficit := 1 - l.tokens
		l.mu.Unlock()
		wait := time.Duration(deficit / l.refill * float64(time.Second))
		if err := l.sleep(ctx, wait); err != nil {
			return fmt.Errorf("workflow: rate limit wait: %w", err)
		}
	}
}

// Allow reports whether a call is permitted right now, consuming a token
// if so. It never blocks.
func (l *RateLimiter) Allow() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	l.tokens += now.Sub(l.last).Seconds() * l.refill
	if l.tokens > l.capacity {
		l.tokens = l.capacity
	}
	l.last = now
	if l.tokens >= 1 {
		l.tokens--
		return true
	}
	return false
}

// RateLimitedModel wraps a model behind a RateLimiter: Complete blocks
// until the limiter admits the call.
type RateLimitedModel struct {
	inner   llm.Model
	limiter *RateLimiter
}

// NewRateLimited wraps m behind l.
func NewRateLimited(m llm.Model, l *RateLimiter) *RateLimitedModel {
	return &RateLimitedModel{inner: m, limiter: l}
}

// Name implements llm.Model.
func (m *RateLimitedModel) Name() string { return m.inner.Name() }

// Complete implements llm.Model.
func (m *RateLimitedModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if err := m.limiter.Wait(ctx); err != nil {
		return llm.Response{}, err
	}
	return m.inner.Complete(ctx, req)
}
