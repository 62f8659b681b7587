// Package resil wraps an llm.Model with the resilience mechanics a
// production service needs when the upstream flakes: bounded retries
// with capped exponential backoff and deterministic jitter, per-attempt
// deadlines, an optional hedged second request after a fixed latency
// trigger, and a circuit breaker with half-open probing. The wrapper
// sits *below* the cache and its envelopes (see docs/RESILIENCE.md): retried
// answers are cached once, batched envelopes retry
// whole-envelope-then-solo, and callers above see one logical call per
// ask however many physical attempts it took.
package resil

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/llm"
)

// ErrBreakerOpen reports a call refused without touching the upstream
// because the circuit breaker is open. Match with errors.Is; unwrap to
// *BreakerOpenError for the retry hint.
var ErrBreakerOpen = errors.New("resil: circuit breaker open")

// ErrRetryDenied marks a call that ended on a failed attempt because the
// policy's AllowRetry refused the retry, or the hedge, that could have
// saved it. It wraps the last attempt's error. Whether a call may retry is
// the caller's budget, not the call's outcome, so a caller sharing the
// call's answer (workflow's coalescer) asks again under its own budget.
var ErrRetryDenied = errors.New("resil: retry denied")

// BreakerOpenError carries the remaining cooldown so servers can emit
// Retry-After.
type BreakerOpenError struct {
	// RetryAfter is how long until the breaker will admit a probe.
	RetryAfter time.Duration
}

// Error implements error.
func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("resil: circuit breaker open, retry after %s", e.RetryAfter.Round(time.Millisecond))
}

// Is matches ErrBreakerOpen.
func (e *BreakerOpenError) Is(target error) bool { return target == ErrBreakerOpen }

// Policy configures the wrapper. The zero policy means one attempt, no
// hedging, no breaker — a passthrough.
type Policy struct {
	// MaxAttempts is the total number of attempts per call (1 = no
	// retries). 0 defaults to 1.
	MaxAttempts int
	// BaseBackoff seeds the capped exponential backoff between attempts:
	// attempt k waits jitter(BaseBackoff << (k-1)), capped at MaxBackoff.
	// 0 means no backoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff; 0 means 32x BaseBackoff.
	MaxBackoff time.Duration
	// AttemptTimeout bounds each attempt with its own deadline; an attempt
	// that exceeds it counts as a timeout failure and is retryable. 0
	// means no per-attempt deadline.
	AttemptTimeout time.Duration
	// HedgeAfter launches a second identical request if the first has not
	// returned after this long, and takes whichever answers first — a
	// fixed-latency stand-in for the usual p95 trigger, kept deterministic
	// for tests. 0 disables hedging.
	HedgeAfter time.Duration
	// BreakerThreshold opens the circuit after this many consecutive
	// failed calls (calls, not attempts). 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting
	// one half-open probe. 0 defaults to 100ms.
	BreakerCooldown time.Duration
	// AllowRetry, when non-nil, is consulted before every retry and every
	// hedge launch; returning false spends no further attempts on the
	// call. Servers use it to charge per-tenant retry budgets so one
	// tenant's flaky traffic cannot consume everyone's headroom.
	AllowRetry func(ctx context.Context) bool
}

// Stats accumulates the wrapper's lifetime counters.
type Stats struct {
	Calls          int // logical calls through the wrapper
	Attempts       int // physical attempts against the upstream
	Retries        int
	Hedges         int
	HedgeWins      int
	BreakerOpens   int
	BreakerDenials int // calls refused while open
	RetryDenials   int
}

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// Model applies a Policy around an inner llm.Model. Safe for concurrent
// use; breaker state is shared across all callers of the wrapper, which
// is the point — it protects one upstream.
type Model struct {
	inner  llm.Model
	policy Policy

	mu        sync.Mutex
	stats     Stats
	state     int       // breaker state
	failures  int       // consecutive failed calls while closed
	openUntil time.Time // when an open breaker admits a probe
	probing   bool      // a half-open probe is in flight
}

// Wrap applies the policy to m.
func Wrap(m llm.Model, p Policy) *Model {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 32 * p.BaseBackoff
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 100 * time.Millisecond
	}
	return &Model{inner: m, policy: p}
}

// Name implements llm.Model.
func (m *Model) Name() string { return m.inner.Name() }

// Stats returns a snapshot of the lifetime counters.
func (m *Model) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// BreakerState reports whether the breaker currently refuses calls and,
// if so, how long until it will admit a probe. Servers consult this at
// admission time to fail fast with Retry-After instead of accepting work
// that cannot run.
func (m *Model) BreakerState() (open bool, retryAfter time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == breakerOpen {
		if rem := time.Until(m.openUntil); rem > 0 {
			return true, rem
		}
	}
	return false, 0
}

// admit checks the breaker before a call. It returns an error to refuse
// the call, or probe=true when this call is the half-open probe.
func (m *Model) admit() (probe bool, err error) {
	if m.policy.BreakerThreshold <= 0 {
		return false, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch m.state {
	case breakerOpen:
		if rem := time.Until(m.openUntil); rem > 0 {
			m.stats.BreakerDenials++
			return false, &BreakerOpenError{RetryAfter: rem}
		}
		// Cooldown elapsed: this call becomes the half-open probe.
		m.state = breakerHalfOpen
		m.probing = true
		return true, nil
	case breakerHalfOpen:
		if m.probing {
			m.stats.BreakerDenials++
			return false, &BreakerOpenError{RetryAfter: m.policy.BreakerCooldown}
		}
		m.probing = true
		return true, nil
	}
	return false, nil
}

// settle records a call outcome in the breaker. Only upstream-class
// failures (the retryable kinds, exhausted) count toward opening:
// permanent poisoned-prompt errors and caller cancellations say nothing
// about upstream health, so they neither trip nor reset the breaker.
func (m *Model) settle(probe bool, callErr error) {
	if m.policy.BreakerThreshold <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if probe {
		m.probing = false
	}
	if callErr == nil {
		m.failures = 0
		m.state = breakerClosed
	} else if !retryable(callErr) {
		// Neutral outcome: leave the breaker where it is.
	} else {
		m.failures++
		if m.state == breakerHalfOpen || m.failures >= m.policy.BreakerThreshold {
			if m.state != breakerOpen {
				m.stats.BreakerOpens++
			}
			m.state = breakerOpen
			m.openUntil = time.Now().Add(m.policy.BreakerCooldown)
			m.failures = 0
		}
	}
}

// retryable classifies an error as worth another attempt. Permanent
// faults, context cancellation from the caller, and unknown errors stop
// the loop; typed transient/timeout/rate-limit faults (and per-attempt
// deadline blowouts) retry.
func retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, llm.ErrPermanent):
		return false
	case errors.Is(err, llm.ErrTransient),
		errors.Is(err, llm.ErrTimeout),
		errors.Is(err, llm.ErrRateLimit),
		errors.Is(err, context.DeadlineExceeded):
		return true
	}
	var r interface{ Retryable() bool }
	return errors.As(err, &r) && r.Retryable()
}

// backoff returns the wait before attempt k (1-based retry index) with
// deterministic jitter in [50%,100%] of the capped exponential step,
// keyed by the prompt so replays are stable but calls don't thunder in
// lockstep.
func (m *Model) backoff(prompt string, k int) time.Duration {
	if m.policy.BaseBackoff <= 0 {
		return 0
	}
	d := m.policy.BaseBackoff << uint(k-1)
	if d <= 0 || d > m.policy.MaxBackoff {
		d = m.policy.MaxBackoff
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", prompt, k)
	// Murmur-style finalizer: FNV alone barely avalanches the trailing
	// attempt index, so without it every retry of a prompt would jitter
	// identically.
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	frac := 0.5 + 0.5*float64(x>>11)/float64(1<<53)
	return time.Duration(float64(d) * frac)
}

// attempt runs one physical attempt under the per-attempt deadline.
func (m *Model) attempt(ctx context.Context, req llm.Request) (llm.Response, error) {
	m.mu.Lock()
	m.stats.Attempts++
	m.mu.Unlock()
	if m.policy.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.policy.AttemptTimeout)
		defer cancel()
	}
	return m.inner.Complete(ctx, req)
}

// Complete implements llm.Model: breaker admission, then up to
// MaxAttempts attempts with backoff, each optionally hedged.
func (m *Model) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	probe, err := m.admit()
	if err != nil {
		return llm.Response{}, err
	}
	m.mu.Lock()
	m.stats.Calls++
	m.mu.Unlock()

	var resp llm.Response
	for k := 0; ; k++ {
		resp, err = m.attemptHedged(ctx, req)
		if err == nil || !retryable(err) {
			break
		}
		if k+1 >= m.policy.MaxAttempts || ctx.Err() != nil {
			break
		}
		if m.policy.AllowRetry != nil && !m.policy.AllowRetry(ctx) {
			m.mu.Lock()
			m.stats.RetryDenials++
			m.mu.Unlock()
			err = fmt.Errorf("%w: %w", ErrRetryDenied, err)
			break
		}
		if d := m.backoff(req.Prompt, k+1); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				m.settle(probe, ctx.Err())
				return llm.Response{}, ctx.Err()
			}
			timer.Stop()
		}
		m.mu.Lock()
		m.stats.Retries++
		m.mu.Unlock()
	}
	m.settle(probe, err)
	return resp, err
}

// attemptHedged runs one attempt, optionally racing a hedged duplicate
// launched HedgeAfter into the wait. The first completion wins; the
// loser's attempt is cancelled and its result dropped. Hedges spend the same
// AllowRetry budget as retries.
func (m *Model) attemptHedged(ctx context.Context, req llm.Request) (llm.Response, error) {
	if m.policy.HedgeAfter <= 0 {
		return m.attempt(ctx, req)
	}
	// The loser is cancelled the moment a winner returns: nothing above
	// settles it, so it must not run on.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		resp   llm.Response
		err    error
		hedged bool
	}
	ch := make(chan result, 2)
	go func() {
		resp, err := m.attempt(ctx, req)
		ch <- result{resp, err, false}
	}()
	timer := time.NewTimer(m.policy.HedgeAfter)
	defer timer.Stop()
	launched, denied := false, false
	for {
		select {
		case r := <-ch:
			if r.err != nil && launched {
				// Primary (or first finisher) failed but a twin is still in
				// flight — give it the chance to answer.
				launched = false
				continue
			}
			if r.hedged {
				m.mu.Lock()
				m.stats.HedgeWins++
				m.mu.Unlock()
			}
			if r.err != nil && denied {
				return r.resp, fmt.Errorf("%w: %w", ErrRetryDenied, r.err)
			}
			return r.resp, r.err
		case <-timer.C:
			if launched {
				continue
			}
			if m.policy.AllowRetry != nil && !m.policy.AllowRetry(ctx) {
				m.mu.Lock()
				m.stats.RetryDenials++
				m.mu.Unlock()
				denied = true
				continue
			}
			launched = true
			m.mu.Lock()
			m.stats.Hedges++
			m.mu.Unlock()
			go func() {
				resp, err := m.attempt(ctx, req)
				ch <- result{resp, err, true}
			}()
		}
	}
}
