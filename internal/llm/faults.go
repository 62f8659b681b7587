package llm

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Typed upstream fault classes. Transient, timeout, and rate-limit
// failures are the retryable kinds a resilience policy is allowed to
// heal; ErrPermanent marks a request the upstream will never answer —
// retrying it is wasted spend, so policies must pass it through and let
// degraded-mode execution (quarantine) deal with the record. Callers
// classify with errors.Is.
var (
	ErrTransient = errors.New("llm: transient upstream failure")
	ErrTimeout   = errors.New("llm: upstream timeout")
	ErrRateLimit = errors.New("llm: upstream rate limited")
	ErrPermanent = errors.New("llm: permanent upstream failure")
)

// FaultPlan configures deterministic fault injection. Probabilities are
// per-call in [0,1] and are decided by hashing (Seed, prompt, attempt
// index), so a plan replays identically whatever the concurrency — and a
// retried prompt rolls fresh dice each attempt, so transient faults
// really are transient. Permanent faults hash the prompt alone: a
// poisoned prompt stays poisoned across retries, which is what the
// quarantine path exists for. The zero plan injects nothing and the
// wrapper is a pure passthrough.
type FaultPlan struct {
	// Seed decorrelates plans; two plans with different seeds poison
	// different prompts.
	Seed int64
	// Transient, Timeout, RateLimit are per-attempt probabilities of the
	// corresponding retryable error.
	Transient float64
	Timeout   float64
	RateLimit float64
	// Permanent is the per-prompt probability of a non-retryable failure:
	// every attempt at an afflicted prompt fails with ErrPermanent.
	Permanent float64
	// Malformed is the per-attempt probability the upstream "succeeds" but
	// returns garbage in place of the completion text.
	Malformed float64
	// WrongSection is the per-attempt probability a TaskBatch envelope
	// reply comes back with its section headers renumbered, so waiters
	// find their section missing and fall back to solo retries. Non-batch
	// replies are truncated instead.
	WrongSection float64
	// BurstEvery/BurstLen carve repeating outage windows out of the
	// wrapper's global call sequence: calls with index i where
	// i mod BurstEvery < BurstLen fail with ErrTransient regardless of the
	// probabilities. BurstEvery 0 disables bursts.
	BurstEvery int
	BurstLen   int
}

// Zero reports whether the plan injects nothing.
func (p FaultPlan) Zero() bool {
	return p.Transient == 0 && p.Timeout == 0 && p.RateLimit == 0 &&
		p.Permanent == 0 && p.Malformed == 0 && p.WrongSection == 0 &&
		(p.BurstEvery <= 0 || p.BurstLen <= 0)
}

// ParseFaultPlan parses the "key=value,..." flag syntax of declctl
// -faults. Keys: seed, transient, timeout, ratelimit, permanent,
// malformed, wrong-section, burst-every, burst-len. An empty spec is the
// zero plan.
func ParseFaultPlan(spec string) (FaultPlan, error) {
	var p FaultPlan
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return p, fmt.Errorf("llm: fault plan %q: want key=value", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "seed", "burst-every", "burst-len":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return p, fmt.Errorf("llm: fault plan %s=%q: %w", key, val, err)
			}
			switch key {
			case "seed":
				p.Seed = n
			case "burst-every":
				p.BurstEvery = int(n)
			case "burst-len":
				p.BurstLen = int(n)
			}
		case "transient", "timeout", "ratelimit", "permanent", "malformed", "wrong-section":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return p, fmt.Errorf("llm: fault plan %s=%q: want probability in [0,1]", key, val)
			}
			switch key {
			case "transient":
				p.Transient = f
			case "timeout":
				p.Timeout = f
			case "ratelimit":
				p.RateLimit = f
			case "permanent":
				p.Permanent = f
			case "malformed":
				p.Malformed = f
			case "wrong-section":
				p.WrongSection = f
			}
		default:
			return p, fmt.Errorf("llm: fault plan: unknown key %q", key)
		}
	}
	return p, nil
}

// FaultStats counts what a FaultyModel actually injected.
type FaultStats struct {
	Calls        int // completions attempted through the wrapper
	Transient    int
	Timeout      int
	RateLimit    int
	Permanent    int
	Malformed    int
	WrongSection int
	Burst        int // transient errors forced by a burst window
}

// Injected returns the total number of faulted calls.
func (s FaultStats) Injected() int {
	return s.Transient + s.Timeout + s.RateLimit + s.Permanent +
		s.Malformed + s.WrongSection + s.Burst
}

// FaultyModel injects deterministic faults below a resilience policy (and
// therefore below the cache and its envelopes, which only ever see healed
// answers). It composes with WithLatency in either order.
type FaultyModel struct {
	inner Model
	plan  FaultPlan

	calls atomic.Int64 // global call index, drives burst windows

	mu       sync.Mutex
	attempts map[string]int // per-prompt attempt index, drives probability dice
	stats    FaultStats
}

// WithFaults wraps m with the plan. A zero plan returns a wrapper that
// forwards every call byte-identically.
func WithFaults(m Model, plan FaultPlan) *FaultyModel {
	return &FaultyModel{inner: m, plan: plan, attempts: make(map[string]int)}
}

// Name implements Model.
func (f *FaultyModel) Name() string { return f.inner.Name() }

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultyModel) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// mix64 is the 64-bit murmur finalizer. FNV-1a alone leaves a trailing
// byte's influence in a narrow band of bits, so two hashes differing only
// in the attempt index would land within 2^-24 of each other; the
// finalizer avalanches the difference across the whole word.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// roll maps a labeled hash of (seed, prompt[, attempt]) to [0,1).
func (f *FaultyModel) roll(label, prompt string, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", f.plan.Seed, label, prompt, attempt)
	return float64(mix64(h.Sum64())>>11) / float64(1<<53)
}

// Complete implements Model.
func (f *FaultyModel) Complete(ctx context.Context, req Request) (Response, error) {
	if f.plan.Zero() {
		return f.inner.Complete(ctx, req)
	}
	call := int(f.calls.Add(1)) - 1

	f.mu.Lock()
	attempt := f.attempts[req.Prompt]
	f.attempts[req.Prompt] = attempt + 1
	f.stats.Calls++
	fail := func(kind *int, err error) (Response, error) {
		*kind = *kind + 1
		f.mu.Unlock()
		return Response{}, err
	}

	// Permanent poisoning hashes the prompt alone: retries never help.
	if f.plan.Permanent > 0 && f.roll("permanent", req.Prompt, 0) < f.plan.Permanent {
		return fail(&f.stats.Permanent, fmt.Errorf("%w (injected, prompt poisoned)", ErrPermanent))
	}
	// Burst windows fail by global call order, modeling a full outage.
	if f.plan.BurstEvery > 0 && f.plan.BurstLen > 0 && call%f.plan.BurstEvery < f.plan.BurstLen {
		return fail(&f.stats.Burst, fmt.Errorf("%w (injected, burst call %d)", ErrTransient, call))
	}
	u := f.roll("attempt", req.Prompt, attempt)
	switch cut := 0.0; {
	case u < cut+f.plan.Transient:
		return fail(&f.stats.Transient, fmt.Errorf("%w (injected, attempt %d)", ErrTransient, attempt))
	case u < cut+f.plan.Transient+f.plan.Timeout:
		return fail(&f.stats.Timeout, fmt.Errorf("%w (injected, attempt %d)", ErrTimeout, attempt))
	case u < cut+f.plan.Transient+f.plan.Timeout+f.plan.RateLimit:
		return fail(&f.stats.RateLimit, fmt.Errorf("%w (injected, attempt %d)", ErrRateLimit, attempt))
	}
	malformed := f.plan.Malformed > 0 && f.roll("malformed", req.Prompt, attempt) < f.plan.Malformed
	wrongSection := f.plan.WrongSection > 0 && f.roll("wrong-section", req.Prompt, attempt) < f.plan.WrongSection
	f.mu.Unlock()

	resp, err := f.inner.Complete(ctx, req)
	if err != nil {
		return resp, err
	}
	// Response-corruption faults: the call "succeeds" but the text is
	// damaged, exercising the parse-and-retry paths above the wrapper.
	if malformed {
		resp.Text = corruptText(resp.Text)
		f.mu.Lock()
		f.stats.Malformed++
		f.mu.Unlock()
	}
	if wrongSection {
		resp.Text = corruptSections(resp.Text)
		f.mu.Lock()
		f.stats.WrongSection++
		f.mu.Unlock()
	}
	return resp, err
}

// corruptText truncates the reply mid-stream and appends junk, the shape
// of a dropped connection or a decoder bug.
func corruptText(s string) string {
	if len(s) > 1 {
		s = s[:len(s)/2]
	}
	return s + "\x00<<truncated>>"
}

var sectionHeaderRe = regexp.MustCompile(`(?m)^### Task (\d+)[ \t]*$`)

// corruptSections renumbers TaskBatch section headers far out of range,
// so every task's section goes missing and the envelope's group must retry each
// task solo. Replies without section headers are truncated instead.
func corruptSections(s string) string {
	if !sectionHeaderRe.MatchString(s) {
		return corruptText(s)
	}
	n := 0
	return sectionHeaderRe.ReplaceAllStringFunc(s, func(string) string {
		n++
		return fmt.Sprintf("### Task %d", 9000+n)
	})
}
