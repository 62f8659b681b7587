// Package workflow provides the execution machinery under the declarative
// engine: monetary/token budget enforcement (the paper's "within the
// specified monetary budget") and per-call accounting (Budget, Meter),
// the shared execution layer (sharded response cache plus in-flight
// request coalescing, see ExecLayer), unit-task batching into envelope
// prompts (CompleteGroup), bounded-concurrency fan-out (Map), client-side
// rate limiting, and per-stage usage attribution (Attribution, TagStage)
// that lets one shared budget be broken down by pipeline stage —
// including the optimizer's selectivity probes under the reserved
// StageProbe label. See docs/EXECUTION.md.
package workflow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/token"
)

// ErrBudgetExhausted reports that an LLM call was refused because it
// would exceed the configured budget. Strategies treat it as a terminal
// condition and return partial results with the error.
var ErrBudgetExhausted = errors.New("workflow: budget exhausted")

// Budget caps spending across a workflow. The zero value is unlimited;
// use NewBudget to set caps. Budget is safe for concurrent use.
type Budget struct {
	mu sync.Mutex
	// maxDollars <= 0 means no dollar cap; maxTokens <= 0 no token cap;
	// maxCalls <= 0 no call cap.
	maxDollars float64
	maxTokens  int
	maxCalls   int

	spentDollars float64
	spent        token.Usage
}

// NewBudget returns a budget with the given caps. Any cap <= 0 is
// unlimited.
func NewBudget(maxDollars float64, maxTokens, maxCalls int) *Budget {
	return &Budget{maxDollars: maxDollars, maxTokens: maxTokens, maxCalls: maxCalls}
}

// Unlimited returns a budget with no caps (but full accounting).
func Unlimited() *Budget { return &Budget{} }

// Charge records usage billed at the given model's price. It returns
// ErrBudgetExhausted if the charge pushes any cap strictly over its
// limit; the charge is still recorded (the call already happened).
func (b *Budget) Charge(model string, u token.Usage) error {
	cost := token.PriceFor(model).Cost(u)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.spentDollars += cost
	b.spent = b.spent.Add(u)
	if b.exceededLocked() {
		return fmt.Errorf("%w after charging %q: spent $%.4f, %d tokens, %d calls",
			ErrBudgetExhausted, model, b.spentDollars, b.spent.Total(), b.spent.Calls)
	}
	return nil
}

// Allows reports whether another call of the estimated usage would fit.
// Strategies call it before issuing work they could skip.
func (b *Budget) Allows(model string, estimate token.Usage) bool {
	cost := token.PriceFor(model).Cost(estimate)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.maxDollars > 0 && b.spentDollars+cost > b.maxDollars {
		return false
	}
	if b.maxTokens > 0 && b.spent.Total()+estimate.Total() > b.maxTokens {
		return false
	}
	if b.maxCalls > 0 && b.spent.Calls+estimate.Calls > b.maxCalls {
		return false
	}
	return true
}

func (b *Budget) exceededLocked() bool {
	if b.maxDollars > 0 && b.spentDollars > b.maxDollars {
		return true
	}
	if b.maxTokens > 0 && b.spent.Total() > b.maxTokens {
		return true
	}
	if b.maxCalls > 0 && b.spent.Calls > b.maxCalls {
		return true
	}
	return false
}

// RemainingDollars returns the dollar headroom left under the cap (never
// negative) and whether a dollar cap is set at all. Pipeline-level
// planning uses it to hand the per-stage planner the budget that is
// actually still available.
func (b *Budget) RemainingDollars() (float64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.maxDollars <= 0 {
		return 0, false
	}
	rem := b.maxDollars - b.spentDollars
	if rem < 0 {
		rem = 0
	}
	return rem, true
}

// Restore seeds the budget with spend recorded by an earlier process, so
// caps apply to a tenant's lifetime spend across restarts. Unlike Charge
// it does not price the usage: the dollars were computed when the spend
// actually happened, and re-pricing at today's rates would let a price
// change retroactively shrink (or inflate) what a tenant already paid.
func (b *Budget) Restore(u token.Usage, dollars float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.spent = b.spent.Add(u)
	b.spentDollars += dollars
}

// Spent returns the usage and dollars recorded so far.
func (b *Budget) Spent() (token.Usage, float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spent, b.spentDollars
}

// Reset zeroes the accounting, keeping the caps.
func (b *Budget) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.spent = token.Usage{}
	b.spentDollars = 0
}

// Map runs fn over indices 0..n-1 on min(n, parallelism) workers and
// collects the results in index order. Each worker takes the next index
// until none is left or the run has stopped, so indices start in order,
// at most parallelism calls run at once, and no index gets a goroutine of
// its own. The caller runs one worker itself; a panic in fn on that
// worker surfaces on the caller. The first error cancels outstanding work
// and is returned alongside the partial results (entries for failed or
// cancelled indices are the zero value).
func Map[T any](ctx context.Context, n, parallelism int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	done := ctx.Done()
	work := func() {
		for {
			// The first error cancels ctx, so one check covers it and
			// the caller's cancellation. An index is taken only after
			// the check, so every taken index runs: a block waiting on
			// an earlier block's Turn waits on one that has started.
			select {
			case <-done:
				return
			default:
			}
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			v, err := fn(ctx, i)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("workflow: task %d: %w", i, err)
					cancel()
				}
				mu.Unlock()
				return
			}
			results[i] = v
		}
	}
	spawned := func() {
		defer wg.Done()
		work()
	}
	workers := max(1, min(n, parallelism))
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go spawned()
	}
	work()
	wg.Wait()
	if firstErr == nil && ctx.Err() != nil {
		firstErr = fmt.Errorf("workflow: %w", ctx.Err())
	}
	return results, firstErr
}
