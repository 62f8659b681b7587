package workflow

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/llm"
	"repro/internal/token"
)

// EstimateCompletion is the completion-token allowance a Meter assumes at
// admission time (prompt tokens are measured exactly).
const EstimateCompletion = 64

// Meter is the one accounting layer of an operator invocation. It sits
// below the cache and the batcher, so it sees exactly the calls a vendor
// would bill — one per envelope, none for cache hits — and settles each
// of them once: the call is refused with ErrBudgetExhausted when the
// budget no longer allows its estimated spend, and a completed call is
// charged to the budget, added to the invocation's usage total, and
// recorded in the run's Attribution under the stage tag of the context
// that led it. One settlement point is what keeps the three accounts
// equal: a call is in all of them or in none.
type Meter struct {
	inner  llm.Model
	budget *Budget
	attr   *Attribution // nil: the invocation keeps no ledger

	mu    sync.Mutex
	total token.Usage
}

// NewMeter wraps m against budget b, recording into a when it is non-nil.
func NewMeter(m llm.Model, b *Budget, a *Attribution) *Meter {
	return &Meter{inner: m, budget: b, attr: a}
}

// Name implements llm.Model.
func (m *Meter) Name() string { return m.inner.Name() }

// Complete implements llm.Model. A failed call and a response that
// carries no usage settle nothing. The call that crosses a cap returns
// its (valid, billed) response together with ErrBudgetExhausted, so the
// caller stops issuing further work.
func (m *Meter) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	name := m.inner.Name()
	estimate := token.Usage{
		PromptTokens:     token.Count(req.Prompt),
		CompletionTokens: EstimateCompletion,
		Calls:            1,
	}
	if !m.budget.Allows(name, estimate) {
		return llm.Response{}, fmt.Errorf("refusing call to %q: %w", name, ErrBudgetExhausted)
	}
	resp, err := m.inner.Complete(ctx, req)
	if err != nil || resp.Usage.IsZero() {
		return resp, err
	}
	m.mu.Lock()
	m.total = m.total.Add(resp.Usage)
	m.mu.Unlock()
	if m.attr != nil {
		m.attr.Record(StageTag(ctx), name, resp.Usage)
	}
	return resp, m.budget.Charge(name, resp.Usage)
}

// Usage returns what the invocation has been billed so far (cache hits
// are free and therefore absent).
func (m *Meter) Usage() token.Usage {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}
