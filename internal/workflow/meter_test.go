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

// TestMeterSettlesOnce pins the one-settlement contract: whatever a call's
// outcome, the budget, the run ledger, the tenant ledger above it, and the
// invocation's usage total all record the same thing — the call's usage,
// or nothing.
func TestMeterSettlesOnce(t *testing.T) {
	big := token.Usage{PromptTokens: 50, CompletionTokens: 50, Calls: 1}
	small := token.Usage{PromptTokens: 3, CompletionTokens: 2, Calls: 1}
	boom := errors.New("upstream down")
	cases := []struct {
		name    string
		budget  *Budget
		usage   token.Usage // what the upstream bills
		err     error       // what the upstream returns
		noAttr  bool
		want    token.Usage // what every account must show afterwards
		wantErr error
		wantUp  int64  // upstream calls made
		wantTxt string // response text handed back
	}{
		{name: "within budget", budget: NewBudget(0, 1000, 0), usage: small,
			want: small, wantUp: 1, wantTxt: "ok"},
		{name: "refused at admission", budget: NewBudget(0, 10, 0), usage: small,
			wantErr: ErrBudgetExhausted},
		{name: "cap-crossing call", budget: NewBudget(0, 70, 0), usage: big,
			want: big, wantErr: ErrBudgetExhausted, wantUp: 1, wantTxt: "ok"},
		{name: "inner error", budget: Unlimited(), usage: small, err: boom,
			wantErr: boom, wantUp: 1},
		{name: "zero-usage response", budget: Unlimited(),
			wantUp: 1, wantTxt: "ok"},
		{name: "nil attribution", budget: Unlimited(), usage: small, noAttr: true,
			want: small, wantUp: 1, wantTxt: "ok"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var upstream atomic.Int64
			inner := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
				upstream.Add(1)
				if tc.err != nil {
					// A failed call's usage must not leak into any account.
					return llm.Response{Usage: tc.usage}, tc.err
				}
				return llm.Response{Text: "ok", Model: "m", Usage: tc.usage}, nil
			}}
			tenants := NewAttribution()
			var run *Attribution
			if !tc.noAttr {
				run = tenants.Child("tenant")
			}
			m := NewMeter(inner, tc.budget, run)
			resp, err := m.Complete(TagStage(context.Background(), "stage"), llm.Request{Prompt: "p"})
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if upstream.Load() != tc.wantUp {
				t.Fatalf("upstream calls = %d, want %d", upstream.Load(), tc.wantUp)
			}
			if resp.Text != tc.wantTxt {
				t.Fatalf("response text = %q, want %q", resp.Text, tc.wantTxt)
			}
			if spent, _ := tc.budget.Spent(); spent != tc.want {
				t.Fatalf("budget = %+v, want %+v", spent, tc.want)
			}
			if got := m.Usage(); got != tc.want {
				t.Fatalf("invocation usage = %+v, want %+v", got, tc.want)
			}
			if tc.noAttr {
				return
			}
			if got := run.Usage("stage"); got != tc.want {
				t.Fatalf("run ledger = %+v, want %+v", got, tc.want)
			}
			if got := tenants.Usage("tenant"); got != tc.want {
				t.Fatalf("tenant ledger = %+v, want %+v", got, tc.want)
			}
			if tc.want.IsZero() && (len(run.Stages()) != 0 || len(tenants.Stages()) != 0) {
				t.Fatalf("unsettled call left ledger labels behind: %v / %v", run.Stages(), tenants.Stages())
			}
		})
	}

	// A hedged call below the meter: the first attempt stalls, the hedge
	// answers at once. The winner is settled once everywhere; the loser is
	// cancelled and settled nowhere, though it bills.
	t.Run("hedge loser", func(t *testing.T) {
		var upstream atomic.Int64
		loserCancelled := make(chan struct{})
		inner := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			if upstream.Add(1) == 1 {
				select {
				case <-ctx.Done():
					close(loserCancelled)
					return llm.Response{Usage: big}, ctx.Err()
				case <-time.After(10 * time.Second):
					return llm.Response{Text: "late", Model: "m", Usage: big}, nil
				}
			}
			return llm.Response{Text: "ok", Model: "m", Usage: small}, nil
		}}
		budget := Unlimited()
		tenants := NewAttribution()
		run := tenants.Child("tenant")
		m := NewMeter(resil.Wrap(inner, resil.Policy{HedgeAfter: time.Millisecond}), budget, run)
		resp, err := m.Complete(TagStage(context.Background(), "stage"), llm.Request{Prompt: "p"})
		if err != nil || resp.Text != "ok" {
			t.Fatalf("hedged call = %q, %v; want the hedge's answer", resp.Text, err)
		}
		select {
		case <-loserCancelled:
		case <-time.After(5 * time.Second):
			t.Fatal("the losing attempt's context was never cancelled")
		}
		if n := upstream.Load(); n != 2 {
			t.Fatalf("upstream calls = %d, want 2 (the stalled attempt and its hedge)", n)
		}
		if spent, _ := budget.Spent(); spent != small {
			t.Fatalf("budget = %+v, want the winner's %+v once", spent, small)
		}
		if got := m.Usage(); got != small {
			t.Fatalf("invocation usage = %+v, want the winner's %+v once", got, small)
		}
		if got := run.Usage("stage"); got != small {
			t.Fatalf("run ledger = %+v, want the winner's %+v once", got, small)
		}
		if got := tenants.Usage("tenant"); got != small {
			t.Fatalf("tenant ledger = %+v, want the winner's %+v once", got, small)
		}
	})
}

// TestMeterConcurrentHammer drives many invocations' meters against one
// capped budget and one tenant ledger at once, the shape concurrent jobs of
// one tenant produce. Whatever interleaving of admissions, cap-crossing
// calls and refusals results, budget total == ledger total == the sum of
// the invocation totals == what the upstream actually billed. Run under
// -race this is also the data-race check of the settlement path.
func TestMeterConcurrentHammer(t *testing.T) {
	const (
		meters = 8
		asks   = 60
	)
	var billed struct {
		sync.Mutex
		token.Usage
	}
	inner := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		u := token.Usage{PromptTokens: token.Count(req.Prompt), CompletionTokens: 7, Calls: 1}
		billed.Lock()
		billed.Usage = billed.Usage.Add(u)
		billed.Unlock()
		return llm.Response{Text: "ok", Model: "m", Usage: u}, nil
	}}
	// A cap some of the asks cross and the rest are refused by.
	budget := NewBudget(0, 0, meters*asks/2)
	tenants := NewAttribution()
	ms := make([]*Meter, meters)
	var wg sync.WaitGroup
	for i := range ms {
		ms[i] = NewMeter(inner, budget, tenants.Child("tenant"))
		wg.Add(1)
		go func(m *Meter, i int) {
			defer wg.Done()
			ctx := TagStage(context.Background(), fmt.Sprintf("stage-%d", i%3))
			for k := 0; k < asks; k++ {
				_, err := m.Complete(ctx, llm.Request{Prompt: fmt.Sprintf("ask %d of meter %d", k, i)})
				if err != nil && !errors.Is(err, ErrBudgetExhausted) {
					t.Errorf("meter %d ask %d: %v", i, k, err)
					return
				}
			}
		}(ms[i], i)
	}
	wg.Wait()

	var invocations token.Usage
	for _, m := range ms {
		invocations = invocations.Add(m.Usage())
	}
	spent, _ := budget.Spent()
	ledger, _ := tenants.Total()
	if spent.Calls < meters*asks/2 {
		t.Fatalf("budget saw %d calls, want the cap of %d reached", spent.Calls, meters*asks/2)
	}
	if spent != billed.Usage || ledger != billed.Usage || invocations != billed.Usage {
		t.Fatalf("accounts disagree: budget %+v, ledger %+v, invocations %+v, upstream billed %+v",
			spent, ledger, invocations, billed.Usage)
	}
}
