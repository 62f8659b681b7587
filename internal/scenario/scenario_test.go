package scenario

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/token"
)

// pinnedTotals are every pre-built scenario's deterministic whole-run
// counters on the stock sim engine. Upstream calls and tokens are exact:
// the sim oracle is deterministic per prompt, the scenarios' predicates
// sit far from the filter noise boundary (margin 1), and the shared
// cache/coalescer dedupes repeated prompts so only unique asks go
// upstream — however the timing-dependent cache-hit/coalesce split
// falls, the SharedHits sum is stable.
var pinnedTotals = map[string]struct {
	calls, tokens, sharedHits int
}{
	"cold-start":              {3, 85, 9},
	"warm-cache-replay":       {3, 85, 21},
	"mid-run-ingestion":       {3, 85, 17},
	"burst-load":              {3, 85, 45},
	"overlap-ingestion":       {12, 578, 12},
	"declserver-multi-tenant": {3, 85, 93},
	"fault-burst-recovery":    {6, 173, 49},
	"breaker-open-recover":    {4, 114, 37},
}

// TestPrebuiltScenariosPass runs every pre-built scenario on the default
// sim harness: all checkpoints must pass, the whole-run counters must
// match the pinned values, and the attribution ledger must sum to the
// upstream truth (the sums-to-budget invariant for scenario runs).
func TestPrebuiltScenariosPass(t *testing.T) {
	if len(List()) < 6 {
		t.Fatalf("only %d pre-built scenarios, want at least 6", len(List()))
	}
	h := New(Options{})
	for _, sc := range List() {
		sc := sc
		t.Run(sc.ID, func(t *testing.T) {
			res, err := h.Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Passed {
				for _, cp := range res.Checkpoints {
					if !cp.Pass {
						t.Errorf("checkpoint %q after %q failed: %v", cp.Checkpoint, cp.Turn, cp.Failures)
					}
				}
				t.Fatal("scenario did not pass")
			}
			want, ok := pinnedTotals[sc.ID]
			if !ok {
				t.Fatalf("scenario %q has no pinned totals — add it to pinnedTotals", sc.ID)
			}
			if res.TotalCalls != want.calls || res.TotalTokens != want.tokens || res.SharedHits != want.sharedHits {
				t.Fatalf("totals {calls %d, tokens %d, shared %d} differ from pinned {%d, %d, %d}",
					res.TotalCalls, res.TotalTokens, res.SharedHits,
					want.calls, want.tokens, want.sharedHits)
			}
			if res.AttributedCalls != res.TotalCalls || res.AttributedTokens != res.TotalTokens {
				t.Fatalf("attribution ledger {calls %d, tokens %d} does not sum to the upstream counters {%d, %d}",
					res.AttributedCalls, res.AttributedTokens, res.TotalCalls, res.TotalTokens)
			}
			if res.Engine != "sim/"+DefaultModelName {
				t.Fatalf("engine = %q, want %q", res.Engine, "sim/"+DefaultModelName)
			}
		})
	}
}

// TestScenarioDeterministic runs the standing-query scenario twice on
// fresh harnesses: every pinned observable — turn deltas included — must
// repeat exactly.
func TestScenarioDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := New(Options{}).Run(context.Background(), MidRunIngestion())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalCalls != b.TotalCalls || a.TotalTokens != b.TotalTokens || a.SharedHits != b.SharedHits {
		t.Fatalf("totals differ between runs: {%d %d %d} vs {%d %d %d}",
			a.TotalCalls, a.TotalTokens, a.SharedHits, b.TotalCalls, b.TotalTokens, b.SharedHits)
	}
	for i := range a.Turns {
		at, bt := a.Turns[i], b.Turns[i]
		if at.Calls != bt.Calls || at.Tokens != bt.Tokens || at.SharedHits != bt.SharedHits || at.Rows != bt.Rows {
			t.Fatalf("turn %q deltas differ between runs: %+v vs %+v", at.Turn, at, bt)
		}
	}
}

// TestCheckpointFailureSurfaced runs a scenario built to fail: the
// result must carry Passed false and name every violated bound, without
// Run returning an error — checkpoint verdicts are data, not failures.
func TestCheckpointFailureSurfaced(t *testing.T) {
	sc := ColdStart()
	sc.Checkpoints = []Checkpoint{{
		Name: "impossible", AfterTurn: "first-query",
		MaxCalls: 1, WantRows: 99,
		WantScalars:      map[string]string{"tally": "none"},
		RequireIdentical: true,
		RequireDetail:    "no such detail",
	}}
	res, err := New(Options{}).Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Fatal("impossible checkpoint passed")
	}
	cp := res.Checkpoints[0]
	if cp.Pass || len(cp.Failures) != 5 {
		t.Fatalf("want 5 named failures, got %d: %v", len(cp.Failures), cp.Failures)
	}
	joined := strings.Join(cp.Failures, "\n")
	for _, frag := range []string{"above ceiling 1", "want 99", `want "none"`, "CompareBatch", "no such detail"} {
		if !strings.Contains(joined, frag) {
			t.Fatalf("failure list lacks %q:\n%s", frag, joined)
		}
	}
}

// TestFreeTurnViolation asserts the FreeTurn bound actually bites: a
// replay over a changed table re-asks new prompts upstream, so the
// warm-cache expectation must fail and say how many calls the turn spent.
func TestFreeTurnViolation(t *testing.T) {
	sc := WarmCacheReplay()
	// Ingest a record with an unseen kind between the passes: the replay
	// is no longer free.
	sc.Turns = []Turn{
		sc.Turns[0],
		{Name: "surprise", Kind: TurnIngest, Records: []dataset.Record{rec("new-00", "kind", "widget")}},
		sc.Turns[2],
	}
	res, err := New(Options{}).Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Fatal("replay over a grown table reported as free")
	}
	var found bool
	for _, cp := range res.Checkpoints {
		for _, f := range cp.Failures {
			if strings.Contains(f, "free turn") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no failure names the free-turn violation: %+v", res.Checkpoints)
	}
}

// TestValidateRejectsMalformed covers the harness's scenario validation.
func TestValidateRejectsMalformed(t *testing.T) {
	h := New(Options{})
	cases := []struct {
		name string
		mut  func(*Scenario)
		frag string
	}{
		{"no-id", func(sc *Scenario) { sc.ID = "" }, "missing ID"},
		{"no-turns", func(sc *Scenario) { sc.Turns = nil }, "no turns"},
		{"unnamed-turn", func(sc *Scenario) { sc.Turns[0].Name = "" }, "has no name"},
		{"dup-turn", func(sc *Scenario) {
			sc.Turns = append(sc.Turns, Turn{Name: sc.Turns[0].Name, Kind: TurnIdle})
		}, "duplicate turn name"},
		{"bad-kind", func(sc *Scenario) { sc.Turns[0].Kind = "meander" }, `unknown kind "meander"`},
		{"orphan-checkpoint", func(sc *Scenario) {
			sc.Checkpoints[0].AfterTurn = "no-such-turn"
		}, "unknown turn"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := ColdStart()
			tc.mut(sc)
			_, err := h.Run(context.Background(), sc)
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("want error containing %q, got %v", tc.frag, err)
			}
		})
	}
}

// TestLatencySwitchInstalls pins the latency turn's effect end to end: a
// query under an installed 5ms per-call latency must take at least that
// long, and clearing the latency must restore fast (cache-free) calls.
func TestLatencySwitchInstalls(t *testing.T) {
	sc := ColdStart()
	sc.ID, sc.Name = "latency-probe", "Latency probe"
	sc.Turns = []Turn{
		{Name: "slow", Kind: TurnLatency, Latency: 5 * time.Millisecond},
		{Name: "first-query", Kind: TurnQuery},
	}
	sc.Checkpoints = []Checkpoint{{
		Name: "latency-bites", AfterTurn: "first-query",
		MinTurnWall: 5 * time.Millisecond,
		MinCalls:    3, MaxCalls: 3, WantRows: 4,
	}}
	res, err := New(Options{}).Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("latency scenario failed: %+v", res.Checkpoints)
	}
}

// TestRealEngineEscapeHatch runs a scenario through Options.Model: the
// harness must use the supplied model (engine tag "real/...") and leave
// the sim predicates unused.
func TestRealEngineEscapeHatch(t *testing.T) {
	model := llm.Func{ModelName: "always-yes", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return llm.Response{Text: "Yes", Model: "always-yes",
			Usage: token.Usage{PromptTokens: 1, CompletionTokens: 1, Calls: 1}}, nil
	}}
	sc := ColdStart()
	sc.Checkpoints = nil // the pinned sim counters do not apply
	res, err := New(Options{Model: model}).Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "real/always-yes" {
		t.Fatalf("engine = %q, want real/always-yes", res.Engine)
	}
	// An always-yes model keeps all 8 records.
	if res.Turns[0].Rows != 8 {
		t.Fatalf("always-yes engine kept %d rows, want 8", res.Turns[0].Rows)
	}
}
