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
	"repro/internal/token"
)

func TestStageTagRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := StageTag(ctx); got != "" {
		t.Fatalf("untagged ctx = %q", got)
	}
	if got := StageTag(TagStage(ctx, "filter-1")); got != "filter-1" {
		t.Fatalf("tag = %q", got)
	}
}

// TestAttributionSplitsByStageAndSumsToTotal drives one wrapped model from
// two tagged contexts plus an untagged one and checks the per-stage split,
// the total, and that the split agrees with an independent counter.
func TestAttributionSplitsByStageAndSumsToTotal(t *testing.T) {
	var calls atomic.Int64
	attr := NewAttribution()
	counting := llm.NewCounting(echoModel("m", &calls))
	m := NewMeter(counting, Unlimited(), attr)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := m.Complete(TagStage(ctx, "a"), llm.Request{Prompt: fmt.Sprintf("a%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Complete(TagStage(ctx, "b"), llm.Request{Prompt: "b0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Complete(ctx, llm.Request{Prompt: "untagged"}); err != nil {
		t.Fatal(err)
	}

	if u := attr.Usage("a"); u.Calls != 3 {
		t.Fatalf("stage a usage = %+v", u)
	}
	if u := attr.Usage("b"); u.Calls != 1 {
		t.Fatalf("stage b usage = %+v", u)
	}
	if u := attr.Usage(""); u.Calls != 1 {
		t.Fatalf("untagged usage = %+v", u)
	}
	if got := attr.Stages(); len(got) != 3 || got[0] != "" || got[1] != "a" || got[2] != "b" {
		t.Fatalf("stages = %v", got)
	}
	total, cost := attr.Total()
	if total != counting.Total() {
		t.Fatalf("attribution total %+v != counted %+v", total, counting.Total())
	}
	if cost <= 0 {
		t.Fatalf("cost = %f", cost)
	}
	var sum token.Usage
	for _, s := range attr.Stages() {
		sum = sum.Add(attr.Usage(s))
	}
	if sum != total {
		t.Fatalf("per-stage sum %+v != total %+v", sum, total)
	}
}

// TestAttributionRecordsChargedErrors: the budget-exhaustion path returns
// a response together with an error after charging it; attribution must
// record that usage too, or the ledgers drift apart.
func TestAttributionRecordsChargedErrors(t *testing.T) {
	attr := NewAttribution()
	inner := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return llm.Response{
			Text:  "x",
			Model: "m",
			Usage: token.Usage{PromptTokens: 50, CompletionTokens: 50, Calls: 1},
		}, nil
	}}
	// The admission estimate (1 + EstimateCompletion tokens) fits the cap;
	// the 100 tokens the call really used cross it.
	m := NewMeter(inner, NewBudget(0, 70, 0), attr)
	if _, err := m.Complete(TagStage(context.Background(), "s"), llm.Request{Prompt: "p"}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if u := attr.Usage("s"); u.Calls != 1 || u.Total() != 100 {
		t.Fatalf("charged-error usage = %+v, want recorded", u)
	}
}

// TestAttributionChildForwardsPerCall: a child ledger keeps its own
// per-stage split while every record also lands in the parent under the
// child's label, as it happens — not at some later fold.
func TestAttributionChildForwardsPerCall(t *testing.T) {
	parent := NewAttribution()
	a, b := parent.Child("tenant-a"), parent.Child("tenant-b")
	u := token.Usage{PromptTokens: 2, CompletionTokens: 1, Calls: 1}
	a.Record("filter", "m", u)
	if got := parent.Usage("tenant-a"); got != u {
		t.Fatalf("parent after one child record = %+v, want %+v (records must forward per call)", got, u)
	}
	a.Record("sort", "m", u)
	b.Record("filter", "m", u)
	if got := a.Stages(); len(got) != 2 || got[0] != "filter" || got[1] != "sort" {
		t.Fatalf("child stages = %v", got)
	}
	if got := parent.Stages(); len(got) != 2 || got[0] != "tenant-a" || got[1] != "tenant-b" {
		t.Fatalf("parent labels = %v", got)
	}
	at, ac := a.Total()
	bt, bc := b.Total()
	pt, pc := parent.Total()
	if pt != at.Add(bt) || pc != ac+bc {
		t.Fatalf("parent total (%+v, %v) != sum of children (%+v, %v)", pt, pc, at.Add(bt), ac+bc)
	}
	if parent.Usage("tenant-a") != at || parent.Cost("tenant-b") != bc {
		t.Fatal("parent's per-label rollup differs from the child's own total")
	}
}

// TestAttributionTimingAccumulates pins ObserveTiming's element-wise
// aggregation and that timings live in their own namespace: a stage with
// timings but no usage never appears in Stages().
func TestAttributionTimingAccumulates(t *testing.T) {
	attr := NewAttribution()
	attr.ObserveTiming("scan", StageTiming{Service: 3 * time.Millisecond, Wait: time.Millisecond, Chunks: 2, Records: 10})
	attr.ObserveTiming("scan", StageTiming{Service: time.Millisecond, Wait: 2 * time.Millisecond, Chunks: 1, Records: 5})
	got := attr.Timing("scan")
	want := StageTiming{Service: 4 * time.Millisecond, Wait: 3 * time.Millisecond, Chunks: 3, Records: 15}
	if got != want {
		t.Fatalf("Timing(scan) = %+v, want %+v", got, want)
	}
	if got := attr.Timing("never-observed"); got != (StageTiming{}) {
		t.Fatalf("Timing(unknown) = %+v, want zero", got)
	}
	if stages := attr.Stages(); len(stages) != 0 {
		t.Fatalf("Stages() = %v; timing-only labels must not leak into the usage ledger", stages)
	}
}

// TestAttributionConcurrentHammer drives ObserveTiming, Record, and every
// reader from many goroutines at once — the shape a parallel pipeline run
// produces, with each stage goroutine feeding the shared ledger while the
// run report polls it. Run under -race this doubles as the data-race
// check; afterwards the sums must be exact, not approximately right.
func TestAttributionConcurrentHammer(t *testing.T) {
	attr := NewAttribution()
	const (
		stages  = 7
		writers = 4   // goroutines per stage
		rounds  = 250 // observations per goroutine
	)
	stageName := func(i int) string { return fmt.Sprintf("stage-%d", i) }
	var wg sync.WaitGroup
	for s := 0; s < stages; s++ {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(stage string) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					attr.ObserveTiming(stage, StageTiming{
						Service: time.Microsecond, Wait: 2 * time.Microsecond, Chunks: 1, Records: 3,
					})
					attr.Record(stage, "sim-gpt-3.5-turbo",
						token.Usage{PromptTokens: 2, CompletionTokens: 1, Calls: 1})
				}
			}(stageName(s))
		}
	}
	// Concurrent readers: exercise every accessor while writers run.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for s := 0; s < stages; s++ {
					attr.Timing(stageName(s))
					attr.Usage(stageName(s))
					attr.Cost(stageName(s))
				}
				attr.Stages()
				attr.Total()
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()

	perStage := writers * rounds
	for s := 0; s < stages; s++ {
		tm := attr.Timing(stageName(s))
		want := StageTiming{
			Service: time.Duration(perStage) * time.Microsecond,
			Wait:    time.Duration(perStage) * 2 * time.Microsecond,
			Chunks:  perStage,
			Records: 3 * perStage,
		}
		if tm != want {
			t.Fatalf("%s timing = %+v, want %+v (lost updates under concurrency)", stageName(s), tm, want)
		}
		if u := attr.Usage(stageName(s)); u.Calls != perStage || u.Total() != 3*perStage {
			t.Fatalf("%s usage = %+v, want %d calls / %d tokens", stageName(s), u, perStage, 3*perStage)
		}
	}
	total, cost := attr.Total()
	if total.Calls != stages*perStage || total.Total() != 3*stages*perStage {
		t.Fatalf("total = %+v, want %d calls / %d tokens", total, stages*perStage, 3*stages*perStage)
	}
	if cost <= 0 {
		t.Fatalf("total cost = %v, want positive", cost)
	}
	if got := len(attr.Stages()); got != stages {
		t.Fatalf("Stages() has %d labels, want %d", got, stages)
	}
}
