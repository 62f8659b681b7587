package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/token"
	"repro/internal/workflow"
)

// unit is a one-token reply for deterministic test models.
func unit(text string) llm.Response {
	return llm.Response{Text: text, Model: "test", Usage: token.Usage{PromptTokens: 1, CompletionTokens: 1, Calls: 1}}
}

// TestStreamingOverlapsStages proves record-level streaming: with one
// record in flight per stage, the categorize stage must process the first
// record while the upstream filter is still working through later ones. The
// model blocks the filter's last record until a categorize call has
// arrived — a materialized executor, which runs categorize only after
// the filter returns its whole table, would deadlock here.
func TestStreamingOverlapsStages(t *testing.T) {
	release := make(chan struct{})
	var categorized atomic.Int32
	model := llm.Func{ModelName: "overlap", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		switch {
		case strings.Contains(req.Prompt, "Assign the following item"):
			if categorized.Add(1) == 1 {
				close(release)
			}
			return unit("a"), nil
		case strings.Contains(req.Prompt, "satisfy the condition") &&
			strings.Contains(req.Prompt, dataset.FlavorNames()[3]):
			select {
			case <-release:
			case <-time.After(10 * time.Second):
				t.Error("filter's last record ran before any categorize call: stages did not overlap")
			case <-ctx.Done():
				return llm.Response{}, ctx.Err()
			}
			return unit("Yes"), nil
		default:
			return unit("Yes"), nil
		}
	}}
	spec := Spec{Stages: []StageSpec{
		{Name: "keep", Kind: KindFilter, Field: "", Predicate: "p"},
		{Name: "cat", Kind: KindCategorize, Categories: []string{"a", "b"}},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), ExecConfig{Model: model, Parallelism: 1}, flavorTables(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables["cat"]) != 4 {
		t.Fatalf("cat table has %d records, want 4", len(res.Tables["cat"]))
	}
}

// TestStreamingMatchesMaterialized pins the tentpole equivalence: a
// streaming run and a Materialized run return byte-identical tables,
// scalars, details and stage record counts to the reference run
// (runReference) of the same spec at temperature 0, across streaming
// (filter, categorize, impute) and barrier (resolve, count) stages.
func TestStreamingMatchesMaterialized(t *testing.T) {
	tables, _ := SourceSpec{Dataset: "restaurants", Records: 12, Train: 30, Seed: 3}.Tables()
	for i, r := range tables["source"] {
		tables["source"][i] = r.WithoutField("city")
	}
	spec := Spec{Stages: []StageSpec{
		{Name: "entities", Kind: KindResolve, Strategy: "pairwise", InvariantFields: []string{"type"}},
		{Name: "cuisine", Kind: KindFilter, Field: "type", Predicate: "the restaurant serves food", Selectivity: 0.9},
		{Name: "city", Kind: KindImpute, TargetField: "city", Side: "train", Strategy: "hybrid", Neighbors: 3, Examples: 2},
		{Name: "n", Kind: KindCount, Field: "city", Predicate: "q", Strategy: "per-item"},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	model := func() llm.Model { return sim.NewNamed("sim-gpt-3.5-turbo") }
	want, err := runReference(context.Background(), p, ExecConfig{Model: model()}, tables)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []ExecConfig{{Parallelism: 1}, {Parallelism: 3}, {Parallelism: 64}, {Materialized: true}} {
		mode := fmt.Sprintf("window %d materialized %v", cfg.Parallelism, cfg.Materialized)
		cfg.Model = model()
		got, err := p.Run(context.Background(), cfg, tables)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Tables, got.Tables) {
			t.Fatalf("%s: tables differ from the reference", mode)
		}
		if !reflect.DeepEqual(want.Scalars, got.Scalars) {
			t.Fatalf("%s: scalars %v != reference %v", mode, got.Scalars, want.Scalars)
		}
		for i := range want.Stages {
			if want.Stages[i].Detail != got.Stages[i].Detail {
				t.Fatalf("%s: stage %q detail %q != %q",
					mode, want.Stages[i].Name, got.Stages[i].Detail, want.Stages[i].Detail)
			}
			if want.Stages[i].In != got.Stages[i].In || want.Stages[i].Out != got.Stages[i].Out {
				t.Fatalf("%s: stage %q in/out %d/%d != %d/%d", mode, want.Stages[i].Name,
					got.Stages[i].In, got.Stages[i].Out, want.Stages[i].In, want.Stages[i].Out)
			}
		}
	}
}

// TestStreamingCancellationNoLeak is the mid-stream failure contract: a
// stage erroring partway through a stream must close downstream
// channels, surface its own error as the run's root cause (not a
// sibling's cancellation), and leave no goroutine behind. Run with
// -race in CI.
func TestStreamingCancellationNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	model := llm.Func{ModelName: "poison", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		if strings.Contains(req.Prompt, dataset.FlavorNames()[2]) && strings.Contains(req.Prompt, "satisfy the condition") {
			return llm.Response{}, fmt.Errorf("mid-stream explosion")
		}
		if strings.Contains(req.Prompt, "Assign the following item") {
			// Downstream runs records the filter already emitted; it must
			// die of the cancellation, not block forever.
			<-ctx.Done()
			return llm.Response{}, ctx.Err()
		}
		return unit("Yes"), nil
	}}
	spec := Spec{Stages: []StageSpec{
		{Name: "keep", Kind: KindFilter, Predicate: "p"},
		{Name: "cat", Kind: KindCategorize, Categories: []string{"a"}},
		{Name: "rank", Kind: KindSort, Field: "name", Criterion: "c", Strategy: "rating"},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(context.Background(), ExecConfig{Model: model, Parallelism: 1}, flavorTables(6))
	if err == nil || !strings.Contains(err.Error(), "mid-stream explosion") || !strings.Contains(err.Error(), `"keep"`) {
		t.Fatalf("err = %v, want the failing stage's root cause", err)
	}
	// Every stage goroutine, feeder, and operator worker must have exited;
	// allow the runtime a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before run, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunCancelNoLeak cancels a run mid-call from outside: Run must
// return the context error, and every stage goroutine must exit. Run with
// -race in CI.
func TestRunCancelNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	started := make(chan struct{})
	var once sync.Once
	model := llm.Func{ModelName: "hang", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return llm.Response{}, ctx.Err()
	}}
	spec := Spec{Stages: []StageSpec{
		{Name: "keep", Kind: KindFilter, Predicate: "p"},
		{Name: "cat", Kind: KindCategorize, Categories: []string{"a"}},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(ctx, ExecConfig{Model: model, Parallelism: 2}, flavorTables(6))
		done <- err
	}()
	<-started
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run's error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run never returned after cancel")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after cancel: %d before, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamingJoinOrderMatchesMaterialized: the engine's Join sorts
// matches by LeftID globally, which a per-record run cannot reproduce —
// so the join stage orders its output by input position instead, and a
// nested-loop join over non-ID-ordered input, streamed or Materialized,
// must collect to exactly the reference run's table (runReference: the
// engine's whole-table Join), whatever order its records finish in.
func TestStreamingJoinOrderMatchesMaterialized(t *testing.T) {
	model := llm.Func{ModelName: "match-all", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return unit("Yes"), nil
	}}
	// Left IDs deliberately in descending order.
	var left []dataset.Record
	for _, id := range []string{"z9", "m5", "a1"} {
		left = append(left, dataset.Record{ID: id, Fields: []dataset.Field{{Name: "name", Value: "item " + id}}})
	}
	right := []dataset.Record{
		{ID: "r2", Fields: []dataset.Field{{Name: "name", Value: "side two"}}},
		{ID: "r1", Fields: []dataset.Field{{Name: "name", Value: "side one"}}},
	}
	tables := map[string][]dataset.Record{"source": left, "right": right}
	spec := Spec{Stages: []StageSpec{
		{Name: "match", Kind: KindJoin, Field: "name", Side: "right", Strategy: "nested-loop"},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runReference(context.Background(), p, ExecConfig{Model: model}, tables)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Tables["match"]
	if len(want) != 6 {
		t.Fatalf("reference join has %d rows, want 3x2", len(want))
	}
	for _, materialized := range []bool{false, true} {
		res, err := p.Run(context.Background(), ExecConfig{Model: model, Materialized: materialized}, tables)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Tables["match"]; !reflect.DeepEqual(want, got) {
			t.Fatalf("materialized %v: join order differs:\nreference %v\ngot       %v", materialized, want, got)
		}
	}
	// Input position, not ID order, dictates the output.
	if id := want[0].ID; id != "z9" {
		t.Fatalf("first joined row is %q, want the first input record", id)
	}
}

// TestOuterCancellationIsNotSuccess: cancelling the caller's context
// mid-run must surface an error, never a silently truncated Result —
// even when no stage itself failed.
func TestOuterCancellationIsNotSuccess(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	model := llm.Func{ModelName: "cancel", Fn: func(_ context.Context, req llm.Request) (llm.Response, error) {
		if calls.Add(1) == 1 {
			cancel()
		}
		return unit("Yes"), nil
	}}
	spec := Spec{Stages: []StageSpec{
		{Name: "keep", Kind: KindFilter, Predicate: "p"},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(ctx, ExecConfig{Model: model, Parallelism: 1}, flavorTables(6))
	if err == nil {
		t.Fatalf("cancelled run reported success with %d/6 records", len(res.Tables["keep"]))
	}
}

// TestDynamicSideInput: a join whose right side is an earlier stage's
// output must see that stage's complete table — equivalently to running
// the producing stage first and passing its output as a static table.
func TestDynamicSideInput(t *testing.T) {
	// Two filters split the source into disjoint halves (join inputs must
	// not share IDs); the join's right side is the "evens" stage's output.
	names := dataset.FlavorNames()
	model := llm.Func{ModelName: "split", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		if strings.Contains(req.Prompt, "satisfy the condition") {
			idx := -1
			for i, n := range names[:8] {
				if strings.Contains(req.Prompt, n) {
					idx = i
					break
				}
			}
			keepEven := strings.Contains(req.Prompt, "evenpred")
			if idx >= 0 && (idx%2 == 0) == keepEven {
				return unit("Yes"), nil
			}
			return unit("No"), nil
		}
		return unit("Yes"), nil // every cross pair matches
	}}
	tables := flavorTables(8)
	spec := Spec{Stages: []StageSpec{
		{Name: "evens", Kind: KindFilter, Field: "name", Predicate: "evenpred", Input: "source"},
		{Name: "odds", Kind: KindFilter, Field: "name", Predicate: "oddpred", Input: "source"},
		{Name: "match", Kind: KindJoin, Field: "name", Side: "evens", Strategy: "nested-loop", Input: "odds"},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), ExecConfig{Model: model}, tables)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables["evens"]) != 4 || len(res.Tables["odds"]) != 4 {
		t.Fatalf("split tables: %d evens, %d odds, want 4/4", len(res.Tables["evens"]), len(res.Tables["odds"]))
	}

	// Reference: the same join against the evens table passed statically.
	refSpec := Spec{Stages: []StageSpec{
		{Name: "odds", Kind: KindFilter, Field: "name", Predicate: "oddpred", Input: "source"},
		{Name: "match", Kind: KindJoin, Field: "name", Side: "right", Strategy: "nested-loop", Input: "odds"},
	}}
	refTables := map[string][]dataset.Record{"source": tables["source"], "right": res.Tables["evens"]}
	rp, err := Compile(refSpec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rp.Run(context.Background(), ExecConfig{Model: model}, refTables)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables["match"]) != 16 {
		t.Fatalf("match table has %d records, want 4x4 cross pairs", len(res.Tables["match"]))
	}
	if !reflect.DeepEqual(res.Tables["match"], ref.Tables["match"]) {
		t.Fatalf("dynamic side join %v != static side join %v", res.Tables["match"], ref.Tables["match"])
	}
}

// TestDynamicSideInputImpute: an impute stage drawing its example pool
// from an earlier stage's output instead of a static table — the pool is
// the source table passed through a filter, and the imputation must
// match running against that filtered table statically.
func TestDynamicSideInputImpute(t *testing.T) {
	tables, _ := SourceSpec{Dataset: "restaurants", Records: 8, Train: 24, Seed: 5}.Tables()
	// Main chain: the training records themselves; the impute stage
	// re-derives each record's city from the filtered pool (k-NN only, so
	// the run is deterministic and free).
	src := map[string][]dataset.Record{"source": tables["train"]}
	model := llm.Func{ModelName: "yes", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return unit("Yes"), nil
	}}
	spec := Spec{Stages: []StageSpec{
		{Name: "pool", Kind: KindFilter, Field: "type", Predicate: "p", Input: "source"},
		{Name: "city", Kind: KindImpute, TargetField: "city", Side: "pool", Strategy: "knn",
			Neighbors: 3, Input: "source"},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), ExecConfig{Model: model}, src)
	if err != nil {
		t.Fatal(err)
	}

	ref := Spec{Stages: []StageSpec{
		{Name: "city", Kind: KindImpute, TargetField: "city", Side: "train", Strategy: "knn",
			Neighbors: 3, Input: "source"},
	}}
	rp, err := Compile(ref)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := rp.Run(context.Background(), ExecConfig{Model: model},
		map[string][]dataset.Record{"source": src["source"], "train": res.Tables["pool"]})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables["pool"]) == 0 {
		t.Fatal("filter kept nothing; pool is vacuous")
	}
	if !reflect.DeepEqual(res.Tables["city"], refRes.Tables["city"]) {
		t.Fatal("dynamic-side imputation differs from static-side imputation over the same pool")
	}
}

// TestSideStageValidation pins the compile-time rules for dynamic side
// inputs: a side naming a later stage (or the stage itself) is rejected;
// a side naming an earlier stage compiles.
func TestSideStageValidation(t *testing.T) {
	earlier := Spec{Stages: []StageSpec{
		{Name: "pool", Kind: KindFilter, Predicate: "p", Input: "source"},
		{Name: "match", Kind: KindJoin, Side: "pool", Strategy: "nested-loop", Input: "source"},
	}}
	if _, err := Compile(earlier); err != nil {
		t.Fatalf("side naming an earlier stage rejected: %v", err)
	}
	self := Spec{Stages: []StageSpec{
		{Name: "match", Kind: KindJoin, Side: "match", Input: "source"},
	}}
	if _, err := Compile(self); err == nil {
		t.Fatal("self-referential side accepted")
	}
	later := Spec{Stages: []StageSpec{
		{Name: "match", Kind: KindJoin, Side: "pool", Input: "source"},
		{Name: "pool", Kind: KindFilter, Predicate: "p", Input: "source"},
	}}
	if _, err := Compile(later); err == nil {
		t.Fatal("forward side reference accepted")
	}
}

// TestOptimizeRespectsSideConsumers: a stage whose output feeds another
// stage's side table has a second consumer, so a filter must not cross
// it — the side consumer needs the unfiltered table.
func TestOptimizeRespectsSideConsumers(t *testing.T) {
	names, log := optimizeOrder(t, []StageSpec{
		{Name: "cat", Kind: KindCategorize, Categories: []string{"x"}, OutField: "cat", Input: "source"},
		{Name: "f", Kind: KindFilter, Field: "name", Predicate: "p", Input: "cat"},
		{Name: "match", Kind: KindJoin, Side: "cat", Strategy: "nested-loop", Input: "f"},
	})
	if names[0] != "cat" || len(log) != 0 {
		t.Fatalf("filter crossed a stage with a side consumer: %v (%v)", names, log)
	}
}

// TestReservedStageNames: "__"-prefixed names collide with executor
// internals (the probe attribution label) and are rejected.
func TestReservedStageNames(t *testing.T) {
	_, err := Compile(Spec{Stages: []StageSpec{
		{Name: "__probe", Kind: KindFilter, Predicate: "p"},
	}})
	if err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("reserved name accepted: %v", err)
	}
}

// TestSelectivityValidation pins the Compile-time boundary behaviour of
// the selectivity hint: 0 means unset, (0, 1] is a hint, and everything
// else — including NaN, which the old check silently let through to the
// runtime 0.5 default — is a clear error.
func TestSelectivityValidation(t *testing.T) {
	filterWith := func(sel float64) Spec {
		return Spec{Stages: []StageSpec{
			{Name: "f", Kind: KindFilter, Predicate: "p", Selectivity: sel},
		}}
	}
	for _, sel := range []float64{0, 1e-9, 0.5, 1} {
		if _, err := Compile(filterWith(sel)); err != nil {
			t.Errorf("selectivity %v rejected: %v", sel, err)
		}
	}
	nan := math_NaN()
	for _, sel := range []float64{-0.1, -1e-9, 1.0000001, 2, nan} {
		if _, err := Compile(filterWith(sel)); err == nil || !strings.Contains(err.Error(), "selectivity") {
			t.Errorf("selectivity %v accepted (err = %v)", sel, err)
		}
	}
	// The hint is meaningless on non-filter stages.
	onCount := Spec{Stages: []StageSpec{
		{Name: "n", Kind: KindCount, Predicate: "p", Selectivity: 0.5},
	}}
	if _, err := Compile(onCount); err == nil || !strings.Contains(err.Error(), "filter") {
		t.Errorf("selectivity on a count stage accepted (err = %v)", err)
	}
}

func math_NaN() float64 {
	var zero float64
	return zero / zero
}

// TestProbedOptimizerOrdersHintlessFilters is the pinned acceptance
// check for the sampling optimizer: two hintless filters tie at the 0.5
// default, so Optimize must leave them in user order, while
// OptimizeProbed measures 'tight' keeping far fewer records than
// 'loose' and runs it first.
func TestProbedOptimizerOrdersHintlessFilters(t *testing.T) {
	// flavor-00..: 'tight' keeps only flavor-00's name; 'loose' keeps all.
	model := llm.Func{ModelName: "probe", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		if strings.Contains(req.Prompt, "tightpred") {
			if strings.Contains(req.Prompt, dataset.FlavorNames()[0]) {
				return unit("Yes"), nil
			}
			return unit("No"), nil
		}
		return unit("Yes"), nil
	}}
	stages := []StageSpec{
		{Name: "loose", Kind: KindFilter, Field: "name", Predicate: "loosepred"},
		{Name: "tight", Kind: KindFilter, Field: "name", Predicate: "tightpred"},
	}
	tables := flavorTables(12)

	// Hint-driven path: equal defaults, no reorder.
	plain, log, err := Optimize(Spec{Stages: stages})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stages[0].Name != "loose" || len(log) != 0 {
		t.Fatalf("default-0.5 path reordered equal filters: %v (%v)", stageNames(plain.Stages), log)
	}

	cfg := ExecConfig{Model: model, Exec: workflow.NewExecLayer(), Attribution: workflow.NewAttribution()}
	probed, trace, err := OptimizeProbed(context.Background(), Spec{Stages: stages}, cfg, tables, ProbeOptions{Sample: 6})
	if err != nil {
		t.Fatal(err)
	}
	if probed.Stages[0].Name != "tight" {
		t.Fatalf("probed order = %v (trace %v), want the measured-tighter filter first", stageNames(probed.Stages), trace)
	}
	if probed.Stages[0].Selectivity <= 0 || probed.Stages[0].Selectivity >= probed.Stages[1].Selectivity {
		t.Fatalf("measured selectivities not ordered: %v vs %v", probed.Stages[0].Selectivity, probed.Stages[1].Selectivity)
	}
	joined := strings.Join(trace, "\n")
	for _, want := range []string{`filter "tight" measured selectivity`, `filter "loose" measured selectivity`, "pushed filter"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace missing %q:\n%s", want, joined)
		}
	}

	// The probed spec must run — and the probe spend must appear as its
	// own attributed row that keeps the report summing to the total.
	p, err := Compile(probed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), cfg, tables)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages[0].Name != workflow.StageProbe {
		t.Fatalf("first report row = %q, want the probe row", res.Stages[0].Name)
	}
	var sum token.Usage
	for _, s := range res.Stages {
		sum = sum.Add(s.Usage)
	}
	if sum != res.Usage {
		t.Fatalf("stage sum %+v != total %+v (probe row must close the gap)", sum, res.Usage)
	}
}

// TestProbeSkipsUnprobeableFilter: a filter reading a field an upstream
// stage writes cannot be probed on the source table; it keeps the 0.5
// default and says so in the trace.
func TestProbeSkipsUnprobeableFilter(t *testing.T) {
	stages := []StageSpec{
		{Name: "cat", Kind: KindCategorize, Categories: []string{"a", "b"}, OutField: "label", Input: "source"},
		{Name: "f", Kind: KindFilter, Field: "label", Predicate: "p"},
	}
	calls := 0
	model := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		calls++
		return unit("Yes"), nil
	}}
	probed, trace, err := OptimizeProbed(context.Background(), Spec{Stages: stages},
		ExecConfig{Model: model}, flavorTables(6), ProbeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("probe issued %d calls for an unprobeable filter", calls)
	}
	if probed.Stages[indexOf(probed.Stages, "f")].Selectivity != 0 {
		t.Fatal("unprobeable filter's selectivity was overwritten")
	}
	if !strings.Contains(strings.Join(trace, "\n"), "not probeable") {
		t.Fatalf("trace missing the skip note: %v", trace)
	}
}

func stageNames(specs []StageSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}
