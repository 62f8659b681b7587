package pipeline

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/token"
	"repro/internal/workflow"
)

// TestWindowOverlapsRecordsAcrossStages is the record-granular overlap
// contract: while record 0's first-stage ask is still upstream, record 1
// must travel through the first and second stages and reach the third
// stage's model. Under a chunk barrier the first stage emits nothing until
// the slowest ask of its chunk returns, so the gate would never open.
func TestWindowOverlapsRecordsAcrossStages(t *testing.T) {
	names := dataset.FlavorNames()
	release := make(chan struct{})
	var once sync.Once
	model := llm.Func{ModelName: "gated", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		switch {
		case strings.Contains(req.Prompt, "firstpred") && strings.Contains(req.Prompt, names[0]):
			select {
			case <-release:
			case <-time.After(10 * time.Second):
				t.Error("record 1 never reached the third stage while record 0 was held in the first")
			case <-ctx.Done():
				return llm.Response{}, ctx.Err()
			}
		case strings.Contains(req.Prompt, "thirdpred") && strings.Contains(req.Prompt, names[1]):
			once.Do(func() { close(release) })
		case strings.Contains(req.Prompt, "Assign the following item"):
			return unit("a"), nil
		}
		return unit("Yes"), nil
	}}
	p, err := Compile(Spec{Stages: []StageSpec{
		{Name: "first", Kind: KindFilter, Field: "name", Predicate: "firstpred"},
		{Name: "second", Kind: KindCategorize, Field: "name", Categories: []string{"a", "b"}},
		{Name: "third", Kind: KindFilter, Field: "name", Predicate: "thirdpred"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := flavorTables(4)["source"]
	res, err := p.Run(context.Background(), ExecConfig{Model: model, Parallelism: 2}, flavorTables(4))
	if err != nil {
		t.Fatal(err)
	}
	// Record 0 finished last in every stage; the tables are in source order
	// all the same.
	for _, stage := range []string{"first", "third"} {
		got := res.Tables[stage]
		if len(got) != len(want) {
			t.Fatalf("stage %q kept %d records, want %d", stage, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("stage %q row %d is %q, want %q: sequence order not restored", stage, i, got[i].ID, want[i].ID)
			}
		}
	}
}

// TestWindowBoundsInFlightPerStage: a stage never has more than
// Parallelism asks upstream at once — the window admits records, not
// asks, and every per-record operator (the nested-loop join's whole right
// side included) asks one question at a time — and a stage with enough
// input does fill its window.
func TestWindowBoundsInFlightPerStage(t *testing.T) {
	const width = 3
	var mu sync.Mutex
	inflight, peak := map[string]int{}, map[string]int{}
	model := llm.Func{ModelName: "counting", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		stage := workflow.StageTag(ctx)
		mu.Lock()
		inflight[stage]++
		if inflight[stage] > peak[stage] {
			peak[stage] = inflight[stage]
		}
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		inflight[stage]--
		mu.Unlock()
		if strings.Contains(req.Prompt, "Assign the following item") {
			return unit("a"), nil
		}
		return unit("Yes"), nil
	}}
	right := []dataset.Record{
		{ID: "r1", Fields: []dataset.Field{{Name: "name", Value: "side one"}}},
		{ID: "r2", Fields: []dataset.Field{{Name: "name", Value: "side two"}}},
		{ID: "r3", Fields: []dataset.Field{{Name: "name", Value: "side three"}}},
	}
	tables := flavorTables(16)
	tables["right"] = right
	p, err := Compile(Spec{Stages: []StageSpec{
		{Name: "keep", Kind: KindFilter, Field: "name", Predicate: "p"},
		{Name: "cat", Kind: KindCategorize, Field: "name", Categories: []string{"a"}},
		{Name: "match", Kind: KindJoin, Field: "name", Side: "right", Strategy: "nested-loop"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), ExecConfig{Model: model, Parallelism: width}, tables)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Tables["match"]); got != 16*len(right) {
		t.Fatalf("match table has %d rows, want %d", got, 16*len(right))
	}
	for _, stage := range []string{"keep", "cat", "match"} {
		if peak[stage] > width {
			t.Errorf("stage %q had %d asks in flight, want at most %d", stage, peak[stage], width)
		}
	}
	if peak["keep"] != width {
		t.Errorf("stage %q peaked at %d asks in flight with 16 records ready, want the full window %d", "keep", peak["keep"], width)
	}
}

// jitterModel delays a prompt-determined quarter of the calls, so records
// overtake each other on every edge the same way on every run.
func jitterModel(m llm.Model) llm.Model {
	slow := llm.WithLatency(m, 2*time.Millisecond)
	return llm.Func{ModelName: m.Name(), Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		h := fnv.New32a()
		h.Write([]byte(req.Prompt))
		if h.Sum32()%4 == 0 {
			return slow.Complete(ctx, req)
		}
		return m.Complete(ctx, req)
	}}
}

// randomWindowSpec draws one pipeline over the restaurants tables: an
// optional leading resolve barrier, one to four per-record stages (filters
// — adjacent ones form a segment under Adaptive — direct categorize,
// fixed-strategy impute, at most one nested-loop join against a static or
// a dynamic side), and an optional trailing count. dynamic reports whether
// the join's side is the "pool" stage's stream.
func randomWindowSpec(rng *rand.Rand) (spec Spec, dynamic bool) {
	var stages []StageSpec
	input := "source"
	add := func(s StageSpec) {
		s.Input = input
		stages = append(stages, s)
		input = s.Name
	}
	joinAt := -1
	n := 1 + rng.Intn(4)
	if rng.Intn(3) == 0 {
		joinAt = rng.Intn(n)
		dynamic = rng.Intn(2) == 0
	}
	if dynamic {
		// The pool and the main path split the source on one deterministic
		// predicate, so the join's two sides never share an ID.
		stages = append(stages, StageSpec{Name: "pool", Kind: KindFilter, Field: "type", Predicate: "poolpred", Input: "source"})
		add(StageSpec{Name: "rest", Kind: KindFilter, Field: "type", Predicate: "restpred"})
	} else if joinAt < 0 && rng.Intn(3) == 0 {
		add(StageSpec{Name: "entities", Kind: KindResolve, Strategy: "pairwise", InvariantFields: []string{"type"}})
	}
	predicates := []string{"the restaurant serves food", "the name is pronounceable", "the place is casual"}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		if i == joinAt {
			side := "right"
			if dynamic {
				side = "pool"
			}
			add(StageSpec{Name: name, Kind: KindJoin, Field: "name", Side: side, Strategy: "nested-loop"})
			continue
		}
		switch rng.Intn(4) {
		case 0, 1:
			f := StageSpec{Name: name, Kind: KindFilter, Field: []string{"name", "type", ""}[rng.Intn(3)],
				Predicate: predicates[rng.Intn(len(predicates))]}
			if rng.Intn(2) == 0 {
				f.Selectivity = 0.2 + 0.6*rng.Float64()
			}
			add(f)
		case 2:
			add(StageSpec{Name: name, Kind: KindCategorize, Field: "name",
				Categories: []string{"diner", "bistro", "grill"}, OutField: "kind" + name})
		case 3:
			add(StageSpec{Name: name, Kind: KindImpute, TargetField: "city", Side: "train",
				Strategy: []string{"knn", "llm", "hybrid"}[rng.Intn(3)], Neighbors: 3, Examples: 2 * rng.Intn(2)})
		}
	}
	if rng.Intn(2) == 0 {
		add(StageSpec{Name: "tally", Kind: KindCount, Field: "name", Predicate: predicates[0], Strategy: "per-item"})
	}
	return Spec{Stages: stages}, dynamic
}

// TestWindowMatchesMaterializedProperty is the byte-identity contract as
// one property: for random specs — filter segments under Adaptive, join
// fan-out, a dynamic side input buffered under Adaptive, a standing
// query's Feed — run under prompt-determined latency at in-flight windows
// 1, 2 and 8, every table (in order), every scalar and every stage's
// record counts equal the Materialized run's, and per-stage attribution
// sums to the run total.
func TestWindowMatchesMaterializedProperty(t *testing.T) {
	tables, _ := SourceSpec{Dataset: "restaurants", Records: 10, Train: 24, Seed: 4}.Tables()
	for i, r := range tables["source"] {
		tables["source"][i] = r.WithoutField("city")
	}
	// The static right side repeats two source records under fresh IDs, so
	// the join has real matches — one left record fans out to two rows.
	for i, j := range []int{1, 5, 1} {
		r := tables["source"][j].Clone()
		r.ID = fmt.Sprintf("right-%d", i)
		tables["right"] = append(tables["right"], r)
	}
	newModel := func() llm.Model {
		oracle := sim.NewNamed("sim-gpt-3.5-turbo")
		for name, want := range map[string]bool{"poolpred": true, "restpred": false} {
			oracle.RegisterPredicate(sim.Predicate{
				Name:  name,
				Match: func(s string) bool { return strings.Contains(s, name) },
				Truth: func(item string) (bool, float64) { return (item == "seafood" || item == "pizza") == want, 1 },
			})
		}
		return jitterModel(oracle)
	}
	covered := map[string]int{}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec, dynamic := randomWindowSpec(rng)
		feed := rng.Intn(2) == 0
		p, err := Compile(spec)
		if err != nil {
			t.Fatalf("seed %d: %v (%+v)", seed, err, spec)
		}
		run := func(cfg ExecConfig) *Result {
			t.Helper()
			cfg.Model = newModel()
			runTables := tables
			if feed && !cfg.Materialized {
				source := tables["source"]
				runTables = map[string][]dataset.Record{"source": source[:4], "train": tables["train"], "right": tables["right"]}
				cfg.Feed = feedRecords(source[4:7], source[7:])
			}
			res, err := p.Run(context.Background(), cfg, runTables)
			if err != nil {
				t.Fatalf("seed %d %+v: %v", seed, spec.Stages, err)
			}
			return res
		}
		want := run(ExecConfig{Materialized: true})
		if dynamic {
			covered["dynamic side"]++
		}
		if feed {
			covered["feed"]++
		}
		covered["segment"] += len(adaptiveSegments(p.specs))
		for _, s := range want.Stages {
			if s.Kind == KindJoin {
				covered["join rows"] += s.Out
			}
		}
		for _, adaptive := range []bool{false, true} {
			// Inside a segment, how many records a member saw — and, for a
			// non-tail member, which it kept — depends on the orders its
			// records ran under; everything else is pinned.
			member, inner := map[string]bool{}, map[string]bool{}
			if adaptive {
				for _, seg := range adaptiveSegments(p.specs) {
					for k, j := range seg {
						member[p.specs[j].Name] = true
						inner[p.specs[j].Name] = k < len(seg)-1
					}
				}
			}
			for _, width := range []int{1, 2, 8} {
				got := run(ExecConfig{Adaptive: adaptive, Parallelism: width})
				label := fmt.Sprintf("seed %d adaptive %v window %d feed %v", seed, adaptive, width, feed)
				if !reflect.DeepEqual(want.Scalars, got.Scalars) {
					t.Fatalf("%s: scalars %v != materialized %v", label, got.Scalars, want.Scalars)
				}
				var sum token.Usage
				for i, s := range got.Stages {
					sum = sum.Add(s.Usage)
					if inner[s.Name] {
						continue
					}
					if !reflect.DeepEqual(want.Tables[s.Name], got.Tables[s.Name]) {
						t.Fatalf("%s: stage %q table differs from materialized\nspec %+v\nwant %v\ngot  %v",
							label, s.Name, spec.Stages, want.Tables[s.Name], got.Tables[s.Name])
					}
					if w := want.Stages[i]; w.Name != s.Name || (w.In != s.In && !member[s.Name]) || w.Out != s.Out {
						t.Fatalf("%s: stage %q in/out %d/%d != materialized %q %d/%d", label, s.Name, s.In, s.Out, w.Name, w.In, w.Out)
					}
				}
				if sum != got.Usage {
					t.Fatalf("%s: stage usage sums to %+v, run total is %+v", label, sum, got.Usage)
				}
			}
		}
	}
	for _, what := range []string{"dynamic side", "feed", "segment", "join rows"} {
		if covered[what] == 0 {
			t.Errorf("the 12 drawn specs never exercised: %s (coverage %v)", what, covered)
		}
	}
	t.Logf("coverage: %v", covered)
}
