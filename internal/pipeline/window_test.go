package pipeline

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
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

// TestWindowLendsIdleSlotsDownstream pins the window's slot ledger: each
// streaming stage owns Parallelism slots, and a stage with a backlog also
// runs on the slots of its streaming descendants that they are not using.
// So the head of a chain with 16 records ready and idle descendants goes
// above Parallelism; a stage with no streaming descendant — the chain's
// last stage, and a sibling reading the same source — never does and does
// fill its window; every stage stays within its own slots plus its
// descendants'; and the run never has more asks in flight than its
// streaming stages own. The window admits records, not asks, and every
// per-record operator (the nested-loop join's whole right side included)
// asks one question at a time, so the asks a stage has in flight are its
// slots in use.
func TestWindowLendsIdleSlotsDownstream(t *testing.T) {
	right := []dataset.Record{
		{ID: "r1", Fields: []dataset.Field{{Name: "name", Value: "side one"}}},
		{ID: "r2", Fields: []dataset.Field{{Name: "name", Value: "side two"}}},
		{ID: "r3", Fields: []dataset.Field{{Name: "name", Value: "side three"}}},
	}
	p, err := Compile(Spec{Stages: []StageSpec{
		{Name: "keep", Kind: KindFilter, Field: "name", Predicate: "p"},
		{Name: "cat", Kind: KindCategorize, Field: "name", Categories: []string{"a"}},
		{Name: "match", Kind: KindJoin, Field: "name", Side: "right", Strategy: "nested-loop"},
		{Name: "twin", Kind: KindFilter, Field: "name", Predicate: "q", Input: "source"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	descendants := map[string]int{"keep": 2, "cat": 1, "match": 0, "twin": 0}
	for _, width := range []int{1, 2, 3} {
		var mu sync.Mutex
		inflight, peak := map[string]int{}, map[string]int{}
		total, totalPeak := 0, 0
		model := llm.Func{ModelName: "counting", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			stage := workflow.StageTag(ctx)
			mu.Lock()
			inflight[stage]++
			peak[stage] = max(peak[stage], inflight[stage])
			total++
			totalPeak = max(totalPeak, total)
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			inflight[stage]--
			total--
			mu.Unlock()
			if strings.Contains(req.Prompt, "Assign the following item") {
				return unit("a"), nil
			}
			return unit("Yes"), nil
		}}
		tables := flavorTables(16)
		tables["right"] = right
		res, err := p.Run(context.Background(), ExecConfig{Model: model, Parallelism: width}, tables)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.Tables["match"]); got != 16*len(right) {
			t.Fatalf("width %d: match table has %d rows, want %d", width, got, 16*len(right))
		}
		for stage, d := range descendants {
			if bound := width * (1 + d); peak[stage] > bound {
				t.Errorf("width %d: stage %q had %d asks in flight, want at most %d (its own %d slots and %d descendants')",
					width, stage, peak[stage], bound, width, d)
			}
		}
		for _, stage := range []string{"match", "twin"} {
			if peak[stage] != width {
				t.Errorf("width %d: stage %q with no streaming descendant peaked at %d asks in flight, want its full window %d",
					width, stage, peak[stage], width)
			}
		}
		if peak["keep"] <= width {
			t.Errorf("width %d: stage %q peaked at %d asks in flight with 16 records ready and idle descendants, want more than %d",
				width, "keep", peak["keep"], width)
		}
		if bound := width * len(descendants); totalPeak > bound {
			t.Errorf("width %d: the run had %d asks in flight, want at most %d (%d streaming stages' own slots)",
				width, totalPeak, bound, len(descendants))
		}
	}
}

// TestWindowLendingLiveness: a downstream stage whose asks never return
// on their own holds its own slots for good, and its upstream must still
// run on its own slots to the end of its input, which trickles in. The upstream reaches its
// poisoned record, the run fails with that stage's error, and the
// cancellation it causes unblocks the downstream asks, leaving no
// goroutine behind.
func TestWindowLendingLiveness(t *testing.T) {
	const n = 8
	names := dataset.FlavorNames()
	poison := errors.New("poisoned record")
	p, err := Compile(Spec{Stages: []StageSpec{
		{Name: "up", Kind: KindFilter, Field: "name", Predicate: "p"},
		{Name: "down", Kind: KindCategorize, Field: "name", Categories: []string{"a"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 2} {
		before := runtime.NumGoroutine()
		var blocked atomic.Int32
		model := llm.Func{ModelName: "stuck", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			if workflow.StageTag(ctx) == "down" {
				blocked.Add(1)
				<-ctx.Done()
				return llm.Response{}, ctx.Err()
			}
			if strings.Contains(req.Prompt, names[n-1]) {
				// Poison only once the downstream holds its whole window.
				for deadline := time.Now().Add(10 * time.Second); blocked.Load() < int32(width); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						return llm.Response{}, errors.New("the downstream stage never filled its window")
					}
				}
				return llm.Response{}, poison
			}
			return unit("Yes"), nil
		}}
		// The records trickle in, so the upstream often idles with slots
		// free while the downstream has a backlog: the downstream must not
		// take them.
		source := flavorTables(n)["source"]
		feed := make(chan dataset.Record)
		go func() {
			defer close(feed)
			for _, r := range source[1:] {
				time.Sleep(2 * time.Millisecond)
				feed <- r
			}
		}()
		finished := make(chan error, 1)
		go func() {
			tables := map[string][]dataset.Record{"source": source[:1]}
			_, err := p.Run(context.Background(), ExecConfig{Model: model, Parallelism: width, Feed: feed}, tables)
			finished <- err
		}()
		select {
		case err := <-finished:
			if !errors.Is(err, poison) || !strings.Contains(err.Error(), `stage "up"`) {
				t.Fatalf("width %d: run failed with %v, want the upstream stage's poisoned record", width, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("width %d: the upstream starved behind a downstream stage whose asks never return", width)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("width %d: goroutines leaked: %d before, %d after\n%s",
					width, before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
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
// — adjacent ones form a filter chain — direct categorize, fixed-strategy
// impute, at most one nested-loop join against a static or a dynamic
// side), and an optional trailing count. dynamic reports whether the
// join's side is the "pool" stage's stream.
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

// TestWindowMatchesReferenceProperty is the byte-identity contract as one
// property: for random specs — filter chains, join fan-out, a dynamic
// side input overlapped with its main path, a standing query's Feed — run
// under prompt-determined latency at in-flight windows 1, 2 and 8, cold
// and half-warm, and batched, every table (in order), every scalar and
// every stage's record counts equal the reference run's (runReference:
// core's table operators over each stage's whole input), and per-stage
// attribution sums to the run total, which, unbatched and half-warm,
// equals the reference run's on the same pre-warm.
func TestWindowMatchesReferenceProperty(t *testing.T) {
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
			if feed {
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
		reference := func(cfg ExecConfig, tables map[string][]dataset.Record) *Result {
			t.Helper()
			cfg.Model = newModel()
			res, err := runReference(context.Background(), p, cfg, tables)
			if err != nil {
				t.Fatalf("seed %d %+v: reference: %v", seed, spec.Stages, err)
			}
			return res
		}
		want := reference(ExecConfig{}, tables)
		if dynamic {
			covered["dynamic side"]++
		}
		if feed {
			covered["feed"]++
		}
		for _, s := range p.specs {
			if j := indexOf(p.specs, s.Input); s.Kind == KindFilter && j >= 0 && p.specs[j].Kind == KindFilter {
				covered["filter chain"]++
			}
		}
		for _, s := range want.Stages {
			if s.Kind == KindJoin {
				covered["join rows"] += s.Out
			}
		}
		check := func(label string, got *Result) {
			t.Helper()
			if !reflect.DeepEqual(want.Scalars, got.Scalars) {
				t.Fatalf("%s: scalars %v != reference %v", label, got.Scalars, want.Scalars)
			}
			var sum token.Usage
			for i, s := range got.Stages {
				sum = sum.Add(s.Usage)
				if !reflect.DeepEqual(want.Tables[s.Name], got.Tables[s.Name]) {
					t.Fatalf("%s: stage %q table differs from the reference\nspec %+v\nwant %v\ngot  %v",
						label, s.Name, spec.Stages, want.Tables[s.Name], got.Tables[s.Name])
				}
				if w := want.Stages[i]; w.Name != s.Name || w.In != s.In || w.Out != s.Out {
					t.Fatalf("%s: stage %q in/out %d/%d != reference %q %d/%d", label, s.Name, s.In, s.Out, w.Name, w.In, w.Out)
				}
			}
			if sum != got.Usage {
				t.Fatalf("%s: stage usage sums to %+v, run total is %+v", label, sum, got.Usage)
			}
		}
		// Half-warm: both sides run on a layer pre-warmed by the same random
		// subset of the source, so within one stage the records of the subset
		// are answered inline from the cache while the rest miss and run on
		// goroutines of their own. A dynamic join's side must not come out
		// empty, so the subset holds at least one record the pool keeps.
		var subset []dataset.Record
		pooled := false
		for _, r := range tables["source"] {
			typ, _ := r.Get("type")
			pool := typ == "seafood" || typ == "pizza"
			if rng.Intn(2) == 0 || (dynamic && pool && !pooled) {
				subset = append(subset, r)
				pooled = pooled || pool
			}
		}
		prewarmed := func() *workflow.ExecLayer {
			t.Helper()
			layer := workflow.NewExecLayer()
			warm := map[string][]dataset.Record{"source": subset, "train": tables["train"], "right": tables["right"]}
			reference(ExecConfig{Exec: layer}, warm)
			return layer
		}
		wantWarm := reference(ExecConfig{Exec: prewarmed()}, tables)
		check(fmt.Sprintf("seed %d half-warm reference", seed), wantWarm)
		for _, cfg := range []ExecConfig{{Parallelism: 1}, {Parallelism: 2}, {Parallelism: 8}} {
			mode := fmt.Sprintf("window %d feed %v", cfg.Parallelism, feed)
			check(fmt.Sprintf("seed %d %s", seed, mode), run(cfg))
			label := fmt.Sprintf("seed %d half-warm %s", seed, mode)
			cfg.Exec = prewarmed()
			got := run(cfg)
			check(label, got)
			if got.Usage != wantWarm.Usage {
				t.Fatalf("%s: usage %+v != the reference on the same pre-warm %+v", label, got.Usage, wantWarm.Usage)
			}
		}
		// A batched run cuts its blocks by sequence key, not by position as
		// the reference's table operators do, so it may pack other
		// envelopes and spend otherwise; its tables, scalars and record
		// counts are the reference's all the same.
		check(fmt.Sprintf("seed %d batched feed %v", seed, feed), run(ExecConfig{Parallelism: 2, Batch: 3}))
	}
	for _, what := range []string{"dynamic side", "feed", "filter chain", "join rows"} {
		if covered[what] == 0 {
			t.Errorf("the 12 drawn specs never exercised: %s (coverage %v)", what, covered)
		}
	}
	t.Logf("coverage: %v", covered)
}

// TestRunBufferAllocs pins how a run sizes its buffers, in both
// directions. An unfed, unbatched run gives every edge that no join feeds
// from above no more runs than the source has records, and the result
// buffer of every window on such an edge no more room than that. A fed or
// batched run, and every edge below a join, keeps edgeBuffer runs, and its
// windows a result slot for every record, or block, they can have in
// flight.
func TestRunBufferAllocs(t *testing.T) {
	p, err := Compile(Spec{Stages: []StageSpec{
		{Name: "casual", Kind: KindFilter, Predicate: "p"},
		{Name: "kind", Kind: KindCategorize, Categories: []string{"x"}},
		{Name: "rank", Kind: KindSort, Criterion: "c"},
		{Name: "match", Kind: KindJoin, Side: "right", Strategy: "nested-loop"},
		{Name: "after", Kind: KindFilter, Predicate: "q"},
		{Name: "beside", Kind: KindFilter, Input: "source", Predicate: "r"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	widened := map[string]bool{"after": true}
	source := make([]dataset.Record, 5)
	feed := make(chan dataset.Record)
	for _, tc := range []struct {
		name    string
		cfg     ExecConfig
		bounded bool
	}{
		{"unfed", ExecConfig{}, true},
		{"fed", ExecConfig{Feed: feed}, false},
		{"batched", ExecConfig{Batch: 4}, false},
	} {
		most := p.bounds(tc.cfg, len(source))
		_, inputs := p.wire(source, most)
		slots := p.slotLedger(tc.cfg)
		for i, st := range p.stages {
			bounded := tc.bounded && !widened[st.Name()]
			edge := cap(inputs[st.Name()].runs)
			if bounded && edge > len(source) || !bounded && edge != edgeBuffer {
				t.Errorf("%s run: the edge into %q holds %d runs (bounded %v, %d source records)", tc.name, st.Name(), edge, bounded, len(source))
			}
			if slots[i] == nil {
				continue
			}
			env := &Env{slots: slots[i], batch: tc.cfg.Batch, most: most[i]}
			room, full := env.resultRoom(), slots[i].reach()*max(tc.cfg.Batch, 1)
			if bounded && room != min(full, len(source)) || !bounded && room != full {
				t.Errorf("%s run: %q's window buffers %d results (bounded %v, %d source records, reach × batch %d)", tc.name, st.Name(), room, bounded, len(source), full)
			}
		}
	}
}

func newEdge(capacity int) *edge { return &edge{runs: make(chan []seqRecord, capacity)} }

// runEdge returns an edge of the given capacity with each of runs already
// sent on it, left open.
func runEdge(capacity int, runs ...[]seqRecord) *edge {
	e := newEdge(capacity)
	for _, run := range runs {
		if err := e.send(context.Background(), run); err != nil {
			panic(err)
		}
	}
	return e
}

// records hands on every record sent on e, run by run, through a channel
// with room for capacity of them, which it closes once e has closed.
func records(e *edge, capacity int) <-chan seqRecord {
	out := make(chan seqRecord, capacity)
	go func() {
		defer close(out)
		for run := range e.runs {
			for _, r := range run {
				out <- r
			}
		}
	}()
	return out
}
