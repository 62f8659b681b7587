package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/token"
	"repro/internal/workflow"
)

// stageServes is a ServeObserver that counts serves by the stage tag of
// the context each one is reported with.
type stageServes struct {
	mu           sync.Mutex
	served, free map[string]int
}

func (o *stageServes) ObserveServe(ctx context.Context, free bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.served[workflow.StageTag(ctx)]++
	if free {
		o.free[workflow.StageTag(ctx)]++
	}
}

// TestInlineHitsCountOnce: a streaming stage answers a cached record on
// the stage goroutine and starts a goroutine only for a record that misses,
// and every ask is counted exactly once whichever path served it. One spec
// — a per-item filter, a direct categorize, a majority filter — runs on a
// shared layer that is cold, fully warm, or warm on every other record;
// and once more where each record's first three majority votes are cached
// and the fourth is not, so every probe in that stage hits three times and
// then misses. Each of three streaming runs must count what the
// reference run (runReference, which does not probe) counts on an
// identically pre-warmed layer: free serves (cache hits plus coalesced
// followers), the ServeObserver's served and free serves per stage, the
// run's usage, and every stage's detail.
func TestInlineHitsCountOnce(t *testing.T) {
	tables, _ := SourceSpec{Dataset: "restaurants", Records: 24, Seed: 4}.Tables()
	source := tables["source"]
	spec := Spec{Stages: []StageSpec{
		{Name: "keep", Kind: KindFilter, Field: "type", Predicate: "the restaurant serves food"},
		{Name: "kind", Kind: KindCategorize, Field: "name", Categories: []string{"diner", "bistro", "grill"}},
		{Name: "vote", Kind: KindFilter, Field: "name", Predicate: "the place is casual", Strategy: "majority"},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	// lateVotesFail fails every sampled ask past the third, so a pre-warm
	// through it caches each record's first three majority votes only.
	lateVotesFail := func(m llm.Model) llm.Model {
		return llm.Func{ModelName: m.Name(), Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			if req.Temperature > 0 && req.Seed >= 3 {
				return llm.Response{}, errors.New("vote withheld")
			}
			return m.Complete(ctx, req)
		}}
	}
	var everyOther []dataset.Record
	for i := 0; i < len(source); i += 2 {
		everyOther = append(everyOther, source[i])
	}
	type counts struct {
		free, hits    int
		served, frees map[string]int
		usage         token.Usage
		details       []string
		tables        map[string][]dataset.Record
	}
	// run pre-warms a fresh layer (a skip-mode streaming run of the spec
	// over warmSource through wrap's model; no pre-warm when warmSource is
	// nil), then runs the whole table on it — through runReference when
	// reference is set — and counts the run alone.
	run := func(reference bool, warmSource []dataset.Record, wrap func(llm.Model) llm.Model) counts {
		t.Helper()
		layer := workflow.NewExecLayer()
		model := sim.NewNamed("sim-gpt-3.5-turbo")
		if warmSource != nil {
			warm := map[string][]dataset.Record{"source": warmSource}
			if _, err := p.Run(context.Background(), ExecConfig{Model: wrap(model), Exec: layer, Parallelism: 4,
				OnRecordError: OnRecordSkip}, warm); err != nil {
				t.Fatal(err)
			}
		}
		obs := &stageServes{served: map[string]int{}, free: map[string]int{}}
		layer.SetServeObserver(obs)
		before := layer.Stats()
		cfg := ExecConfig{Model: model, Exec: layer, Parallelism: 4}
		var res *Result
		if reference {
			res, err = runReference(context.Background(), p, cfg, tables)
		} else {
			res, err = p.Run(context.Background(), cfg, tables)
		}
		if err != nil {
			t.Fatal(err)
		}
		after := layer.Stats()
		c := counts{
			free:   after.CacheHits + after.Coalesced - before.CacheHits - before.Coalesced,
			hits:   after.CacheHits - before.CacheHits,
			served: obs.served, frees: obs.free,
			usage: res.Usage, tables: res.Tables,
		}
		for _, s := range res.Stages {
			c.details = append(c.details, s.Name+": "+s.Detail)
		}
		return c
	}
	identity := func(m llm.Model) llm.Model { return m }
	for _, arm := range []struct {
		name       string
		warmSource []dataset.Record
		wrap       func(llm.Model) llm.Model
	}{
		{"cold", nil, identity},
		{"warm", source, identity},
		{"half-warm", everyOther, identity},
		{"early votes warm", source, lateVotesFail},
	} {
		want := run(true, arm.warmSource, arm.wrap)
		for i := 0; i < 3; i++ {
			got := run(false, arm.warmSource, arm.wrap)
			label := fmt.Sprintf("%s, run %d", arm.name, i)
			if !reflect.DeepEqual(got.tables, want.tables) {
				t.Fatalf("%s: tables differ from the reference run", label)
			}
			if got.free != want.free {
				t.Errorf("%s: %d asks served free (cache hits + coalesced), reference %d", label, got.free, want.free)
			}
			if !reflect.DeepEqual(got.served, want.served) || !reflect.DeepEqual(got.frees, want.frees) {
				t.Errorf("%s: observer saw served %v free %v per stage, reference served %v free %v",
					label, got.served, got.frees, want.served, want.frees)
			}
			if got.usage != want.usage {
				t.Errorf("%s: usage %+v, reference %+v", label, got.usage, want.usage)
			}
			if !reflect.DeepEqual(got.details, want.details) {
				t.Errorf("%s: stage details %q, reference %q", label, got.details, want.details)
			}
		}
		switch arm.name {
		case "cold":
			if want.usage.Calls == 0 {
				t.Errorf("%s: the run asked the model nothing", arm.name)
			}
		case "warm":
			if want.usage.Calls != 0 || want.hits == 0 {
				t.Errorf("%s: %d upstream calls and %d hits, want every ask a hit", arm.name, want.usage.Calls, want.hits)
			}
		default:
			if want.usage.Calls == 0 || want.hits == 0 {
				t.Errorf("%s: %d upstream calls and %d hits, want a mix", arm.name, want.usage.Calls, want.hits)
			}
		}
	}
}

// TestWarmWindowAllocs pins what a fully warm streaming run allocates per
// record: 256 records through a filter and a categorize on a warm layer,
// where every record of both stages is answered inline on its stage
// goroutine. Measured at 1.34 objects per record on amd64 (go1.24), where
// a goroutine per record made it 2.56: the run's fixed set-up spread over
// 256 records, and each kept record's output slice and its copy with the
// new field. A goroutine, closure or channel hop per record added back
// fails here, and so does a run sent per record (1.55).
func TestWarmWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	const records, perRecord = 256, 1.5
	tables, _ := SourceSpec{Dataset: "restaurants", Records: records, Train: 12, Seed: 5}.Tables()
	p, err := Compile(Spec{Stages: []StageSpec{
		{Name: "keep", Kind: KindFilter, Field: "type", Predicate: "the restaurant serves food"},
		{Name: "kind", Kind: KindCategorize, Field: "name", Categories: []string{"diner", "bistro", "grill"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExecConfig{Model: sim.NewNamed("sim-gpt-3.5-turbo"), Exec: workflow.NewExecLayer(), Parallelism: 8}
	run := func() {
		if _, err := p.Run(context.Background(), cfg, tables); err != nil {
			t.Fatal(err)
		}
	}
	run() // cold: fills the cache
	before := cfg.Exec.Stats()
	n := testing.AllocsPerRun(5, run) / records
	if st := cfg.Exec.Stats(); st.CacheSize != before.CacheSize {
		t.Fatalf("the warm runs asked upstream: cache grew from %d to %d entries", before.CacheSize, st.CacheSize)
	}
	t.Logf("%.2f allocations per record", n)
	if n > perRecord {
		t.Errorf("a warm run allocates %.2f objects per record, want at most %.2f", n, perRecord)
	}
}
