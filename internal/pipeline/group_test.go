package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/workflow"
)

// TestWindowGroupsEmitPerRecord runs one impute group through the window:
// four records admitted together, past the crossover (a 600-row train
// table), so they share one blocked k-NN pass. Two of them need the model
// and two are decided by the vote. While both asks are held upstream the
// two decided records must already be downstream — a group holds no
// record back behind another — and the asked ones follow when released.
// With one contested record's answer already cached, that record is
// answered on the group goroutine and goes downstream while its uncached
// group-mate's ask is still held. Cancelled mid-group instead, the window
// must return an error and leave no goroutine behind.
func TestWindowGroupsEmitPerRecord(t *testing.T) {
	ds := dataset.GenerateRestaurants(600, 60, 3)
	spec := StageSpec{Name: "fill", Kind: KindImpute, TargetField: ds.TargetField, Side: "train", Strategy: "hybrid", Neighbors: 3}
	tables := map[string][]dataset.Record{"train": ds.Train}

	// Sort held-out records into those the vote decides and those it
	// leaves to the model.
	ref, err := core.New(llm.Func{ModelName: "ref", Fn: func(context.Context, llm.Request) (llm.Response, error) {
		return unit("x"), nil
	}}).PrepareImpute(core.ImputeRequest{Train: ds.Train, TargetField: spec.TargetField, Strategy: core.ImputeHybrid, Neighbors: spec.Neighbors})
	if err != nil {
		t.Fatal(err)
	}
	var contested, decided []dataset.Record
	for _, r := range ds.Test {
		a, err := ref.Ask(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if a.ByLLM {
			contested = append(contested, r.WithoutField(spec.TargetField))
		} else {
			decided = append(decided, r.WithoutField(spec.TargetField))
		}
	}
	if len(contested) < 2 || len(decided) < 2 {
		t.Fatalf("%d contested and %d decided records; the test needs two of each", len(contested), len(decided))
	}
	group := []dataset.Record{contested[0], decided[0], contested[1], decided[1]}

	// held is the model every run asks: each ask is announced on asked and
	// held until release closes.
	held := func(asked chan<- struct{}, release <-chan struct{}) llm.Model {
		return llm.Func{ModelName: "held", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			asked <- struct{}{}
			select {
			case <-release:
				return unit("somewhere"), nil
			case <-ctx.Done():
				return llm.Response{}, ctx.Err()
			}
		}}
	}
	// run starts the stage's window over the group, all four records
	// waiting before it starts, with asks held until release closes, on
	// layer's cache (a private one when layer is nil).
	run := func(ctx context.Context, release <-chan struct{}, layer *workflow.ExecLayer) (asked chan struct{}, emitted <-chan seqRecord, finished chan error) {
		asked = make(chan struct{}, len(group))
		reg := embed.NewRegistry()
		opts := []core.Option{core.WithIndexRegistry(reg)}
		if layer != nil {
			opts = append(opts, core.WithExecutionLayer(layer))
		}
		env := &Env{Engine: core.New(held(asked, release), opts...), Tables: tables, slots: soloSlots(len(group)),
			stats: &stageStats{stage: spec.Name}, run: &runState{details: make(map[string]string)}}
		waiting := make([]seqRecord, len(group))
		for i, r := range group {
			waiting[i] = seqRecord{seq: int64(i), rec: r}
		}
		in := runEdge(1, waiting)
		close(in.runs)
		downstream := newEdge(len(group))
		emitted = records(downstream, len(group))
		out := &streamOut{done: make(chan struct{}), subs: []*edge{downstream}}
		finished = make(chan error, 1)
		go func() {
			st := &groupCounter{imputeStage: imputeStage{baseStage{spec}}}
			n, err := runWindow(ctx, env, in, st, out)
			out.closeSubs()
			switch {
			case err != nil:
			case n != len(group):
				err = errors.New("window consumed the wrong number of records")
			case fmt.Sprint(st.sizes) != fmt.Sprint([]int{len(group)}):
				err = fmt.Errorf("window ran groups of %v, want one of all %d records", st.sizes, len(group))
			}
			if c, _ := reg.ScanStats(); err == nil && c == 0 {
				err = errors.New("no query was certified: the group did not take the blocked pass")
			}
			finished <- err
		}()
		return asked, emitted, finished
	}
	within := func() <-chan time.Time { return time.After(10 * time.Second) }
	awaitAsks := func(asked chan struct{}, n int) {
		for i := 0; i < n; i++ {
			select {
			case <-asked:
			case <-within():
				t.Fatal("the group's two contested records never reached the model")
			}
		}
	}

	t.Run("decided records are not held back", func(t *testing.T) {
		release := make(chan struct{})
		asked, emitted, finished := run(context.Background(), release, nil)
		awaitAsks(asked, 2)
		for i := 0; i < 2; i++ {
			select {
			case r := <-emitted:
				if r.seq != 1 && r.seq != 3 {
					t.Fatalf("record %d was emitted while its ask was held", r.seq)
				}
			case <-within():
				t.Fatal("a decided record waited on its group-mates' asks")
			}
		}
		close(release)
		for i := 0; i < 2; i++ {
			select {
			case r := <-emitted:
				if got, _ := r.rec.Get(spec.TargetField); got != "somewhere" {
					t.Fatalf("record %d came back with %q, not the model's answer", r.seq, got)
				}
			case <-within():
				t.Fatal("a released ask never reached downstream")
			}
		}
		if err := <-finished; err != nil {
			t.Fatal(err)
		}
	})

	t.Run("a cached contested record is not held back", func(t *testing.T) {
		layer := workflow.NewExecLayer()
		open := make(chan struct{})
		close(open)
		warm, err := core.New(held(make(chan struct{}, 1), open), core.WithExecutionLayer(layer)).PrepareImpute(
			core.ImputeRequest{Train: ds.Train, TargetField: spec.TargetField, Strategy: core.ImputeHybrid, Neighbors: spec.Neighbors})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := warm.Ask(context.Background(), contested[0]); err != nil {
			t.Fatal(err)
		}
		release := make(chan struct{})
		asked, emitted, finished := run(context.Background(), release, layer)
		awaitAsks(asked, 1)
		for i := 0; i < 3; i++ {
			select {
			case r := <-emitted:
				if r.seq == 2 {
					t.Fatal("the uncached contested record was emitted while its ask was held")
				}
				if got, _ := r.rec.Get(spec.TargetField); r.seq == 0 && got != "somewhere" {
					t.Fatalf("the cached contested record came back with %q, not the cached answer", got)
				}
			case <-within():
				t.Fatal("a cached or decided record waited on its group-mate's ask")
			}
		}
		select {
		case <-asked:
			t.Fatal("the cached contested record asked the model")
		default:
		}
		close(release)
		select {
		case r := <-emitted:
			if r.seq != 2 {
				t.Fatalf("record %d emitted last, want the held record 2", r.seq)
			}
		case <-within():
			t.Fatal("the released ask never reached downstream")
		}
		if err := <-finished; err != nil {
			t.Fatal(err)
		}
	})

	t.Run("cancelled mid-group", func(t *testing.T) {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		asked, _, finished := run(ctx, make(chan struct{}), nil)
		awaitAsks(asked, 2)
		cancel()
		select {
		case err := <-finished:
			if err == nil {
				t.Fatal("a window cancelled mid-group reported success")
			}
		case <-within():
			t.Fatal("the window did not return after cancellation")
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// groupCounter is an impute stage whose group form records the size of
// every group the window hands it.
type groupCounter struct {
	imputeStage
	mu    sync.Mutex
	sizes []int
}

func (s *groupCounter) Prepare(env *Env) (recordOp, error) {
	op, err := s.imputeStage.Prepare(env)
	if inner := op.group; inner != nil {
		op.group = func(ctx context.Context, rs []dataset.Record, emit func(int, []dataset.Record, error)) {
			s.mu.Lock()
			s.sizes = append(s.sizes, len(rs))
			s.mu.Unlock()
			inner(ctx, rs, emit)
		}
	}
	return op, err
}

// TestTableKeysSkipDynamicSide: a table key names the static table it was
// given for, never a stage output of the same name that replaces it as a
// side input. Run A imputes from a stage named "train" (the source, which
// carries the target, through a filter) while a static "train" table
// carries a key; run B then imputes from the static table under that key
// through the same registry, and must answer as a run on a fresh registry
// does — had A filed its index under the key, B would be served A's.
func TestTableKeysSkipDynamicSide(t *testing.T) {
	ds := dataset.GenerateRestaurants(600, 12, 7)
	tables := map[string][]dataset.Record{"source": ds.Test, "train": ds.Train}
	keys := map[string]embed.SourceKey{"train": {1, 2, 3}}
	model := llm.Func{ModelName: "yes", Fn: func(context.Context, llm.Request) (llm.Response, error) { return unit("Yes"), nil }}
	impute := StageSpec{Name: "fill", Kind: KindImpute, Input: "source", TargetField: ds.TargetField, Side: "train", Strategy: "knn", Neighbors: 3}
	run := func(reg *embed.Registry, keys map[string]embed.SourceKey, stages ...StageSpec) []dataset.Record {
		t.Helper()
		p, err := Compile(Spec{Stages: stages})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(context.Background(), ExecConfig{Model: model, Registry: reg, TableKeys: keys}, tables)
		if err != nil {
			t.Fatal(err)
		}
		return res.Tables["fill"]
	}
	reg := embed.NewRegistry()
	run(reg, keys, StageSpec{Name: "train", Kind: KindFilter, Input: "source", Predicate: "keep it"}, impute)
	got := run(reg, keys, impute)
	if want := run(embed.NewRegistry(), nil, impute); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the static table's key served a stage output's index:\ngot  %v\nwant %v", got, want)
	}
}
