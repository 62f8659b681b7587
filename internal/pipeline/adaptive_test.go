package pipeline

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/workflow"
)

// TestAdaptiveSideInputOverlap is the overlap contract: a streamable join
// whose right side is an earlier stage's output starts matching the
// main-input records its start gate held as soon as the side table lands
// — while the main-input producer is still working. The model blocks the
// producer's last record until a join comparison arrives; the drain-first
// (Materialized) schedule would deadlock here (guarded by a timeout),
// exactly like the plain streaming overlap test. Both schedules match the
// reference run (runReference) record for record.
func TestAdaptiveSideInputOverlap(t *testing.T) {
	names := dataset.FlavorNames()
	// splitModel: "poolpred" keeps even-indexed flavors, "feedpred" keeps
	// odd ones (join inputs must not share IDs); gate, when non-nil,
	// blocks feedpred's evaluation of the last flavor until released.
	splitModel := func(name string, gate func(ctx context.Context) error, onJoin func()) llm.Func {
		return llm.Func{ModelName: name, Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			if strings.Contains(req.Prompt, "satisfy the condition") {
				idx := -1
				for i, n := range names[:4] {
					if strings.Contains(req.Prompt, n) {
						idx = i
						break
					}
				}
				feed := strings.Contains(req.Prompt, "feedpred")
				if feed && idx == 3 && gate != nil {
					if err := gate(ctx); err != nil {
						return llm.Response{}, err
					}
				}
				if idx >= 0 && (idx%2 == 1) == feed {
					return unit("Yes"), nil
				}
				return unit("No"), nil
			}
			if onJoin != nil {
				onJoin()
			}
			return unit("Yes"), nil
		}}
	}
	release := make(chan struct{})
	var joins atomic.Int32
	gate := func(ctx context.Context) error {
		select {
		case <-release:
			return nil
		case <-time.After(10 * time.Second):
			t.Error("feed's last record ran before any join comparison: side materialization did not overlap the main path")
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	onJoin := func() {
		if joins.Add(1) == 1 {
			close(release)
		}
	}
	spec := Spec{Stages: []StageSpec{
		{Name: "pool", Kind: KindFilter, Field: "name", Predicate: "poolpred", Input: "source"},
		{Name: "feed", Kind: KindFilter, Field: "name", Predicate: "feedpred", Input: "source"},
		{Name: "match", Kind: KindJoin, Field: "name", Side: "pool", Strategy: "nested-loop", Input: "feed"},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), ExecConfig{
		Model: splitModel("overlap-side", gate, onJoin), Parallelism: 1,
	}, flavorTables(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables["match"]) != 4 {
		t.Fatalf("match table has %d rows, want 2x2", len(res.Tables["match"]))
	}

	// Equivalence: the overlapped run and the drain-first (Materialized)
	// run must match the reference run of the same spec record for record.
	ref, err := runReference(context.Background(), p, ExecConfig{Model: splitModel("calm", nil, nil)}, flavorTables(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, materialized := range []bool{false, true} {
		res, err := p.Run(context.Background(), ExecConfig{
			Model: splitModel("calm", nil, nil), Materialized: materialized,
		}, flavorTables(4))
		if err != nil {
			t.Fatal(err)
		}
		if want, got := ref.Tables["match"], res.Tables["match"]; !reflect.DeepEqual(want, got) {
			t.Fatalf("materialized %v: side join differs from the reference:\nwant %v\ngot  %v", materialized, want, got)
		}
	}
}

// TestAdaptiveSideOverlapFailureNoLeak covers the side-gated window's
// failure contract, mirroring TestStreamingCancellationNoLeak: a join
// erroring while overlapped with its producers must cancel the run,
// surface its own stage as the root cause, and leave no goroutine behind.
// Run with -race in CI.
func TestAdaptiveSideOverlapFailureNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	names := dataset.FlavorNames()
	model := llm.Func{ModelName: "side-poison", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		if strings.Contains(req.Prompt, "satisfy the condition") {
			idx := -1
			for i, n := range names[:6] {
				if strings.Contains(req.Prompt, n) {
					idx = i
					break
				}
			}
			// Disjoint halves, so the join's inputs share no IDs.
			if idx >= 0 && (idx%2 == 1) == strings.Contains(req.Prompt, "feedpred") {
				return unit("Yes"), nil
			}
			return unit("No"), nil
		}
		return llm.Response{}, fmt.Errorf("join comparison explosion")
	}}
	spec := Spec{Stages: []StageSpec{
		{Name: "pool", Kind: KindFilter, Field: "name", Predicate: "poolpred", Input: "source"},
		{Name: "feed", Kind: KindFilter, Field: "name", Predicate: "feedpred", Input: "source"},
		{Name: "match", Kind: KindJoin, Field: "name", Side: "pool", Strategy: "nested-loop", Input: "feed"},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(context.Background(), ExecConfig{Model: model, Parallelism: 1}, flavorTables(6))
	if err == nil || !strings.Contains(err.Error(), "join comparison explosion") || !strings.Contains(err.Error(), `"match"`) {
		t.Fatalf("err = %v, want the join stage's root cause", err)
	}
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

// TestAdaptiveFieldIsInert pins that ExecConfig.Adaptive selects nothing:
// filter order is fixed before launch, so a loose → tight filter chain
// run with the field set — serial or four records in flight, under
// prompt-determined latency — reports exactly the tables, scalars and
// per-stage record counts of a Materialized run, every time. A poisoned
// record under OnRecordQuarantine is dropped alone, as in any other run.
func TestAdaptiveFieldIsInert(t *testing.T) {
	const n = 24
	source := make([]dataset.Record, n)
	for i := range source {
		source[i] = dataset.Record{ID: fmt.Sprintf("scoop-%02d", i),
			Fields: []dataset.Field{{Name: "name", Value: fmt.Sprintf("scoop %02d", i)}}}
	}
	tight := []string{"scoop 03", "scoop 09", "scoop 15", "scoop 21"}
	newModel := func(poison string) llm.Model {
		return jitterModel(llm.Func{ModelName: "inert", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			if strings.Contains(req.Prompt, "tightpred") {
				for _, name := range tight {
					if strings.Contains(req.Prompt, name) {
						return unit("Yes"), nil
					}
				}
				return unit("No"), nil
			}
			if poison != "" && strings.Contains(req.Prompt, poison) {
				return llm.Response{}, fmt.Errorf("permanent upstream failure")
			}
			h := fnv.New32a()
			h.Write([]byte(req.Prompt))
			if h.Sum32()%5 == 0 {
				return unit("No"), nil
			}
			return unit("Yes"), nil
		}})
	}
	spec := Spec{Stages: []StageSpec{
		{Name: "loose", Kind: KindFilter, Field: "name", Predicate: "loosepred"},
		{Name: "tight", Kind: KindFilter, Field: "name", Predicate: "tightpred"},
	}}
	run := func(cfg ExecConfig, poison string) *Result {
		t.Helper()
		p, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Model = newModel(poison)
		res, err := p.Run(context.Background(), cfg, map[string][]dataset.Record{"source": source})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	flow := func(res *Result) [][2]int {
		var io [][2]int
		for _, s := range res.Stages {
			io = append(io, [2]int{s.In, s.Out})
		}
		return io
	}

	want := run(ExecConfig{Materialized: true}, "")
	if l, k := len(want.Tables["loose"]), len(want.Tables["tight"]); k == 0 || l == n || k > len(tight) {
		t.Fatalf("materialized chain kept %d then %d of %d records: the fixture no longer filters", l, k, n)
	}
	for _, width := range []int{1, 4} {
		for i := 0; i < 30; i++ {
			got := run(ExecConfig{Adaptive: true, Parallelism: width}, "")
			if !reflect.DeepEqual(want.Tables, got.Tables) || !reflect.DeepEqual(want.Scalars, got.Scalars) {
				t.Fatalf("window %d run %d: tables differ from materialized:\nwant %v\ngot  %v", width, i, want.Tables, got.Tables)
			}
			if !reflect.DeepEqual(flow(want), flow(got)) {
				t.Fatalf("window %d run %d: stage in/out %v != materialized %v", width, i, flow(got), flow(want))
			}
		}
	}

	// Degraded mode: the poisoned record is quarantined by the stage that
	// failed on it, and the run reports what any other run would.
	quarantine := ExecConfig{OnRecordError: OnRecordQuarantine, Parallelism: 4}
	ref := run(quarantine, "scoop 15")
	quarantine.Adaptive = true
	got := run(quarantine, "scoop 15")
	if got.Quarantined != 1 || stageByName(t, got, "loose").Quarantined != 1 {
		t.Fatalf("quarantined %d (loose %d), want exactly the poisoned record",
			got.Quarantined, stageByName(t, got, "loose").Quarantined)
	}
	if !reflect.DeepEqual(ref.Tables, got.Tables) || !reflect.DeepEqual(flow(ref), flow(got)) {
		t.Fatalf("quarantined run differs from the default executor:\nwant %v %v\ngot  %v %v",
			ref.Tables, flow(ref), got.Tables, flow(got))
	}
}

func stageByName(t *testing.T, res *Result, name string) StageReport {
	t.Helper()
	for _, s := range res.Stages {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no stage %q in report", name)
	return StageReport{}
}

// TestWindowCancellation is the regression pin on the streaming loop: a
// cancelled context must end it promptly whether the upstream is idle
// (nothing buffered, the stage is blocked waiting for its first record),
// flooding (records always ready, so the select could keep choosing the
// receive case without the explicit poll at the top of each turn) or warm
// (the stage answers cached records inline, so it never blocks at all) —
// and in every case each record goroutine it started has exited by the
// time it returns.
func TestWindowCancellation(t *testing.T) {
	var running atomic.Int32
	// uncached returns a task for records the cache cannot answer: the
	// window's probe of a record misses, and the record's real ask waits
	// upstream until the context ends. A record named in hits is answered
	// by its probe instead.
	uncached := func(hits map[string]bool) func(context.Context, dataset.Record) (struct{}, error) {
		var mu sync.Mutex
		probed := map[string]bool{}
		return func(ctx context.Context, r dataset.Record) (struct{}, error) {
			mu.Lock()
			probe := !probed[r.ID]
			probed[r.ID] = true
			mu.Unlock()
			switch {
			case probe && hits[r.ID]:
				return struct{}{}, nil
			case probe:
				return struct{}{}, workflow.ErrNotCached
			}
			running.Add(1)
			defer running.Add(-1)
			<-ctx.Done()
			return struct{}{}, ctx.Err()
		}
	}
	task := uncached(nil)
	done := func(_ seqRecord, _ struct{}, err error) error { return err }
	flush := func() error { return nil } // nothing downstream
	noGroup := func() (groupTask[struct{}], error) { return nil, nil }
	env := func() *Env { return &Env{slots: soloSlots(2), stats: &stageStats{stage: "s"}} }

	// Idle upstream: block on an open, empty channel; cancel mid-wait.
	idle := newEdge(0)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	finished := make(chan error, 1)
	go func() {
		_, err := window(ctx, env(), idle, noGroup, task, done, nil, flush)
		finished <- err
	}()
	select {
	case err := <-finished:
		if err == nil {
			t.Fatal("window returned nil on a cancelled idle upstream")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("window did not return promptly after cancellation during an idle upstream")
	}

	// Flooding upstream: the channel always has a record ready and the
	// window has free slots, and the context is already cancelled — the
	// poll must surface the cancellation before a single record starts.
	flood := make([]seqRecord, 4)
	for i := range flood {
		flood[i] = seqRecord{seq: int64(i), rec: dataset.Record{ID: fmt.Sprintf("r%d", i)}}
	}
	busy := runEdge(1, flood)
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if n, err := window(cctx, env(), busy, noGroup, task, done, nil, flush); err == nil || n != 0 {
		t.Fatalf("window started %d records under a cancelled context (err = %v)", n, err)
	}

	// Mid-flight: two records in flight when the cancel lands; window must
	// wait them out before returning.
	mctx, mcancel := context.WithCancel(context.Background())
	go func() {
		for running.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		mcancel()
	}()
	if _, err := window(mctx, env(), busy, noGroup, task, done, nil, flush); err == nil {
		t.Fatal("window returned nil after a mid-flight cancellation")
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("window returned with %d record goroutines still running", n)
	}

	// Warm upstream: 64 records ready in runs of 8, every eighth one a miss
	// that runs on a goroutine and the rest hits answered inline. The cancel
	// lands inside done while the stage is answering hits, in the middle of
	// the second run; the window must stop at the next record with the
	// context's error and wait out the misses.
	before := runtime.NumGoroutine()
	const n, cancelAt = 64, 10
	ready := make([]seqRecord, n)
	hits := map[string]bool{}
	for i := range ready {
		id := fmt.Sprintf("w%d", i)
		hits[id] = i%8 != 1
		ready[i] = seqRecord{seq: int64(i), rec: dataset.Record{ID: id}}
	}
	var runs [][]seqRecord
	for lo := 0; lo < n; lo += 8 {
		runs = append(runs, ready[lo:lo+8])
	}
	warm := runEdge(len(runs), runs...)
	wctx, wcancel := context.WithCancel(context.Background())
	answered := 0
	cancelling := func(r seqRecord, out struct{}, err error) error {
		if err == nil {
			if answered++; answered == cancelAt {
				wcancel()
			}
		}
		return done(r, out, err)
	}
	consumed, err := window(wctx, &Env{slots: soloSlots(4), stats: &stageStats{stage: "s"}}, warm, noGroup, uncached(hits), cancelling, nil, flush)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("window cancelled mid-stream of inline hits returned %v, want the context's error", err)
	}
	if answered != cancelAt || consumed >= n {
		t.Fatalf("window answered %d records inline and consumed %d of %d after the cancel at %d", answered, consumed, n, cancelAt)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("window returned with %d record goroutines still running", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdaptiveIdleUpstreamCancellation is the end-to-end version: cancel
// the caller's context while a downstream stage idles with an empty
// window, waiting for a slow producer, and the whole run must return
// promptly.
func TestAdaptiveIdleUpstreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	model := llm.Func{ModelName: "slow", Fn: func(mctx context.Context, req llm.Request) (llm.Response, error) {
		// The filter never answers: downstream categorize idles on its
		// input the whole run.
		select {
		case <-mctx.Done():
			return llm.Response{}, mctx.Err()
		case <-time.After(30 * time.Second):
			return unit("Yes"), nil
		}
	}}
	spec := Spec{Stages: []StageSpec{
		{Name: "keep", Kind: KindFilter, Predicate: "p"},
		{Name: "cat", Kind: KindCategorize, Categories: []string{"a"}},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = p.Run(ctx, ExecConfig{Model: model, Parallelism: 1}, flavorTables(4))
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("run took %s to notice cancellation with an idle upstream", elapsed)
	}
}
