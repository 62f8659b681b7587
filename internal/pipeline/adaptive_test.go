package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/llm/sim"
)

// TestAdaptiveSegments pins segment detection: adjacent sole-consumer
// filters group, anything else breaks the chain.
func TestAdaptiveSegments(t *testing.T) {
	filter := func(name, input string) StageSpec {
		return StageSpec{Name: name, Kind: KindFilter, Predicate: "p", Input: input}
	}
	chain, err := normalize([]StageSpec{
		filter("a", "source"), filter("b", "a"), filter("c", "b"),
		{Name: "cat", Kind: KindCategorize, Categories: []string{"x"}, Input: "c"},
		filter("d", "cat"), filter("e", "d"),
	})
	if err != nil {
		t.Fatal(err)
	}
	segs := adaptiveSegments(chain)
	if len(segs) != 2 || !reflect.DeepEqual(segs[0], []int{0, 1, 2}) || !reflect.DeepEqual(segs[1], []int{4, 5}) {
		t.Fatalf("segments = %v, want [[0 1 2] [4 5]]", segs)
	}

	// A second consumer — main input or side table — breaks the chain.
	branched, err := normalize([]StageSpec{
		filter("a", "source"), filter("b", "a"),
		{Name: "match", Kind: KindJoin, Side: "a", Strategy: "nested-loop", Input: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if segs := adaptiveSegments(branched); len(segs) != 0 {
		t.Fatalf("filter with a side-consumed output joined a segment: %v", segs)
	}

	single, err := normalize([]StageSpec{filter("a", "source")})
	if err != nil {
		t.Fatal(err)
	}
	if segs := adaptiveSegments(single); len(segs) != 0 {
		t.Fatalf("lone filter formed a segment: %v", segs)
	}
}

// TestAdaptiveMatchesMaterialized pins the adaptive runtime's identity on
// the sim model: an adaptive run — segment replanning between records —
// produces byte-identical final tables and scalars to a materialized run
// and to plain streaming runs, at in-flight windows 1, 3 and 16.
func TestAdaptiveMatchesMaterialized(t *testing.T) {
	tables, _ := SourceSpec{Dataset: "restaurants", Records: 14, Train: 30, Seed: 9}.Tables()
	for i, r := range tables["source"] {
		tables["source"][i] = r.WithoutField("city")
	}
	// Two adjacent hintless filters form a replannable segment; the
	// surrounding stages exercise barrier (resolve, count) and streaming
	// (impute) paths.
	spec := Spec{Stages: []StageSpec{
		{Name: "entities", Kind: KindResolve, Strategy: "pairwise", InvariantFields: []string{"type"}},
		{Name: "served", Kind: KindFilter, Field: "type", Predicate: "the restaurant serves food"},
		{Name: "named", Kind: KindFilter, Field: "name", Predicate: "the name is pronounceable"},
		{Name: "city", Kind: KindImpute, TargetField: "city", Side: "train", Strategy: "hybrid", Neighbors: 3, Examples: 2},
		{Name: "n", Kind: KindCount, Field: "city", Predicate: "q", Strategy: "per-item"},
	}}
	run := func(cfg ExecConfig) *Result {
		t.Helper()
		p, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Model = sim.NewNamed("sim-gpt-3.5-turbo")
		res, err := p.Run(context.Background(), cfg, tables)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(ExecConfig{Materialized: true})
	for _, width := range []int{1, 3, 16} {
		got := run(ExecConfig{Parallelism: width})
		if !reflect.DeepEqual(want.Tables, got.Tables) || !reflect.DeepEqual(want.Scalars, got.Scalars) {
			t.Fatalf("window %d differs from materialized", width)
		}
		got = run(ExecConfig{Adaptive: true, Parallelism: width})
		// Segment-internal tables may legitimately differ when the order
		// was revised mid-run; everything downstream of the segment — and
		// the segment's own output — must be byte-identical.
		for _, stage := range []string{"entities", "named", "city", "n"} {
			if !reflect.DeepEqual(want.Tables[stage], got.Tables[stage]) {
				t.Fatalf("adaptive window %d: stage %q table differs from materialized", width, stage)
			}
		}
		if !reflect.DeepEqual(want.Scalars, got.Scalars) {
			t.Fatalf("adaptive window %d: scalars %v != %v", width, got.Scalars, want.Scalars)
		}
	}
}

// TestAdaptiveSideInputOverlap is the overlap contract: with Adaptive
// set, a streamable join whose right side is an earlier stage's output
// starts matching buffered main-input records as soon as the side table
// lands — while the main-input producer is still working. The model
// blocks the producer's last record until a join comparison arrives; the
// drain-first path would deadlock here (guarded by a timeout), exactly
// like the plain streaming overlap test.
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
		Model: splitModel("overlap-side", gate, onJoin), Adaptive: true, Parallelism: 1,
	}, flavorTables(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables["match"]) != 4 {
		t.Fatalf("match table has %d rows, want 2x2", len(res.Tables["match"]))
	}

	// Equivalence: the overlapped run must match the barrier (drain-first)
	// run of the same spec record for record.
	runWith := func(adaptive bool) []dataset.Record {
		t.Helper()
		p, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(context.Background(), ExecConfig{
			Model: splitModel("calm", nil, nil), Adaptive: adaptive,
		}, flavorTables(4))
		if err != nil {
			t.Fatal(err)
		}
		return res.Tables["match"]
	}
	if want, got := runWith(false), runWith(true); !reflect.DeepEqual(want, got) {
		t.Fatalf("overlapped side join differs from drain-first:\nwant %v\ngot  %v", want, got)
	}
}

// TestAdaptiveSideOverlapFailureNoLeak covers the buffering path's
// failure contract, mirroring TestStreamingCancellationNoLeak: a join
// erroring while overlapped with its producers must cancel the run,
// surface its own stage as the root cause, and leave no goroutine behind
// (replay feeder included). Run with -race in CI.
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
	_, err = p.Run(context.Background(), ExecConfig{Model: model, Adaptive: true, Parallelism: 1}, flavorTables(6))
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

// TestMidRunReplanReordersFilters is the mid-run re-optimization pin:
// two hintless filters start in user order (estimates tie at the 0.5
// prior), the observed keep rates diverge within a few records, and the
// segment flips the genuinely tighter filter to the front for the
// not-yet-started remainder of the stream — spending fewer loose-filter
// evaluations than the static order would, with the final table
// unchanged.
func TestMidRunReplanReordersFilters(t *testing.T) {
	names := dataset.FlavorNames()
	model := llm.Func{ModelName: "replan", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		if strings.Contains(req.Prompt, "tightpred") {
			if strings.Contains(req.Prompt, names[0]) {
				return unit("Yes"), nil
			}
			return unit("No"), nil
		}
		return unit("Yes"), nil
	}}
	spec := Spec{Stages: []StageSpec{
		{Name: "loose", Kind: KindFilter, Field: "name", Predicate: "loosepred"},
		{Name: "tight", Kind: KindFilter, Field: "name", Predicate: "tightpred"},
	}}
	n := 16
	run := func(adaptive bool) *Result {
		t.Helper()
		p, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(context.Background(), ExecConfig{
			Model: model, Adaptive: adaptive, Parallelism: 1,
		}, flavorTables(n))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static, adaptive := run(false), run(true)
	if !reflect.DeepEqual(static.Tables["tight"], adaptive.Tables["tight"]) {
		t.Fatalf("replanned segment output differs:\nstatic   %v\nadaptive %v",
			static.Tables["tight"], adaptive.Tables["tight"])
	}
	if len(adaptive.Tables["tight"]) != 1 {
		t.Fatalf("segment kept %d records, want 1", len(adaptive.Tables["tight"]))
	}
	tail := stageByName(t, adaptive, "tight")
	if !strings.Contains(tail.Detail, "order revised") || strings.Contains(tail.Detail, "revised 0 times") {
		t.Fatalf("segment never replanned: detail = %q", tail.Detail)
	}
	// After the flip, the loose filter only sees records the tight filter
	// kept — strictly fewer evaluations than the static order's full n.
	loose := stageByName(t, adaptive, "loose")
	if loose.In >= n {
		t.Fatalf("loose filter evaluated %d records, want fewer than %d after the replan", loose.In, n)
	}
	if st := stageByName(t, static, "loose"); st.In != n {
		t.Fatalf("static run's loose filter evaluated %d, want all %d", st.In, n)
	}

	// Isolated keeps per-stage engines, which a segment would share —
	// the same adaptive run under Isolated must not form one.
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := p.Run(context.Background(), ExecConfig{
		Model: model, Adaptive: true, Isolated: true, Parallelism: 1,
	}, flavorTables(n))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(static.Tables["tight"], iso.Tables["tight"]) {
		t.Fatalf("isolated adaptive output differs from static: %v", iso.Tables["tight"])
	}
	if d := stageByName(t, iso, "tight").Detail; strings.Contains(d, "adaptive segment") {
		t.Fatalf("isolated run formed a segment: detail = %q", d)
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
// (nothing buffered, the stage is blocked waiting for its first record) or
// flooding (records always ready, so the select could keep choosing the
// receive case without the explicit poll at the top of each turn) — and
// in both cases every record goroutine it started has exited by the time
// it returns.
func TestWindowCancellation(t *testing.T) {
	var running atomic.Int32
	task := func(ctx context.Context, _ dataset.Record) (struct{}, error) {
		running.Add(1)
		defer running.Add(-1)
		<-ctx.Done()
		return struct{}{}, ctx.Err()
	}
	done := func(_ seqRecord, _ struct{}, err error) error { return err }
	env := func() *Env { return &Env{width: 2, stats: &stageStats{stage: "s"}} }

	// Idle upstream: block on an open, empty channel; cancel mid-wait.
	idle := make(chan seqRecord)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	finished := make(chan error, 1)
	go func() {
		_, err := window(ctx, env(), idle, func() error { return nil }, task, done)
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
	busy := make(chan seqRecord, 4)
	for i := 0; i < 4; i++ {
		busy <- seqRecord{int64(i), dataset.Record{ID: fmt.Sprintf("r%d", i)}}
	}
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if n, err := window(cctx, env(), busy, func() error { return nil }, task, done); err == nil || n != 0 {
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
	if _, err := window(mctx, env(), busy, func() error { return nil }, task, done); err == nil {
		t.Fatal("window returned nil after a mid-flight cancellation")
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("window returned with %d record goroutines still running", n)
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
	_, err = p.Run(ctx, ExecConfig{Model: model, Adaptive: true, Parallelism: 1}, flavorTables(4))
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("run took %s to notice cancellation with an idle upstream", elapsed)
	}
}
