package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/resil"
	"repro/internal/token"
	"repro/internal/workflow"
)

// OnRecordError values: what a streaming per-record stage does when one
// record's unit task fails (after the resilience policy, if any, has
// already done its retrying). Barrier stages always fail fast —
// their output depends on the whole table, so dropping records would
// silently change the answer rather than narrow it.
const (
	// OnRecordFail aborts the run on the first record error (the default,
	// and the only pre-existing behaviour).
	OnRecordFail = "fail"
	// OnRecordSkip silently drops exactly the records whose unit task
	// failed, reporting only a count.
	OnRecordSkip = "skip"
	// OnRecordQuarantine is skip plus evidence: dropped records are
	// counted per stage with the first few per-record errors preserved in
	// the StageReport, so a degraded run says exactly what it left out.
	OnRecordQuarantine = "quarantine"
)

// ExecConfig parameterises one pipeline run.
type ExecConfig struct {
	// Model answers every unit task.
	Model llm.Model
	// Embedder overrides the k-NN embedder (default embed.Default()).
	Embedder embed.Embedder
	// Budget caps the whole pipeline; nil runs unlimited (with full
	// accounting either way).
	Budget *workflow.Budget
	// Exec is the shared execution layer (cache + coalescer). Nil builds a
	// fresh layer for the run; pass a persistent one to share across runs —
	// and to let OptimizeProbed's selectivity probes pre-warm the cache the
	// run then reads.
	Exec *workflow.ExecLayer
	// Registry is the shared embedding-index registry. Nil builds a fresh
	// one for the run, which already spans every stage.
	Registry *embed.Registry
	// Feed turns the run into a standing query: records received on the
	// channel join the stream behind the static "source" table, in arrival
	// order, while the pipeline is already executing — per-record stages
	// evaluate each record as it arrives, and barrier stages simply see
	// the longer stream. (A per-record stage with a dynamic side input
	// holds arrivals until the side stage finishes: buffered under
	// Adaptive, drained like a barrier otherwise.) Run returns only after
	// Feed is closed and fully drained, so the caller must feed and close
	// the channel from another goroutine. Temperature-0 results after full
	// ingestion are byte-identical to a batch run whose source table
	// already contained the fed records (pinned by
	// TestStandingQueryMatchesBatch). Nil runs the static table alone.
	Feed <-chan dataset.Record
	// Attribution is the per-stage ledger the run records into; nil builds
	// a fresh one. Pass the same ledger (and Exec) to OptimizeProbed and
	// Run so probe spend appears in the run's report under
	// workflow.StageProbe and the report still sums to the budget total.
	// Use one Attribution per logical run — it accumulates.
	Attribution *workflow.Attribution
	// Batch packs up to this many unit tasks per envelope prompt (<= 1
	// disables batching).
	Batch int
	// Parallelism bounds concurrent LLM calls per operator (default
	// core.DefaultParallelism). It is also each streaming stage's in-flight
	// window: a stage starts a record's unit task the moment the record
	// arrives and fewer than Parallelism are in flight, and hands every
	// finished record downstream at once, so round trips overlap across
	// records and across stages. Parallelism 1 is strictly serial per stage.
	Parallelism int
	// Adaptive enables the adaptive streaming runtime: a streamable stage
	// with a dynamic side input overlaps its main path with the side
	// stage's materialization — buffering arrivals in memory until the
	// side table lands — instead of draining first, and runs of adjacent
	// commutable filter stages may be re-ordered between records as
	// observed selectivities refine the optimizer's estimates.
	// Temperature-0 results are identical either way. A no-op under
	// Materialized; Isolated keeps per-stage engines, so it disables the
	// segment re-ordering (which would share one engine across members)
	// while side-input overlap still applies.
	Adaptive bool
	// Materialized disables record-level streaming: every stage drains its
	// whole input before running — the pre-streaming executor behaviour.
	// Temperature-0 results are identical either way; the flag exists for
	// the streaming-vs-materialized wall-clock comparison in the
	// experiments.
	Materialized bool
	// Isolated reproduces naive sequential operator invocation: a fresh
	// engine per stage, each with the default private per-invocation
	// cache and no shared layer, registry, or batching. The experiments
	// use it as the baseline the optimized pipeline is measured against.
	Isolated bool
	// Resilience, when non-nil, wraps the model with a retry / backoff /
	// hedging / circuit-breaker policy for the run. The wrapper sits below
	// the budget, attribution, batcher, and cache, so callers above see
	// one logical call per ask (counted and cached once) however many
	// physical attempts the policy spent; the physical activity lands in
	// the Attribution's resilience counters and the Result. With no faults
	// firing the wrapper is a no-op and results are byte-identical.
	Resilience *resil.Policy
	// OnRecordError selects degraded-mode execution for streaming
	// per-record stages: OnRecordFail (default), OnRecordSkip, or
	// OnRecordQuarantine. Exactly the records whose unit task failed are
	// dropped (skip) or dropped-and-reported (quarantine) instead of
	// aborting the run; nothing is asked twice. Context
	// cancellation, budget exhaustion, and an open circuit breaker always
	// abort — they poison every record, not one. Barrier stages and
	// adaptive filter segments fail fast regardless.
	OnRecordError string
}

// window resolves the per-stage in-flight bound.
func (cfg ExecConfig) window() int {
	if cfg.Parallelism > 0 {
		return cfg.Parallelism
	}
	return core.DefaultParallelism
}

// edgeBuffer is the capacity of every inter-stage channel. It is wider
// than a window so a fast branch is not paced by a slow sibling reading
// the same producer (a side stage must finish while the main path is
// still working for side-input overlap to buy anything), and bounded so a
// standing query's backlog stays proportional to the number of stages.
const edgeBuffer = 64

// runtime binds one run's shared machinery: the budget, the attribution
// ledger, and the engine factory (one shared engine unless Isolated).
// OptimizeProbed builds the same runtime from the same config so probes
// run through the very cache and ledger the run will use.
type execRuntime struct {
	budget    *workflow.Budget
	attr      *workflow.Attribution
	resil     *resil.Model // non-nil when cfg.Resilience wrapped the model
	engineFor func() *core.Engine
}

// flushResil folds the run's resilience activity into the ledger and
// returns it. The wrapper is private to this runtime, so its lifetime
// counters are exactly this run's delta.
func (rt *execRuntime) flushResil() workflow.ResilienceStats {
	if rt.resil == nil {
		return workflow.ResilienceStats{}
	}
	s := rt.resil.Stats()
	delta := workflow.ResilienceStats{
		Retries:      s.Retries,
		Hedges:       s.Hedges,
		HedgeWins:    s.HedgeWins,
		BreakerOpens: s.BreakerOpens,
		RetryDenials: s.RetryDenials,
	}
	if !delta.Zero() {
		rt.attr.AddResilience(delta)
	}
	return delta
}

func (cfg ExecConfig) runtime() *execRuntime {
	budget := cfg.Budget
	if budget == nil {
		budget = workflow.Unlimited()
	}
	attr := cfg.Attribution
	if attr == nil {
		attr = workflow.NewAttribution()
	}
	baseOpts := []core.Option{core.WithBudget(budget), core.WithAttribution(attr)}
	if cfg.Parallelism > 0 {
		baseOpts = append(baseOpts, core.WithParallelism(cfg.Parallelism))
	}
	if cfg.Embedder != nil {
		baseOpts = append(baseOpts, core.WithEmbedder(cfg.Embedder))
	}
	rt := &execRuntime{budget: budget, attr: attr}
	model := cfg.Model
	if cfg.Resilience != nil {
		// Below everything: retries and hedges are invisible to the budget,
		// ledger, batcher, and cache above — one logical call per ask.
		rt.resil = resil.Wrap(model, *cfg.Resilience)
		model = rt.resil
	}
	rt.engineFor = func() *core.Engine { return core.New(model, baseOpts...) }
	if !cfg.Isolated {
		layer := cfg.Exec
		if layer == nil {
			layer = workflow.NewExecLayer()
		}
		registry := cfg.Registry
		if registry == nil {
			registry = embed.NewRegistry()
		}
		opts := append(append([]core.Option(nil), baseOpts...),
			core.WithExecutionLayer(layer), core.WithIndexRegistry(registry))
		if cfg.Batch > 1 {
			opts = append(opts, core.WithBatching(cfg.Batch))
		}
		shared := core.New(model, opts...)
		rt.engineFor = func() *core.Engine { return shared }
	}
	return rt
}

// Env is the execution environment handed to each stage.
type Env struct {
	// Engine runs the stage's operator.
	Engine *core.Engine
	// Budget is the shared whole-pipeline budget.
	Budget *workflow.Budget
	// Tables holds the side tables visible to the stage: the static tables
	// passed to Run (plus "source"), overlaid with any dynamic side table
	// materialized from an earlier stage's stream.
	Tables map[string][]dataset.Record

	width int // in-flight window of a streaming stage
	stats *stageStats
	run   *runState
	onErr string // resolved OnRecordError mode
}

// maxQuarantineErrors bounds the per-stage error samples kept for the
// StageReport; the count is always exact.
const maxQuarantineErrors = 3

// quarantineInfo is one stage's side-channel of dropped records.
type quarantineInfo struct {
	count int
	errs  []string
}

// runState collects scalar outputs, details, and the degraded-mode
// side-channels across stages.
type runState struct {
	mu      sync.Mutex
	scalars map[string]string
	details map[string]string
	skipped map[string]int
	quar    map[string]*quarantineInfo
}

// dropRecord records one record dropped under skip or quarantine mode.
func (e *Env) dropRecord(r dataset.Record, err error) {
	stage := e.stats.stage
	e.run.mu.Lock()
	defer e.run.mu.Unlock()
	if e.onErr == OnRecordSkip {
		e.run.skipped[stage]++
		return
	}
	q := e.run.quar[stage]
	if q == nil {
		q = &quarantineInfo{}
		e.run.quar[stage] = q
	}
	q.count++
	if len(q.errs) < maxQuarantineErrors {
		q.errs = append(q.errs, fmt.Sprintf("record %s: %v", r.ID, err))
	}
}

func (e *Env) setScalar(stage, value string) {
	e.run.mu.Lock()
	defer e.run.mu.Unlock()
	e.run.scalars[stage] = value
}

func (e *Env) detail(stage, text string) {
	e.run.mu.Lock()
	defer e.run.mu.Unlock()
	e.run.details[stage] = text
}

// StageReport is the per-stage accounting of one run.
type StageReport struct {
	// Name and Kind identify the stage. A run whose spec was rewritten by
	// OptimizeProbed additionally reports one synthetic row named
	// workflow.StageProbe ("__probe", kind "probe") carrying the
	// optimizer's selectivity-probe spend.
	Name, Kind string
	// In and Out count the records entering and leaving the stage.
	In, Out int
	// Usage is the real upstream spend attributed to this stage; summed
	// across stages (including the probe row) it equals the pipeline
	// total (cache hits, coalesced followers, and batch co-riders are
	// free and attributed nowhere).
	Usage token.Usage
	// Cost prices Usage at the model's rate.
	Cost float64
	// Timing is the stage's observed streaming behaviour: time starved for
	// input (Wait) versus time with work in flight (Service), operator
	// preparations (Chunks) and records, surfaced for inspection and
	// benchmarks.
	Timing workflow.StageTiming
	// Detail is the stage's operator-specific summary.
	Detail string
	// Skipped counts records dropped under OnRecordSkip.
	Skipped int
	// Quarantined counts records diverted under OnRecordQuarantine, with
	// the first few per-record errors preserved in QuarantineErrors.
	Quarantined      int
	QuarantineErrors []string
}

// Result is the outcome of one pipeline run.
type Result struct {
	// Tables holds every stage's output table by stage name. One caveat
	// under ExecConfig.Adaptive: inside a re-orderable filter segment,
	// a non-tail filter's table (and its In/Out counts) reflects the
	// records it actually evaluated under the orders used, which can
	// vary with completion timing when Parallelism > 1; the segment's tail table — what
	// every downstream consumer sees — and all non-segment tables are
	// byte-identical to a non-adaptive run at temperature 0.
	Tables map[string][]dataset.Record
	// Scalars holds the scalar outputs of count/max stages by stage name.
	Scalars map[string]string
	// Stages reports per-stage accounting in pipeline order (preceded by
	// the synthetic probe row when the optimizer measured selectivities
	// against this run's Attribution).
	Stages []StageReport
	// Usage and Cost total the run (equal to the sum over Stages).
	Usage token.Usage
	Cost  float64
	// Skipped and Quarantined total the records dropped by degraded-mode
	// execution across stages (see ExecConfig.OnRecordError).
	Skipped     int
	Quarantined int
	// Resilience reports the run's physical retry/hedge/breaker activity
	// when ExecConfig.Resilience was set (zero otherwise). These count
	// events below the logical-call accounting: Usage is unaffected by
	// how many attempts a call took.
	Resilience workflow.ResilienceStats
}

// seqRecord is one record on an inter-stage edge. seq is its position in
// the stage's output table: the source feeder numbers records as they
// enter, per-record stages keep the key (a fan-out stage widens it, see
// runWindow), and barrier stages renumber their output. Records may
// overtake each other on an edge; everything that needs a table — a
// stage's collected output, a barrier's drained input — restores sequence
// order once, at collection, never per hop.
type seqRecord struct {
	seq int64
	rec dataset.Record
}

// ordered accumulates records with their sequence keys and sorts them
// back into sequence order on demand.
type ordered struct {
	recs     []dataset.Record
	seqs     []int64
	unsorted bool
}

func (o *ordered) add(r seqRecord) {
	if n := len(o.seqs); n > 0 && r.seq < o.seqs[n-1] {
		o.unsorted = true
	}
	o.recs = append(o.recs, r.rec)
	o.seqs = append(o.seqs, r.seq)
}

// table returns the records in sequence order.
func (o *ordered) table() []dataset.Record {
	if o.unsorted {
		sort.Sort(o)
		o.unsorted = false
	}
	return o.recs
}

func (o *ordered) Len() int           { return len(o.seqs) }
func (o *ordered) Less(i, j int) bool { return o.seqs[i] < o.seqs[j] }
func (o *ordered) Swap(i, j int) {
	o.seqs[i], o.seqs[j] = o.seqs[j], o.seqs[i]
	o.recs[i], o.recs[j] = o.recs[j], o.recs[i]
}

// streamOut is one stage's output viewed both as a stream and as a
// table: the owning goroutine sends each record to every subscribed
// consumer channel while collecting the full table for the Result (and
// for dynamic side-table consumers, who need it whole). done closes when
// the stage finishes, after table is set in sequence order; err is set
// before done closes on failure.
type streamOut struct {
	table    []dataset.Record
	got      ordered
	err      error
	consumed int
	done     chan struct{}
	subs     []chan seqRecord
}

// emit collects one output record and sends it downstream.
func (o *streamOut) emit(ctx context.Context, r seqRecord) error {
	o.got.add(r)
	return o.send(ctx, r)
}

// send delivers one record to every subscriber, honouring backpressure;
// it fails when the run's context is cancelled.
func (o *streamOut) send(ctx context.Context, r seqRecord) error {
	for _, ch := range o.subs {
		select {
		case ch <- r:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func (o *streamOut) closeSubs() {
	for _, ch := range o.subs {
		close(ch)
	}
}

// finish publishes the collected table (unless the stage set one whole)
// and ends the stream.
func (o *streamOut) finish() {
	if o.table == nil {
		o.table = o.got.table()
	}
	o.closeSubs()
	close(o.done)
}

// drain collects the whole input stream in sequence order — the barrier
// path — and then surfaces the upstream error if the stream ended because
// its producer failed.
func drain(ctx context.Context, in <-chan seqRecord, up *streamOut) ([]dataset.Record, error) {
	var got ordered
	for {
		select {
		case r, ok := <-in:
			if !ok {
				<-up.done
				if up.err != nil {
					return nil, up.err
				}
				return got.table(), nil
			}
			got.add(r)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Run executes the pipeline over the given tables (which must include
// "source") as a streaming dataflow: every stage runs in its own
// goroutine, records flow between stages over bounded channels, and a
// per-record stage (filter, direct categorize, fixed-strategy impute,
// nested-loop join) runs each record's unit task as the record arrives,
// up to Parallelism at once, handing finished records downstream
// immediately. Barrier stages — sort, max, count, resolve, planner-driven
// impute, any stage with a dynamic side input, or everything when
// cfg.Materialized is set — drain their input first; results are
// identical either way at temperature 0. Unless Isolated, all stages
// stream their unit tasks through one shared engine: one execution
// layer, one embedding-index registry, one budget. Each stage's context
// is tagged with its name, so the returned report attributes the shared
// budget's spend stage by stage. With cfg.Feed set, the run is a
// standing query: records arriving on the channel extend the source
// stream mid-run, and Run returns after the feed closes and drains.
func (p *Pipeline) Run(ctx context.Context, cfg ExecConfig, tables map[string][]dataset.Record) (*Result, error) {
	source, ok := tables["source"]
	if !ok {
		return nil, fmt.Errorf("pipeline: tables lack %q", "source")
	}
	switch cfg.OnRecordError {
	case "", OnRecordFail, OnRecordSkip, OnRecordQuarantine:
	default:
		return nil, fmt.Errorf("pipeline: unknown OnRecordError %q (want fail, skip, or quarantine)", cfg.OnRecordError)
	}
	rt := cfg.runtime()
	state := &runState{scalars: make(map[string]string), details: make(map[string]string),
		skipped: make(map[string]int), quar: make(map[string]*quarantineInfo)}

	outs := make(map[string]*streamOut, len(p.stages)+1)
	root := &streamOut{table: source, done: make(chan struct{})}
	close(root.done)
	outs["source"] = root
	for _, st := range p.stages {
		outs[st.Name()] = &streamOut{done: make(chan struct{})}
	}

	// Adaptive runs collapse runs of adjacent commutable filters into
	// segments the executor may re-order mid-run; segMember marks every
	// stage driven by a segment goroutine instead of its own. Isolated
	// runs keep every stage on its own engine — a segment would share one
	// across its members — so they never form segments.
	var segments [][]int
	segID := make([]int, len(p.stages)) // 0 = no segment; k = member of segments[k-1]
	if cfg.Adaptive && !cfg.Materialized && !cfg.Isolated {
		segments = adaptiveSegments(p.specs)
		for k, seg := range segments {
			for _, j := range seg {
				segID[j] = k + 1
			}
		}
	}

	// Wire one bounded channel per main-input edge. Dynamic side-table
	// consumers are not subscribers: they read the producer's collected
	// table after its done closes. Stages inside a segment take no edge
	// of their own — the segment consumes the head's input and emits on
	// the tail's output, whose downstream subscriptions wire as usual.
	inputs := make(map[string]chan seqRecord, len(p.stages))
	for i, st := range p.stages {
		if segID[i] > 0 {
			if j := indexOf(p.specs, p.specs[i].Input); j >= 0 && segID[j] == segID[i] {
				continue // intra-segment edge: records flow inside the goroutine
			}
		}
		ch := make(chan seqRecord, edgeBuffer)
		inputs[st.Name()] = ch
		up := outs[st.Input()]
		up.subs = append(up.subs, ch)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup

	// Feed the materialized source table to its subscribers, then — for a
	// standing query — the ingest channel until it closes, numbering the
	// records in arrival order. Fed records are not appended to root.table:
	// the slice aliases the caller's "source" table, and consumers see
	// every record through the stream either way.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer root.closeSubs()
		var seq int64
		for _, r := range root.table {
			if root.send(ctx, seqRecord{seq, r}) != nil {
				return
			}
			seq++
		}
		if cfg.Feed == nil {
			return
		}
		for {
			select {
			case r, ok := <-cfg.Feed:
				if !ok {
					return
				}
				if root.send(ctx, seqRecord{seq, r}) != nil {
					return
				}
				seq++
			case <-ctx.Done():
				return
			}
		}
	}()

	for _, seg := range segments {
		wg.Add(1)
		go func(seg []int) {
			defer wg.Done()
			p.runSegment(ctx, cancel, cfg, rt, state, outs, inputs[p.specs[seg[0]].Name], seg)
		}(seg)
	}
	for i, st := range p.stages {
		if segID[i] > 0 {
			continue
		}
		wg.Add(1)
		go func(st Stage, spec StageSpec) {
			defer wg.Done()
			p.runStage(ctx, cancel, cfg, rt, state, outs, inputs[st.Name()], tables, st, spec)
		}(st, p.specs[i])
	}
	wg.Wait()
	// Fold resilience activity into the ledger even when the run failed:
	// the retries were spent either way and the ledger must say so.
	resilStats := rt.flushResil()

	// Surface the root cause: a failing stage cancels the run, so sibling
	// branches die with context errors that would otherwise mask the stage
	// error the caller actually needs.
	var cancelErr error
	for _, st := range p.stages {
		if err := outs[st.Name()].err; err != nil {
			if !cancellation(err) {
				return nil, err
			}
			if cancelErr == nil {
				cancelErr = err
			}
		}
	}
	if cancelErr != nil {
		return nil, cancelErr
	}
	// An outer cancellation can end the source feeder (and with it every
	// stream) without any stage recording an error — e.g. a stage whose
	// in-flight records completed after the cancel sees only a closed
	// channel. Never report such a truncated run as success.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}

	res := &Result{
		Tables:  make(map[string][]dataset.Record, len(p.stages)),
		Scalars: state.scalars,
	}
	if u := rt.attr.Usage(workflow.StageProbe); !u.IsZero() {
		res.Stages = append(res.Stages, StageReport{
			Name:   workflow.StageProbe,
			Kind:   "probe",
			Usage:  u,
			Cost:   rt.attr.Cost(workflow.StageProbe),
			Detail: "optimizer selectivity probes",
		})
	}
	for _, st := range p.stages {
		out := outs[st.Name()]
		res.Tables[st.Name()] = out.table
		report := StageReport{
			Name:    st.Name(),
			Kind:    st.Kind(),
			In:      out.consumed,
			Out:     len(out.table),
			Usage:   rt.attr.Usage(st.Name()),
			Cost:    rt.attr.Cost(st.Name()),
			Timing:  rt.attr.Timing(st.Name()),
			Detail:  state.details[st.Name()],
			Skipped: state.skipped[st.Name()],
		}
		if q := state.quar[st.Name()]; q != nil {
			report.Quarantined = q.count
			report.QuarantineErrors = q.errs
		}
		res.Skipped += report.Skipped
		res.Quarantined += report.Quarantined
		res.Stages = append(res.Stages, report)
	}
	res.Usage, res.Cost = rt.attr.Total()
	res.Resilience = resilStats
	return res, nil
}

// runStage drives one stage goroutine: resolve the side table, consume
// the input (streamed or drained), run the operator, and emit outputs.
func (p *Pipeline) runStage(ctx context.Context, cancel context.CancelFunc, cfg ExecConfig, rt *execRuntime,
	state *runState, outs map[string]*streamOut, in <-chan seqRecord, tables map[string][]dataset.Record,
	st Stage, spec StageSpec) {
	out := outs[st.Name()]
	defer out.finish()
	up := outs[st.Input()]

	// fail records a propagated (or cancellation) error without re-wrap;
	// abort records this stage's own failure and cancels the run.
	fail := func(err error) { out.err = err }
	abort := func(err error) {
		out.err = fmt.Errorf("stage %q: %w", st.Name(), err)
		cancel()
	}
	skipEmpty := func() {
		state.mu.Lock()
		defer state.mu.Unlock()
		if st.Kind() == KindCount {
			// A count over nothing still has an answer — 0 — and must
			// report it regardless of where the optimizer placed the
			// emptying filter.
			state.scalars[st.Name()] = "0"
			state.details[st.Name()] = "0 of 0 (empty input)"
		} else {
			state.details[st.Name()] = detailSkippedEmpty
		}
	}

	env := &Env{Engine: rt.engineFor(), Budget: rt.budget, Tables: tables,
		width: cfg.window(), stats: &stageStats{stage: st.Name()}, run: state,
		onErr: cfg.OnRecordError}
	defer env.stats.flush(rt.attr)

	// A dynamic side input (Side naming an earlier stage) needs the side
	// table whole, and the stage must keep consuming its own input while
	// the side stage finishes — otherwise a shared ancestor could deadlock
	// on backpressure. The classic answer is barrier mode: drain the main
	// input, await the side, run. The adaptive runtime restores overlap
	// for streamable stages instead: buffer the main input while the side
	// materializes, then stream the buffer plus the live tail — the main
	// path never stops consuming, and downstream starts receiving as soon
	// as the side table lands.
	dynamicSide := sideStage(p.specs, spec) >= 0

	streamer, ok := st.(Streamer)
	if ok && streamer.CanStream() && !cfg.Materialized && (!dynamicSide || cfg.Adaptive) {
		start := time.Now()
		sctx := workflow.TagStage(ctx, st.Name())
		var err error
		if dynamicSide {
			out.consumed, err = runWindowWithSide(sctx, env, outs[spec.Side], in, spec.Side, streamer, out)
		} else {
			out.consumed, err = runWindow(sctx, env, in, streamer, out)
		}
		env.stats.close(start, out.consumed)
		if err != nil {
			if propagated(err, outs, spec) {
				fail(err)
			} else {
				abort(err)
			}
			return
		}
		// The stream may have ended because the producer failed; the
		// upstream error, not our partial output, is the truth then.
		<-up.done
		if up.err != nil {
			fail(up.err)
			return
		}
		if out.consumed == 0 {
			skipEmpty()
		}
		return
	}

	start := time.Now()
	recs, err := drain(ctx, in, up)
	if err != nil {
		fail(err)
		return
	}
	out.consumed = len(recs)
	if dynamicSide {
		side := outs[spec.Side]
		select {
		case <-side.done:
		case <-ctx.Done():
			fail(ctx.Err())
			return
		}
		if side.err != nil {
			fail(side.err)
			return
		}
		env.Tables = overlaySide(tables, spec.Side, side.table)
	}
	env.stats.t.Wait = time.Since(start)
	if len(recs) == 0 {
		skipEmpty()
		return
	}
	table, err := st.Run(workflow.TagStage(ctx, st.Name()), env, recs)
	if err != nil {
		abort(err)
		return
	}
	out.table = table
	for i, r := range table {
		if out.send(ctx, seqRecord{int64(i), r}) != nil {
			return
		}
	}
	env.stats.close(start, len(recs))
}

// overlaySide copies the static-table map with one dynamic side table
// overlaid, so the shared map is never mutated.
func overlaySide(tables map[string][]dataset.Record, name string, side []dataset.Record) map[string][]dataset.Record {
	overlay := make(map[string][]dataset.Record, len(tables)+1)
	for k, v := range tables {
		overlay[k] = v
	}
	overlay[name] = side
	return overlay
}

// cancellation reports whether err is a context ending rather than a
// failure of the work itself.
func cancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// propagated reports whether err came from upstream (the side stage's
// failure or a cancellation) rather than this stage's own operator, so
// runStage records it without re-wrapping and without cancelling the run
// a second time.
func propagated(err error, outs map[string]*streamOut, spec StageSpec) bool {
	if cancellation(err) {
		return true
	}
	if side := outs[spec.Side]; side != nil {
		// side.err is published by close(side.done); reading it before
		// that close is a data race with the side stage's goroutine, and
		// an error raised while the side is still running cannot have come
		// from it anyway.
		select {
		case <-side.done:
			if side.err != nil && errors.Is(err, side.err) {
				return true
			}
		default:
		}
	}
	return false
}

// runWindowWithSide is the adaptive side-input overlap path: buffer the
// main input while the dynamic side stage materializes, then stream the
// buffered prefix followed by the live channel through the stage's
// window. Buffering keeps the main path consuming (no backpressure
// deadlock through a shared ancestor) without the full drain the barrier
// path pays, so downstream receives records as soon as the side table is
// ready. The buffer is a plain slice: every record in it is already held
// by its producer (the stage's output table or the caller's source), so
// it adds references, not copies. Buffered records keep their sequence
// keys, so replay order is immaterial to the result.
func runWindowWithSide(ctx context.Context, env *Env, side *streamOut, in <-chan seqRecord, sideName string,
	streamer Streamer, out *streamOut) (int, error) {
	var buffered []seqRecord
	start := time.Now()
	inOpen := true
buffering:
	for {
		select {
		case r, ok := <-in:
			if !ok {
				inOpen = false
				break buffering
			}
			buffered = append(buffered, r)
		case <-side.done:
			break buffering
		case <-ctx.Done():
			return len(buffered), ctx.Err()
		}
	}
	// The main input may have closed first; the side table is still the
	// gate for processing.
	select {
	case <-side.done:
	case <-ctx.Done():
		return len(buffered), ctx.Err()
	}
	if side.err != nil {
		return len(buffered), side.err
	}
	env.Tables = overlaySide(env.Tables, sideName, side.table)
	env.stats.t.Wait += time.Since(start)

	// Replay the buffer, then pipe the live channel, on one merged stream
	// the stage's window consumes. This function does not return until the
	// feeder has exited: fcancel unblocks it even when the run's context
	// is still live (e.g. the window failed mid-replay), and the deferred
	// receive waits for it. No goroutine can leak.
	merged := make(chan seqRecord, edgeBuffer)
	feedDone := make(chan struct{})
	fctx, fcancel := context.WithCancel(ctx)
	defer func() {
		fcancel()
		<-feedDone
	}()
	go func() {
		defer close(feedDone)
		defer close(merged)
		for _, r := range buffered {
			select {
			case merged <- r:
			case <-fctx.Done():
				return
			}
		}
		for inOpen {
			select {
			case r, ok := <-in:
				if !ok {
					return
				}
				select {
				case merged <- r:
				case <-fctx.Done():
					return
				}
			case <-fctx.Done():
				return
			}
		}
	}()

	return runWindow(ctx, env, merged, streamer, out)
}

// FormatResult renders a run report as a text table: one row per stage
// with record flow and attributed spend, then scalars and the total.
func FormatResult(res *Result) string {
	out := fmt.Sprintf("%-14s %-11s %6s %6s %8s %8s %10s  %s\n",
		"Stage", "Kind", "In", "Out", "Calls", "Tokens", "Cost", "Detail")
	for _, s := range res.Stages {
		detail := s.Detail
		if s.Skipped > 0 {
			detail += fmt.Sprintf(" [skipped %d]", s.Skipped)
		}
		if s.Quarantined > 0 {
			detail += fmt.Sprintf(" [quarantined %d: %s]", s.Quarantined, strings.Join(s.QuarantineErrors, "; "))
		}
		out += fmt.Sprintf("%-14s %-11s %6d %6d %8d %8d %9.4f$  %s\n",
			s.Name, s.Kind, s.In, s.Out, s.Usage.Calls, s.Usage.Total(), s.Cost, detail)
	}
	for _, name := range sortedKeys(res.Scalars) {
		out += fmt.Sprintf("scalar %-8s = %s\n", name, res.Scalars[name])
	}
	out += fmt.Sprintf("total: %d calls, %d tokens, $%.4f\n",
		res.Usage.Calls, res.Usage.Total(), res.Cost)
	if r := res.Resilience; !r.Zero() || res.Skipped > 0 || res.Quarantined > 0 {
		out += fmt.Sprintf("resilience: %d retries, %d hedges (%d won), %d breaker opens, %d skipped, %d quarantined\n",
			r.Retries, r.Hedges, r.HedgeWins, r.BreakerOpens, res.Skipped, res.Quarantined)
	}
	return out
}
