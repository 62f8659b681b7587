package pipeline

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/token"
	"repro/internal/workflow"
)

// OnRecordError values: what a streamable per-record stage does when one
// record's unit task fails (after the caller's resilience wrapper, if
// any, has already done its retrying), in every mode. Barrier strategies
// always fail fast — their output depends on the whole table, so dropping
// records would silently change the answer rather than narrow it.
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
	// Model answers every unit task. The caller owns the model stack: a
	// retry / hedging / breaker policy is attached by passing
	// resil.Wrap(model, policy) here, where it sits below the budget,
	// attribution and cache, so every layer above sees one
	// logical call per ask however many attempts the policy spent. The
	// physical activity is read from that wrapper's Stats.
	Model llm.Model
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
	// holds arrivals behind its start gate until the side stage finishes.)
	// Run returns only after Feed is closed and fully drained, so the
	// caller must feed and close the channel from another goroutine.
	// Temperature-0 results after full ingestion are byte-identical to a
	// batch run whose source table already contained the fed records
	// (pinned by TestStandingQueryMatchesBatch). Nil runs the static table
	// alone.
	Feed <-chan dataset.Record
	// Attribution is the per-stage ledger the run records into; nil builds
	// a fresh one. Pass the same ledger (and Exec) to OptimizeProbed and
	// Run so probe spend appears in the run's report under
	// workflow.StageProbe and the report still sums to the budget total.
	// Use one Attribution per logical run — it accumulates.
	Attribution *workflow.Attribution
	// Batch packs up to this many unit tasks per envelope prompt (<= 1
	// disables batching). A streaming stage then cuts its records into
	// aligned blocks of Batch sequence keys, and a table stage its rows
	// into blocks of Batch rows; each block's cache misses ride one
	// envelope, and each block holds one window slot (see window).
	Batch int
	// Parallelism bounds concurrent LLM calls per operator (default
	// core.DefaultParallelism). It is also the window width each streaming
	// stage brings to its run's slot count: a stage starts a record
	// waiting on its input the moment it can take a slot, and hands every
	// finished record downstream at once, so round trips overlap across
	// records and across stages. A stage may take what is left of its own
	// width and of the width of each streaming stage downstream of it
	// (over main-input or side edges, through streaming stages only) that
	// has no backlog; slots are counted, not owned, and an ask gives its
	// slot back the moment it returns. So one stage may have up to
	// Parallelism × (1 + its streaming descendants) asks in flight, a
	// stage with no streaming descendant — the last of a chain, or one of
	// siblings reading one input — at most Parallelism, and the run at
	// most Parallelism × its streaming stages. Every record starts through
	// a group form: an impute stage's runs the records admitted together
	// in groups of up to embed.GroupWidth that share one k-NN pass, and
	// every other operator's is its per-record ask, one record at a time.
	// A record of the latter whose every ask is a cache hit is answered on
	// the stage goroutine as it is admitted and never takes a slot: slots
	// bound what is in flight upstream. Each record of a group still holds
	// a slot until its own result is in, and each one the cache cannot
	// answer still asks the model on its own. Parallelism 1 is strictly
	// serial in a stage with no streaming descendant, and so in a pipeline
	// with one streaming stage.
	Parallelism int
	// Deprecated: no effect; kept because benchmark/layers.go assigns it — removed with the pipeline.run_ms.adaptive column.
	Adaptive bool
	// Materialized makes every edge a barrier: each stage drains its whole
	// input before it starts a record. A streamable stage runs the same
	// window as ever, behind a start gate that opens when its input has
	// ended, and lends no slot to or from another stage. Temperature-0
	// results, degraded mode included, are identical either way; the flag
	// exists for the drain-first-vs-streaming wall-clock comparison in the
	// experiments.
	Materialized bool
	// TableKeys optionally names tables passed to Run by a
	// collision-resistant hash of their content, such as the SHA-256 a
	// server interns a table's bytes under. An impute stage whose static
	// side table has a key files its k-NN index under it instead of
	// hashing the table row by row; a table without one, and every dynamic
	// side table, is hashed as before. Leaving it nil changes nothing else.
	TableKeys map[string]embed.SourceKey
	// OnRecordError selects degraded-mode execution for streamable
	// per-record stages, streaming or Materialized: OnRecordFail (default),
	// OnRecordSkip, or OnRecordQuarantine. Exactly the records whose unit
	// task failed are dropped (skip) or dropped-and-reported (quarantine)
	// instead of aborting the run; nothing is asked twice. Context
	// cancellation, budget exhaustion, and an open circuit breaker always
	// abort — they poison every record, not one. Barrier strategies fail
	// fast regardless.
	OnRecordError string
}

// window resolves the window width each streaming stage brings to its ledger.
func (cfg ExecConfig) window() int {
	if cfg.Parallelism > 0 {
		return cfg.Parallelism
	}
	return core.DefaultParallelism
}

// streamer returns the stage's streaming face when its configured
// strategy can stream: the stage then runs in a window in every mode.
func streamer(st Stage) (Streamer, bool) {
	s, ok := st.(Streamer)
	return s, ok && s.CanStream()
}

// edgeBuffer is the capacity of an inter-stage edge, in runs. It is wider
// than a window so a fast branch is not paced by a slow sibling reading
// the same producer (a side stage must finish while the main path is still
// working for side-input overlap to buy anything), and bounded so a
// standing query's backlog stays proportional to the number of stages: a
// fed record is a run of one, so a feed's edges hold at most edgeBuffer
// fed records, and a window's run is what it finished in one turn — the
// inline answers to at most one input run, or the results it collected at
// once — times its fan-out. A table already in memory (the source, a
// barrier's output) goes in at most edgeBuffer runs, so its sender never
// waits on an edge. An edge that can never carry that many records is
// sized by what it can carry (see bounds).
const edgeBuffer = 64

// bounds returns, for each stage, the most records its input can ever
// carry when the run knows that up front, and 0 when it cannot. A run with
// no Feed and no batching (whose marks are sends too) streams at most
// len(source) records down every edge no join feeds from above: only a
// join emits more records than it consumes. Neither the stage's edge nor
// its window's results ever hold more, so sizing them by the bound takes
// no room a send could wait on, and the schedule is the same.
func (p *Pipeline) bounds(cfg ExecConfig, source int) []int {
	most := make([]int, len(p.specs))
	if cfg.Feed != nil || cfg.Batch > 1 {
		return most
	}
	widened := make(map[string]bool)
	for i, spec := range p.specs {
		if widened[spec.Input] || spec.Kind == KindJoin {
			widened[spec.Name] = true
		}
		if !widened[spec.Input] {
			most[i] = source
		}
	}
	return most
}

// capped is room, or most when that is known (> 0) and smaller.
func capped(room, most int) int {
	if most > 0 {
		return min(room, most)
	}
	return room
}

// runtime binds one run's shared machinery: the budget, the attribution
// ledger, and the one engine every stage runs on. OptimizeProbed builds
// the same runtime from the same config so probes run through the very
// cache and ledger the run will use.
type execRuntime struct {
	budget *workflow.Budget
	attr   *workflow.Attribution
	engine *core.Engine
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
	layer := cfg.Exec
	if layer == nil {
		layer = workflow.NewExecLayer()
	}
	registry := cfg.Registry
	if registry == nil {
		registry = embed.NewRegistry()
	}
	opts := []core.Option{core.WithBudget(budget), core.WithAttribution(attr)}
	if cfg.Parallelism > 0 {
		opts = append(opts, core.WithParallelism(cfg.Parallelism))
	}
	opts = append(opts, core.WithExecutionLayer(layer), core.WithIndexRegistry(registry))
	if cfg.Batch > 1 {
		opts = append(opts, core.WithBatching(cfg.Batch))
	}
	return &execRuntime{budget: budget, attr: attr, engine: core.New(cfg.Model, opts...)}
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

	keys  map[string]embed.SourceKey // ExecConfig.TableKeys, less any table a dynamic side replaced
	slots *stageSlots                // a streaming stage's account in the run's slot ledger
	gate  *gate                      // a streaming stage's start gate; nil starts at once
	stats *stageStats
	run   *runState
	onErr string // resolved OnRecordError mode
	batch int    // ExecConfig.Batch: > 1 cuts a streaming stage's records by sequence block
	most  int    // the most records the stage's input can carry, 0 when unknown (see bounds)
}

// resultRoom is the capacity of a streaming stage's result buffer: a slot
// per record, or per block of up to batch records, it can have in flight,
// and never more than the records its input can carry.
func (e *Env) resultRoom() int {
	return capped(e.slots.reach()*max(e.batch, 1), e.most)
}

// stageStats accumulates one stage's streaming timings; the stage
// goroutine owns it and flushes the total into the run's Attribution
// ledger when the stage finishes, where the run report reads it back.
type stageStats struct {
	stage string
	t     workflow.StageTiming
}

// close settles a stage that consumed records: whatever of the time since
// start was not spent starved for input (Wait) was Service, under one
// operator preparation.
func (s *stageStats) close(start time.Time, records int) {
	if records == 0 {
		return
	}
	s.t.Service += time.Since(start) - s.t.Wait
	s.t.Chunks++
	s.t.Records += records
}

func (s *stageStats) flush(attr *workflow.Attribution) {
	if s.t != (workflow.StageTiming{}) {
		attr.ObserveTiming(s.stage, s.t)
	}
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

// skipEmpty reports a stage that saw no input records.
func (s *runState) skipEmpty(st Stage) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.Kind() == KindCount {
		// A count over nothing still has an answer — 0 — and must report
		// it regardless of where the optimizer placed the emptying filter.
		s.scalars[st.Name()] = "0"
		s.details[st.Name()] = "0 of 0 (empty input)"
	} else {
		s.details[st.Name()] = detailSkippedEmpty
	}
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
	// total (cache hits and coalesced followers are free and attributed
	// nowhere; an envelope is attributed once, for all the tasks it
	// answered).
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
	// Tables holds every stage's output table by stage name.
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
}

// seqRecord is one record on an inter-stage edge. seq is its position in
// the stage's output table: the source feeder numbers records as they
// enter, per-record stages keep the key (a fan-out stage widens it, see
// runWindow), and barrier stages renumber their output by position, as a
// streamable stage's start gate renumbers its input under Materialized
// (see gate). Records may overtake each other on an edge; everything that
// needs a table — a stage's collected output, a barrier's drained input —
// restores sequence order once, at collection, never per hop.
//
// In a batched run (Batch > 1) an edge also carries marks: a mark's seq
// is a watermark, below which every key has been sent on the edge or
// never will be — dropped upstream, or sealed by the source feeder — so a
// streaming stage knows a sequence block is whole before its last key
// could arrive (see window). A barrier skips marks.
type seqRecord struct {
	seq  int64
	rec  dataset.Record
	mark bool
}

// ordered accumulates records with their sequence keys and sorts them
// back into sequence order on demand.
type ordered struct {
	recs     []dataset.Record
	seqs     []int64
	unsorted bool
}

// presize makes room for n records up front, when the count is known.
func (o *ordered) presize(n int) {
	if n > 0 {
		o.recs = make([]dataset.Record, 0, n)
		o.seqs = make([]int64, 0, n)
	}
}

func (o *ordered) add(r seqRecord) {
	if n := len(o.seqs); n > 0 && r.seq < o.seqs[n-1] {
		o.unsorted = true
	}
	o.recs = append(o.recs, r.rec)
	o.seqs = append(o.seqs, r.seq)
}

// table returns the records in sequence order: nil when there are none,
// presized or not.
func (o *ordered) table() []dataset.Record {
	if len(o.recs) == 0 {
		return nil
	}
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

// edge is one main-input edge. It carries runs: slices of records, in
// the order sent, that no one writes once they are sent, so every
// subscriber of a producer reads the same run. pending counts the records
// (and marks) sent on it that its consumer has not yet taken, one at a
// time, from the run it holds: the consumer's backlog (see
// stageSlots.idle). Sends and receives try the channel first and select on
// the run's context only when the edge is full or empty.
type edge struct {
	runs    chan []seqRecord
	pending atomic.Int64
}

// send hands run, which must not be empty, to the consumer, waiting while
// the edge is full; it fails when ctx ends.
func (e *edge) send(ctx context.Context, run []seqRecord) error {
	e.pending.Add(int64(len(run)))
	select {
	case e.runs <- run:
		return nil
	default:
	}
	select {
	case e.runs <- run:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// recv takes the next run whole, waiting while the edge is empty, and
// returns nil once the edge has closed; it fails when ctx ends.
func (e *edge) recv(ctx context.Context) ([]seqRecord, error) {
	var run []seqRecord
	select {
	case run = <-e.runs:
	default:
		select {
		case run = <-e.runs:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e.pending.Add(-int64(len(run)))
	return run, nil
}

// inbox is a window's end of its input edge: the rest of the run it holds,
// taken one record at a time.
type inbox struct {
	*edge
	run []seqRecord
}

// poll takes the next record without waiting: the next of the run held,
// or the first of the next run when one is already on the edge. ok reports
// a record taken; ended, that the edge has closed and every run is taken.
func (b *inbox) poll() (r seqRecord, ok, ended bool) {
	for len(b.run) == 0 {
		select {
		case run, open := <-b.runs:
			if !open {
				return r, false, true
			}
			b.run = run
		default:
			return r, false, false
		}
	}
	return b.take(), true, false
}

// take takes the next record of the run held, which must not be spent.
func (b *inbox) take() seqRecord {
	r := b.run[0]
	b.run = b.run[1:]
	b.pending.Add(-1)
	return r
}

// streamOut is one stage's output viewed both as a stream and as a
// table: the owning goroutine sends its records to every subscribed edge,
// in runs, while collecting the full table for the Result (and for dynamic
// side-table consumers, who need it whole). done closes when the stage
// finishes, after table is set in sequence order; err is set before done
// closes on failure.
type streamOut struct {
	table    []dataset.Record
	got      ordered
	err      error
	consumed int
	done     chan struct{}
	subs     []*edge
	run      []seqRecord // emitted since the last flush; kept only when there are subscribers
	last     int         // the length of the last run flushed
}

// emit collects one output record for the next run flush sends. A run
// starts with room for as many records as the last one held.
func (o *streamOut) emit(r seqRecord) {
	o.got.add(r)
	if len(o.subs) > 0 {
		if o.run == nil {
			o.run = make([]seqRecord, 0, o.last)
		}
		o.run = append(o.run, r)
	}
}

// mark ends the pending run with the watermark w and sends it.
func (o *streamOut) mark(ctx context.Context, w int64) error {
	if len(o.subs) == 0 {
		return nil
	}
	o.run = append(o.run, seqRecord{seq: w, mark: true})
	return o.flush(ctx)
}

// flush sends what was emitted since the last flush, if anything, as one
// run; the next emit starts a new one.
func (o *streamOut) flush(ctx context.Context) error {
	if len(o.run) == 0 {
		return nil
	}
	run := o.run
	o.run, o.last = nil, len(run)
	return o.send(ctx, run)
}

// send delivers one run to every subscriber, honouring backpressure; it
// fails when the run's context is cancelled.
func (o *streamOut) send(ctx context.Context, run []seqRecord) error {
	for _, e := range o.subs {
		if err := e.send(ctx, run); err != nil {
			return err
		}
	}
	return nil
}

// sendTable sends a table already in memory, numbered by position, as
// slices of one []seqRecord built for it: at most edgeBuffer runs, of at
// least edgeBuffer records each, so an edge, which holds capped(edgeBuffer,
// the most records it can carry) runs, never makes it wait.
func (o *streamOut) sendTable(ctx context.Context, table []dataset.Record) error {
	if len(o.subs) == 0 || len(table) == 0 {
		return nil
	}
	recs := make([]seqRecord, len(table))
	for i, r := range table {
		recs[i] = seqRecord{seq: int64(i), rec: r}
	}
	span := max(edgeBuffer, (len(recs)+edgeBuffer-1)/edgeBuffer)
	for lo := 0; lo < len(recs); lo += span {
		hi := min(lo+span, len(recs))
		if err := o.send(ctx, recs[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

func (o *streamOut) closeSubs() {
	for _, e := range o.subs {
		close(e.runs)
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
// its producer failed. size is the stream's length when it is known up
// front, 0 otherwise.
func drain(ctx context.Context, in *edge, up *streamOut, size int) ([]dataset.Record, error) {
	var got ordered
	got.presize(size)
	for {
		run, err := in.recv(ctx)
		if err != nil {
			return nil, err
		}
		if run == nil {
			<-up.done
			if up.err != nil {
				return nil, up.err
			}
			return got.table(), nil
		}
		for _, r := range run {
			if !r.mark {
				got.add(r)
			}
		}
	}
}

// Run executes the pipeline over the given tables (which must include
// "source") as a streaming dataflow: every stage runs in its own
// goroutine, records flow between stages over bounded channels, and a
// per-record stage (filter, direct categorize, fixed-strategy impute,
// nested-loop join) runs each record's unit task as the record arrives,
// up to Parallelism at once, handing finished records downstream
// immediately; one with a dynamic side input holds its input behind a
// start gate until the side stage finishes, then streams. Barrier stages —
// sort, max, count, resolve, two-phase categorize, planner-driven impute,
// transitive join — drain their input first, and with cfg.Materialized
// set every stage does; results are identical either way at
// temperature 0. All stages stream their unit tasks through one shared
// engine: one execution layer, one embedding-index registry, one budget.
// Each stage's context
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

	most := p.bounds(cfg, len(source))
	outs, inputs := p.wire(source, most)
	root := outs["source"]

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup

	// Feed the materialized source table to its subscribers, then — for a
	// standing query — the ingest channel until it closes, numbering the
	// records in arrival order, each fed record a run of its own. Fed
	// records are not appended to root.table: the slice aliases the
	// caller's "source" table, and consumers see every record through the
	// stream either way. In a batched run, each time the feed has nothing
	// ready the feeder seals the sequence block its last record opened: it
	// moves the next key to the next block and marks the keys it skipped as
	// never arriving, so the block launches now instead of waiting for
	// records that may never come.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer root.closeSubs()
		if root.sendTable(ctx, root.table) != nil || cfg.Feed == nil {
			return
		}
		seq, block := int64(len(root.table)), int64(cfg.Batch)
		for {
			var r dataset.Record
			var ok bool
			select {
			case r, ok = <-cfg.Feed:
			default:
				if block > 1 && seq%block != 0 {
					seq += block - seq%block
					if root.mark(ctx, seq) != nil {
						return
					}
				}
				select {
				case r, ok = <-cfg.Feed:
				case <-ctx.Done():
					return
				}
			}
			if !ok || root.send(ctx, []seqRecord{{seq: seq, rec: r}}) != nil {
				return
			}
			seq++
		}
	}()

	slots := p.slotLedger(cfg)
	for i, st := range p.stages {
		wg.Add(1)
		go func(st Stage, spec StageSpec, slots *stageSlots, most int) {
			defer wg.Done()
			p.runStage(ctx, cancel, cfg, rt, state, outs, inputs[st.Name()], tables, st, spec, slots, most)
		}(st, p.specs[i], slots[i], most[i])
	}
	wg.Wait()

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
	return res, nil
}

// wire builds the run's streams, the source's already done, and the edge
// into each stage, sized by the stage's bound (see bounds).
// Dynamic side-table consumers are not subscribers: they read the
// producer's collected table after its done closes.
func (p *Pipeline) wire(source []dataset.Record, most []int) (map[string]*streamOut, map[string]*edge) {
	outs := make(map[string]*streamOut, len(p.stages)+1)
	root := &streamOut{table: source, done: make(chan struct{})}
	close(root.done)
	outs["source"] = root
	for _, st := range p.stages {
		outs[st.Name()] = &streamOut{done: make(chan struct{})}
	}
	inputs := make(map[string]*edge, len(p.stages))
	edges := make([]edge, len(p.stages))
	for i, st := range p.stages {
		e := &edges[i]
		e.runs = make(chan []seqRecord, capped(edgeBuffer, most[i]))
		inputs[st.Name()] = e
		up := outs[st.Input()]
		up.subs = append(up.subs, e)
	}
	return outs, inputs
}

// runStage drives one stage goroutine: resolve the side table, consume
// the input (streamed or drained), run the operator, and emit outputs.
func (p *Pipeline) runStage(ctx context.Context, cancel context.CancelFunc, cfg ExecConfig, rt *execRuntime,
	state *runState, outs map[string]*streamOut, in *edge, tables map[string][]dataset.Record,
	st Stage, spec StageSpec, slots *stageSlots, most int) {
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
	env := &Env{Engine: rt.engine, Budget: rt.budget, Tables: tables, keys: cfg.TableKeys,
		slots: slots, stats: &stageStats{stage: st.Name()}, run: state,
		onErr: cfg.OnRecordError, batch: cfg.Batch, most: most}
	defer env.stats.flush(rt.attr)

	// A dynamic side input (Side naming an earlier stage) needs the side
	// table whole, and the stage must keep consuming its own input while
	// the side stage finishes — otherwise a shared ancestor could deadlock
	// on backpressure. A streamable stage reads its input behind its
	// window's start gate, which opens when the side table lands (and,
	// under Materialized, when the input has ended), so downstream starts
	// receiving as soon as it can. A barrier stage drains the main input,
	// awaits the side, and runs.
	var side *streamOut
	if sideStage(p.specs, spec) >= 0 {
		side = outs[spec.Side]
	}

	// A stage fed by the static source table alone knows its input count
	// before the first record arrives.
	size := 0
	if spec.Input == "source" && cfg.Feed == nil {
		size = len(tables["source"])
	}

	if s, ok := streamer(st); ok {
		if spec.Kind != KindJoin { // one output at most per record
			out.got.presize(size)
		}
		if side != nil || cfg.Materialized {
			env.gate = &gate{side: side, name: spec.Side, drain: cfg.Materialized}
		}
		start := time.Now()
		var err error
		out.consumed, err = runWindow(workflow.TagStage(ctx, st.Name()), env, in, s, out)
		env.stats.close(start, out.consumed)
		if err != nil {
			// Unless the run was cancelled, a window with a side stage fails
			// only after its gate saw that stage finish, so side.err is safe
			// to read, and an error that is not the side's is the stage's own.
			if cancellation(err) || side != nil && side.err != nil && errors.Is(err, side.err) {
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
			state.skipEmpty(st)
		}
		return
	}

	start := time.Now()
	recs, err := drain(ctx, in, up, size)
	if err != nil {
		fail(err)
		return
	}
	out.consumed = len(recs)
	if side != nil {
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
		env.overlaySide(spec.Side, side.table)
	}
	env.stats.t.Wait = time.Since(start)
	if len(recs) == 0 {
		state.skipEmpty(st)
		return
	}
	table, err := st.(Barrier).Run(workflow.TagStage(ctx, st.Name()), env, recs)
	if err != nil {
		abort(err)
		return
	}
	out.table = table
	if out.sendTable(ctx, table) != nil {
		return
	}
	env.stats.close(start, len(recs))
}

// overlaySide overlays one dynamic side table on the stage's copy of the
// static-table map, so the shared map is never mutated. A static table of
// the same name loses its key with it.
func (e *Env) overlaySide(name string, side []dataset.Record) {
	tables := make(map[string][]dataset.Record, len(e.Tables)+1)
	maps.Copy(tables, e.Tables)
	tables[name] = side
	e.Tables = tables
	if _, ok := e.keys[name]; ok {
		e.keys = maps.Clone(e.keys)
		delete(e.keys, name)
	}
}

// cancellation reports whether err is a context ending rather than a
// failure of the work itself.
func cancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
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
	return out
}
