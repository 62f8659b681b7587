package pipeline

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/resil"
	"repro/internal/workflow"
)

// Stage is one operator node of a compiled pipeline: a thin typed wrapper
// that renders records into the operator's item shape, invokes the engine,
// and folds the result back into a record table. Every stage is a
// Streamer, a Barrier, or both, chosen by its configured strategy.
type Stage interface {
	// Name is the stage's unique identifier from the spec.
	Name() string
	// Kind is the wrapped operator.
	Kind() string
	// Input names the upstream stage ("source" for the root table).
	Input() string
}

// Barrier is the whole-table face of a Stage with a strategy that needs
// its whole input at once (sort, max, count, resolve, two-phase
// categorize, "auto" impute, transitive join): the executor drains the
// stage's input and runs it when the stage cannot stream.
type Barrier interface {
	// Run executes the operator over the input table within env and
	// returns the stage's output table.
	Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error)
}

// Streamer is the streaming face of a Stage: a stage whose operator
// decides each record on its own, so the executor can run records as they
// arrive and emit each the moment it finishes. The executor runs a stage
// in a window whenever CanStream reports true, in every mode; under
// Materialized the window's start gate holds it until its input has ended.
type Streamer interface {
	// CanStream reports whether the configured strategy keeps each
	// record's outcome independent of which other records it runs beside —
	// the property that makes per-record execution return byte-identical
	// temperature-0 results to a whole-table run.
	CanStream() bool
	// Prepare builds the stage's per-record operator against env: the
	// session, side table and index are resolved once per run, when the
	// first record arrives.
	Prepare(env *Env) (recordOp, error)
}

// recordOp is a streaming stage's prepared operator.
type recordOp struct {
	// ask runs one record's unit task and returns its output records, in
	// output order. For an operator without a group form it is called
	// first on the stage goroutine under workflow.HitsOnly, then from as
	// many goroutines at once as the stage's window holds slots. An ask
	// that ends in workflow.ErrNotCached there must have had no effect,
	// because the window then runs it again for real: whatever it counts,
	// it counts only on another outcome.
	ask func(ctx context.Context, r dataset.Record) ([]dataset.Record, error)
	// group, when set, is the operator's group form: the window hands it
	// the records it admits together, up to embed.GroupWidth at a time, so
	// work they share (impute's k-NN pass) is done once. A record admitted
	// alone is a group of one. Without it the window runs ask as a group
	// form of width 1.
	group groupTask[[]dataset.Record]
	// detail summarises the finished stream for the stage report.
	detail func(consumed int) string
	// fanout is the most outputs one record can produce (0 means 1). A
	// fan-out stage widens the sequence key — output j of input seq gets
	// seq*fanout+j — so its outputs sort into input order, then output
	// order, with no re-sequencing on the edge.
	fanout int64
}

// groupTask runs a group of records at once. It reports each record's
// outcome through emit — exactly once per record, from any goroutine, as
// soon as that record's outcome is known — and returns once every one has
// been reported. Whatever the group's records wait on one by one (an LLM
// ask) it waits on concurrently, so a group holds no record back behind
// another. The window probes only the records of a width-1 form; a group
// task that probes its own (core.PreparedImpute.AskGroup does, on the
// group goroutine) reports a probe's miss to no one: the miss has had no
// effect, and the record is reported once its real ask returns.
type groupTask[T any] func(ctx context.Context, recs []dataset.Record, emit func(i int, out T, err error))

// solo is the group form around a per-record task: each record asks on a
// goroutine of its own, the last on the group's. The window runs it at
// width 1, but in a batched run over a whole sequence block.
func solo[T any](task func(context.Context, dataset.Record) (T, error)) groupTask[T] {
	return func(ctx context.Context, recs []dataset.Record, emit func(int, T, error)) {
		if len(recs) == 1 {
			out, err := task(ctx, recs[0])
			emit(0, out, err)
			return
		}
		var wg sync.WaitGroup
		for i, r := range recs[:len(recs)-1] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, err := task(ctx, r)
				emit(i, out, err)
			}()
		}
		out, err := task(ctx, recs[len(recs)-1])
		emit(len(recs)-1, out, err)
		wg.Wait()
	}
}

// gate is a window's start gate. It opens once the stage's dynamic side
// stage, if any, has finished and, when it drains (Materialized, where
// every edge is a barrier), once the stage's input has ended.
type gate struct {
	side  *streamOut // the dynamic side stage, or nil
	name  string     // the side table's name
	drain bool       // wait for the input's end, then number the held records by position
}

// open readies the records the window held behind the gate: it puts them
// in sequence-key order and, when the gate drains, renumbers them by
// position, the way a barrier numbers its output, so a batched stage cuts
// the blocks a whole-table run cuts. It overlays the side table on the
// stage's tables, or returns the side stage's error.
func (g *gate) open(env *Env, held []seqRecord) error {
	if g.side != nil {
		if g.side.err != nil {
			return g.side.err
		}
		env.overlaySide(g.name, g.side.table)
	}
	slices.SortFunc(held, func(a, b seqRecord) int { return cmp.Compare(a.seq, b.seq) })
	if g.drain {
		for i := range held {
			held[i].seq = int64(i)
		}
	}
	return nil
}

// blocks is a batched window's sequence-block state (Env.batch > 1). A
// block is the records whose keys fall in one aligned range of size keys,
// run as one group on one slot, given back with its last result. A block
// starts once every key in it has arrived or lies below the input's
// watermark (a mark on the edge, or the edge's end), so which records
// share a block never depends on timing; blocks start in block order, each
// under a workflow.Turn, so of two blocks asking one key the earlier leads
// it. An operator without a group form runs its block's records
// concurrently. After each turn the stage's own watermark — its input's,
// held back to the first key of its lowest block not done — goes
// downstream when it has moved.
type blocks struct {
	size    int64          // keys per block
	wm      int64          // the input's watermark
	sent    int64          // the last watermark sent downstream
	running map[int64]int  // each started block's records not done
	turn    *workflow.Turn // the latest block's turn
	stalled bool           // a whole block waits for a slot
}

// start starts every whole block at the head of held, which is in
// sequence-key order, while the ledger grants a slot, and returns the
// records left held.
func (b *blocks) start(held []seqRecord, slots *stageSlots, spawn func([]seqRecord, *workflow.Turn)) []seqRecord {
	for b.stalled = false; len(held) > 0; {
		k, n := held[0].seq/b.size, 1
		for n < len(held) && held[n].seq/b.size == k {
			n++
		}
		if int64(n) < b.size && k >= b.wm/b.size {
			break // not whole yet
		}
		if b.stalled = slots.take(1) == 0; b.stalled {
			break
		}
		b.running[k] = n
		b.turn = workflow.NextTurn(b.turn)
		spawn(held[:n], b.turn)
		held = held[n:]
	}
	return held
}

// settle sends the stage's watermark downstream through mark when it has
// moved.
func (b *blocks) settle(held []seqRecord, mark func(int64) error) error {
	low := b.wm
	for _, r := range held {
		low = min(low, r.seq/b.size*b.size)
	}
	for k := range b.running {
		low = min(low, k*b.size)
	}
	if low <= b.sent || low == math.MaxInt64 {
		return nil
	}
	b.sent = low
	return mark(low)
}

// done counts one record of a started block as done.
func (b *blocks) done(seq int64) {
	if k := seq / b.size; b.running[k] > 1 {
		b.running[k]--
	} else {
		delete(b.running, k)
	}
}

// window is the executor's one streaming loop. Each turn it hands on the
// results already finished, then admits records waiting on in while the
// stage's ledger has a slot to give — within its own width, or the width
// of a stage downstream of it that has no backlog (see slotLedger) — or
// takes a finished record's result and every other result already there.
// Input comes in runs (see edge); a turn admits from at most one of them,
// and the records it does not reach stay in the run the window holds,
// counted as the stage's backlog. prepare runs once, on the stage
// goroutine, at the first record admitted, and returns the operator's
// group form; an operator without one runs solo(task), a form of width 1.
//
// A window with a start gate (Env.gate) reads and holds its input from
// the first record, but it prepares, probes and starts nothing, and holds
// no slot, until the gate opens: then it admits every record it held at
// once. The time it spends gated is its Wait.
//
// Every record starts one way. A record of a width-1 form is probed as it
// is admitted: task runs on the stage goroutine under workflow.HitsOnly,
// and if every ask it makes is a cache hit, the record is done right
// there, without taking a slot. At the end of the turn the records
// admitted and not done take a slot each and run in groups of at most the
// form's width (embed.GroupWidth for an operator's own form), cut in
// sequence-key order, one goroutine per group. A record that finds no
// slot is held on the stage goroutine, and the stage admits nothing more,
// until one comes free. Each slot goes back to the ledger from the
// goroutine whose ask returned, before its result is handed back, so a
// stage blocked handing records downstream holds none. done is called on
// the stage goroutine for each record the moment its result is known, in
// completion order; flush, at the start of every turn and before the
// window returns, hands on as one run what done emitted in the turn
// before, so the window never waits for input or a slot holding output.
// A non-nil error from prepare, done, mark or flush ends the loop, which
// cancels and waits out the records still in flight before returning.
// Time blocked for input with nothing in flight is the stage's Wait; time
// holding a record for a slot is not.
//
// In a batched run (Env.batch > 1) records are cut by sequence block
// instead (see blocks). Nothing is probed.
//
// Cancellation is also polled, without a lock, at the top of every turn
// and before each further record a turn admits: Go's select picks among
// ready cases at random, and the input is read without one when a record
// is ready, so a flooding upstream could otherwise keep a cancelled stage
// starting records, or answering them inline.
func window[T any](ctx context.Context, env *Env, in *edge, prepare func() (groupTask[T], error),
	task func(context.Context, dataset.Record) (T, error), done func(seqRecord, T, error) error,
	mark func(int64) error, flush func() error) (int, error) {
	type result struct {
		in  seqRecord
		out T
		err error
	}
	slots, g, gated := env.slots, env.gate, time.Now()
	var side <-chan struct{} // the side stage's end, until it comes
	if g == nil {
		slots.join(in)
	} else if g.side != nil {
		side = g.side.done
	}
	halt := ctx.Done()
	halted := func() bool {
		select {
		case <-halt:
			return true
		default:
			return false
		}
	}
	tctx, cancel := context.WithCancel(ctx)
	defer cancel()
	pctx, probe := workflow.HitsOnly(tctx)
	// Room for every record the stage can have in flight (see resultRoom):
	// a task gives its slot back before it sends, so it waits here only
	// while the stage has started records ahead of taking earlier results.
	results := make(chan result, env.resultRoom())
	consumed, inflight, room := 0, 0, 0
	box, reading := inbox{edge: in}, true
	var group groupTask[T]
	width := 0           // the most records group takes at once
	var held []seqRecord // records read behind the gate, or admitted and waiting for a slot or their block
	var bl *blocks
	if env.batch > 1 {
		bl = &blocks{size: int64(env.batch), running: map[int64]int{}}
	}
	stop := func(err error) (int, error) {
		cancel()
		for ; inflight > 0; inflight-- {
			<-results
		}
		return consumed, err
	}
	// spawn runs one group on a goroutine of its own. Each record's slot
	// goes back as its outcome is reported; a block's, with its last one.
	spawn := func(rs []seqRecord, turn *workflow.Turn) {
		inflight += len(rs)
		if width == 1 && turn == nil {
			// solo's group of one: the record's own task, with nothing to
			// copy out of held.
			r := rs[0]
			go func() {
				out, err := task(tctx, r.rec)
				slots.release()
				results <- result{r, out, err}
			}()
			return
		}
		seqs := make([]int64, len(rs))
		recs := make([]dataset.Record, len(rs))
		for i, r := range rs {
			seqs[i], recs[i] = r.seq, r.rec
		}
		if turn == nil {
			go group(tctx, recs, func(i int, out T, err error) {
				slots.release()
				results <- result{seqRecord{seq: seqs[i], rec: recs[i]}, out, err}
			})
			return
		}
		left := new(atomic.Int32)
		left.Store(int32(len(rs)))
		go func() {
			defer turn.End()
			group(turn.Context(tctx), recs, func(i int, out T, err error) {
				if left.Add(-1) == 0 {
					slots.release()
				}
				results <- result{seqRecord{seq: seqs[i], rec: recs[i]}, out, err}
			})
		}()
	}
	// start runs the held records, in sequence-key order, on the slots the
	// ledger grants. Records left without a slot stay held, and the turn's
	// room is spent. In a batched run the blocks start instead.
	start := func() {
		slices.SortFunc(held, func(a, b seqRecord) int { return cmp.Compare(a.seq, b.seq) })
		if bl != nil {
			held = bl.start(held, slots, spawn)
			return
		}
		n := slots.take(len(held))
		for lo := 0; lo < n; lo += width {
			spawn(held[lo:min(lo+width, n)], nil)
		}
		if room -= n; n < len(held) {
			room = 0
		}
		held = held[:copy(held, held[n:])]
	}
	// admit takes one record, preparing the operator at the first: a
	// width-1 form's record is done inline when its probe hits; every other
	// is held until the turn's groups are cut.
	admit := func(r seqRecord) error {
		if consumed == 0 {
			var err error
			if group, err = prepare(); err != nil {
				return err
			}
			if width = embed.GroupWidth; group == nil {
				group, width = solo(task), 1
			}
		}
		consumed++
		if width == 1 && bl == nil {
			if out, err := task(pctx, r.rec); probe.Settle(tctx, err) {
				return done(r, out, err)
			}
		}
		held = append(held, r)
		return nil
	}
	// read handles one record taken from the input: a mark moves the
	// watermark and a gated window holds the record; otherwise the record
	// is admitted, and so are the rest of the run held while the turn has
	// room, and the turn's records start.
	read := func(r seqRecord) error {
		switch {
		case r.mark:
			if bl != nil {
				bl.wm = max(bl.wm, r.seq)
			}
			return nil
		case g != nil:
			held = append(held, r)
			return nil
		}
		if err := admit(r); err != nil {
			return err
		}
		for room > len(held) && len(box.run) > 0 {
			if halted() {
				return ctx.Err()
			}
			if err := admit(box.take()); err != nil {
				return err
			}
		}
		if len(held) > 0 {
			start()
		}
		return nil
	}
	// ended notes the input's end.
	ended := func() {
		reading = false
		if bl != nil {
			bl.wm = math.MaxInt64
		}
	}
	collect := func(res result) error {
		for {
			inflight--
			if bl != nil {
				bl.done(res.in.seq)
			}
			if err := done(res.in, res.out, res.err); err != nil {
				return err
			}
			select {
			case res = <-results:
			default:
				return nil
			}
		}
	}
	for g != nil || reading || inflight > 0 || len(held) > 0 {
		if err := flush(); err != nil {
			return stop(err)
		}
		if halted() {
			return stop(ctx.Err())
		}
		if g != nil && side == nil && (!reading || !g.drain) {
			// The gate opens: admit every record it held.
			if err := g.open(env, held); err != nil {
				return stop(err)
			}
			g = nil
			env.stats.t.Wait += time.Since(gated)
			slots.join(in)
			waiting := held
			held = held[:0]
			for _, r := range waiting {
				if err := admit(r); err != nil {
					return stop(err)
				}
			}
			continue
		}
		if g == nil && len(held) > 0 {
			start()
		}
		if g == nil && bl != nil {
			if err := bl.settle(held, mark); err != nil {
				return stop(err)
			}
		}
		if inflight > 0 && len(results) > 0 {
			if err := collect(<-results); err != nil {
				return stop(err)
			}
			continue
		}
		// Read on while a slot is free, or while nothing is in flight: a
		// stage that can take no slot still takes its next record and
		// holds it, so its backlog keeps borrowers from counting its width
		// as slots come back, and the wait for that record counts as Wait.
		// A batched stage reads on unless a whole block waits for a slot,
		// and a gated one reads on until its gate opens.
		room = 0
		next, wake := reading, (<-chan struct{})(nil)
		switch {
		case g != nil: // holds what it reads until the gate opens
		case bl != nil:
			if bl.stalled {
				next, wake = false, slots.wake
			}
		default:
			if len(held) == 0 {
				room = slots.avail()
			}
			if len(held) > 0 || (room == 0 && inflight > 0) {
				next, wake = false, slots.wake
			}
		}
		var runs chan []seqRecord
		if next {
			r, ok, end := box.poll()
			if end {
				ended()
				continue
			}
			if ok {
				if err := read(r); err != nil {
					return stop(err)
				}
				continue
			}
			runs = box.runs
		}
		var idle time.Time
		if g == nil && inflight == 0 && next {
			idle = time.Now()
		}
		select {
		case run, ok := <-runs:
			if !idle.IsZero() {
				env.stats.t.Wait += time.Since(idle)
			}
			if !ok {
				ended()
				continue
			}
			box.run = run
			if err := read(box.take()); err != nil {
				return stop(err)
			}
		case res := <-results:
			if err := collect(res); err != nil {
				return stop(err)
			}
		case <-side:
			side = nil
		case <-wake:
		case <-halt:
			return stop(ctx.Err())
		}
	}
	if err := flush(); err != nil {
		return stop(err)
	}
	return consumed, nil
}

// runWindow streams one stage through window: prepare the operator at the
// first record, ask per record or per group, emit each record's outputs as
// it finishes and — in degraded mode — drop exactly the record whose ask
// failed. A watermark goes downstream widened by the stage's fan-out.
func runWindow(ctx context.Context, env *Env, in *edge, st Streamer, out *streamOut) (int, error) {
	op := recordOp{fanout: 1}
	consumed, err := window(ctx, env, in,
		func() (groupTask[[]dataset.Record], error) {
			var err error
			op, err = st.Prepare(env)
			if op.fanout == 0 {
				op.fanout = 1
			}
			return op.group, err
		},
		func(ctx context.Context, r dataset.Record) ([]dataset.Record, error) { return op.ask(ctx, r) },
		func(r seqRecord, recs []dataset.Record, err error) error {
			if err != nil {
				if !degradable(env, err) {
					return err
				}
				env.dropRecord(r.rec, err)
				return nil
			}
			if r.seq > (math.MaxInt64-op.fanout)/op.fanout {
				return fmt.Errorf("sequence key overflow at record %q (fan-out %d)", r.rec.ID, op.fanout)
			}
			for j, rec := range recs {
				out.emit(seqRecord{seq: r.seq*op.fanout + int64(j), rec: rec})
			}
			return nil
		},
		func(w int64) error { return out.mark(ctx, min(w, math.MaxInt64/op.fanout)*op.fanout) },
		func() error { return out.flush(ctx) })
	if err == nil && consumed > 0 {
		env.detail(env.stats.stage, op.detail(consumed))
	}
	return consumed, err
}

// degradable reports whether a record error may be absorbed by skip or
// quarantine mode. Cancellation, budget exhaustion, and an open circuit
// breaker poison every record, not one — degrading on them would drop
// the whole stream one record at a time.
func degradable(env *Env, err error) bool {
	if env.onErr != OnRecordSkip && env.onErr != OnRecordQuarantine {
		return false
	}
	return !cancellation(err) && !errors.Is(err, workflow.ErrBudgetExhausted) && !errors.Is(err, resil.ErrBreakerOpen)
}

// baseStage carries the shared identity fields.
type baseStage struct{ spec StageSpec }

func (b baseStage) Name() string  { return b.spec.Name }
func (b baseStage) Kind() string  { return b.spec.Kind }
func (b baseStage) Input() string { return b.spec.Input }

// buildStage constructs the concrete stage for a validated spec.
func buildStage(s StageSpec) (Stage, error) {
	base := baseStage{spec: s}
	switch s.Kind {
	case KindFilter:
		return filterStage{base}, nil
	case KindCategorize:
		return categorizeStage{base}, nil
	case KindResolve:
		return resolveStage{base}, nil
	case KindImpute:
		return imputeStage{base}, nil
	case KindJoin:
		return joinStage{base}, nil
	case KindSort:
		return sortStage{base}, nil
	case KindMax:
		return maxStage{base}, nil
	case KindCount:
		return countStage{base}, nil
	}
	return nil, fmt.Errorf("pipeline: unknown kind %q", s.Kind)
}

// render turns a record into the operator's item text: a single field's
// value, or the full serialized record when no field is selected.
func render(r dataset.Record, field string) string {
	if field == "" {
		return r.String()
	}
	v, _ := r.Get(field)
	return v
}

func renderAll(in []dataset.Record, field string) []string {
	out := make([]string, len(in))
	for i, r := range in {
		out[i] = render(r, field)
	}
	return out
}

func entities(in []dataset.Record, field string) []core.Entity {
	out := make([]core.Entity, len(in))
	for i, r := range in {
		out[i] = core.Entity{ID: r.ID, Text: render(r, field)}
	}
	return out
}

type filterStage struct{ baseStage }

func (s filterStage) request() core.FilterRequest {
	return core.FilterRequest{Predicate: s.spec.Predicate, Strategy: core.FilterStrategy(s.spec.Strategy)}
}

// filterDetail is the one report string for a filter's work.
func filterDetail(kept, seen, asks int) string {
	return fmt.Sprintf("kept %d/%d (%d asks)", kept, seen, asks)
}

// detailSkippedEmpty marks a stage that saw no input records.
const detailSkippedEmpty = "skipped: empty input"

// CanStream implements Streamer: every filter policy decides per item.
func (s filterStage) CanStream() bool { return true }

func (s filterStage) Prepare(env *Env) (recordOp, error) {
	f, err := env.Engine.PrepareFilter(s.request())
	if err != nil {
		return recordOp{}, err
	}
	var kept, asks atomic.Int64
	output := func(r dataset.Record, a core.FilterAnswer, err error) ([]dataset.Record, error) {
		asks.Add(int64(a.Asks))
		if err != nil || !a.Keep {
			return nil, err
		}
		kept.Add(1)
		return []dataset.Record{r}, nil
	}
	op := recordOp{
		ask: func(ctx context.Context, r dataset.Record) ([]dataset.Record, error) {
			a, err := f.Ask(ctx, render(r, s.spec.Field))
			if errors.Is(err, workflow.ErrNotCached) {
				return nil, err // a probe's miss: the real ask counts its asks
			}
			return output(r, a, err)
		},
		detail: func(consumed int) string { return filterDetail(int(kept.Load()), consumed, int(asks.Load())) },
	}
	if f.Batched() {
		op.group = func(ctx context.Context, rs []dataset.Record, emit func(int, []dataset.Record, error)) {
			f.AskGroup(ctx, renderAll(rs, s.spec.Field), func(i int, a core.FilterAnswer, err error) {
				out, err := output(rs[i], a, err)
				emit(i, out, err)
			})
		}
	}
	return op, nil
}

type categorizeStage struct{ baseStage }

func (s categorizeStage) outField() string {
	if s.spec.OutField != "" {
		return s.spec.OutField
	}
	return "category"
}

func (s categorizeStage) Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error) {
	res, err := env.Engine.Categorize(ctx, core.CategorizeRequest{
		Items:      renderAll(in, s.spec.Field),
		Categories: s.spec.Categories,
		Strategy:   core.CategorizeStrategy(s.spec.Strategy),
	})
	if err != nil {
		return nil, err
	}
	out := make([]dataset.Record, len(in))
	for i, r := range in {
		out[i] = r.With(s.outField(), res.Assignments[i])
	}
	env.detail(s.Name(), fmt.Sprintf("%d categories", len(res.Categories)))
	return out, nil
}

// CanStream implements Streamer: direct assignment against a closed
// category set is per-record; two-phase discovers the set from the whole
// table, so which records it sees would change it.
func (s categorizeStage) CanStream() bool {
	return s.spec.Strategy != string(core.CategorizeTwoPhase)
}

func (s categorizeStage) Prepare(env *Env) (recordOp, error) {
	c, err := env.Engine.PrepareCategorize(s.spec.Categories)
	if err != nil {
		return recordOp{}, err
	}
	output := func(r dataset.Record, v string, err error) ([]dataset.Record, error) {
		if err != nil {
			return nil, err
		}
		return []dataset.Record{r.With(s.outField(), v)}, nil
	}
	op := recordOp{
		ask: func(ctx context.Context, r dataset.Record) ([]dataset.Record, error) {
			v, err := c.Ask(ctx, render(r, s.spec.Field))
			return output(r, v, err)
		},
		detail: func(int) string { return fmt.Sprintf("%d categories", len(s.spec.Categories)) },
	}
	if c.Batched() {
		op.group = func(ctx context.Context, rs []dataset.Record, emit func(int, []dataset.Record, error)) {
			c.AskGroup(ctx, renderAll(rs, s.spec.Field), func(i int, v string, err error) {
				out, err := output(rs[i], v, err)
				emit(i, out, err)
			})
		}
	}
	return op, nil
}

// resolveStage deduplicates the table: records the engine judges to refer
// to one entity collapse to a single representative — deterministically
// the member with the lexicographically smallest ID — preserving input
// order.
type resolveStage struct{ baseStage }

func (s resolveStage) Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error) {
	seen := make(map[string]bool, len(in))
	for _, r := range in {
		if seen[r.ID] {
			return nil, fmt.Errorf("stage %q: duplicate record ID %q", s.Name(), r.ID)
		}
		seen[r.ID] = true
	}
	res, err := env.Engine.Dedupe(ctx, core.DedupeRequest{
		Records:       entities(in, s.spec.Field),
		Strategy:      core.DedupeStrategy(s.spec.Strategy),
		BlockDistance: s.spec.BlockDistance,
	})
	if err != nil {
		return nil, err
	}
	keep := make(map[string]bool, len(res.Groups))
	for _, g := range res.Groups {
		rep := g[0]
		for _, id := range g[1:] {
			if id < rep {
				rep = id
			}
		}
		keep[rep] = true
	}
	var out []dataset.Record
	for _, r := range in {
		if keep[r.ID] {
			out = append(out, r)
		}
	}
	env.detail(s.Name(), fmt.Sprintf("%d records -> %d entities (%d comparisons)", len(in), len(out), res.LLMComparisons))
	return out, nil
}

type imputeStage struct{ baseStage }

// request resolves the training side table into the operator request
// (without queries).
func (s imputeStage) request(env *Env) (core.ImputeRequest, error) {
	side := s.spec.Side
	if side == "" {
		side = "train"
	}
	train := env.Tables[side]
	if len(train) == 0 {
		return core.ImputeRequest{}, fmt.Errorf("stage %q: side table %q is empty or missing", s.Name(), side)
	}
	return core.ImputeRequest{
		Train:       train,
		TargetField: s.spec.TargetField,
		Strategy:    core.ImputeStrategy(s.spec.Strategy),
		Neighbors:   s.spec.Neighbors,
		Examples:    s.spec.Examples,
		TrainKey:    env.keys[side],
	}, nil
}

func (s imputeStage) Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error) {
	req, err := s.request(env)
	if err != nil {
		return nil, err
	}
	train := req.Train
	strategy := s.spec.Strategy
	note := ""
	if strategy == "auto" {
		// Per-stage planning under the whole-pipeline budget: profile the
		// impute strategies on held-out training records and pick under
		// whatever dollar headroom the shared budget still has. An
		// exhausted cap must stay a cap — PlanStrategies reads
		// maxDollars <= 0 as unlimited, so clamp to the smallest positive
		// budget instead: only free strategies fit, everything else falls
		// through to the cheapest-overall rule.
		maxDollars := 0.0
		if rem, capped := env.Budget.RemainingDollars(); capped {
			maxDollars = rem
			if maxDollars <= 0 {
				maxDollars = math.SmallestNonzeroFloat64
			}
		}
		holdout := len(train) / 4
		if holdout < 1 {
			holdout = 1
		}
		if holdout >= len(train) {
			return nil, fmt.Errorf("stage %q: %d training records are too few to plan over", s.Name(), len(train))
		}
		target := s.spec.TargetAccuracy
		if target == 0 {
			target = 0.8
		}
		plan, err := env.Engine.PlanImpute(ctx, train, s.spec.TargetField,
			[]core.ImputeStrategy{core.ImputeKNN, core.ImputeLLM, core.ImputeHybrid},
			holdout, s.spec.Examples, target, maxDollars, len(in))
		if err != nil {
			return nil, fmt.Errorf("stage %q: planning: %w", s.Name(), err)
		}
		strategy = plan.Chosen
		note = fmt.Sprintf("; planner chose %q (%s)", plan.Chosen, plan.Reason)
	}
	req.Strategy, req.Queries = core.ImputeStrategy(strategy), in
	res, err := env.Engine.Impute(ctx, req)
	if err != nil {
		return nil, err
	}
	out := make([]dataset.Record, len(in))
	for i, r := range in {
		out[i] = r.With(s.spec.TargetField, res.Values[i])
	}
	env.detail(s.Name(), imputeDetail(res.LLMCalls, res.KNNDecided)+note)
	return out, nil
}

func imputeDetail(llmCalls, knnDecided int) string {
	return fmt.Sprintf("%d by LLM, %d by k-NN", llmCalls, knnDecided)
}

// CanStream implements Streamer: a fixed strategy answers per query
// record from the static training table. Strategy "auto" is a barrier —
// the planner's projected costs scale with the query-table size, so it
// must see the whole table (the same reason it blocks filter pushdown).
func (s imputeStage) CanStream() bool { return s.spec.Strategy != "auto" }

func (s imputeStage) Prepare(env *Env) (recordOp, error) {
	req, err := s.request(env)
	if err != nil {
		return recordOp{}, err
	}
	p, err := env.Engine.PrepareImpute(req)
	if err != nil {
		return recordOp{}, err
	}
	// llmCalls is counted only once an answer is in, so a probe's miss
	// counts nothing.
	var llmCalls atomic.Int64
	output := func(r dataset.Record, a core.ImputeAnswer) []dataset.Record {
		if a.ByLLM {
			llmCalls.Add(1)
		}
		return []dataset.Record{r.With(s.spec.TargetField, a.Value)}
	}
	op := recordOp{
		ask: func(ctx context.Context, r dataset.Record) ([]dataset.Record, error) {
			a, err := p.Ask(ctx, r)
			if err != nil {
				return nil, err
			}
			return output(r, a), nil
		},
		detail: func(consumed int) string {
			llm := int(llmCalls.Load())
			return imputeDetail(llm, consumed-llm)
		},
	}
	if p.UsesIndex() || env.batch > 1 {
		// A group shares one blocked k-NN pass, and in a batched run one
		// envelope; otherwise each record that needs the model is answered
		// on the group goroutine when its answer is cached, and asks on a
		// goroutine of its own when it is not.
		op.group = func(ctx context.Context, rs []dataset.Record, emit func(int, []dataset.Record, error)) {
			p.AskGroup(ctx, rs, func(i int, a core.ImputeAnswer, err error) {
				if err != nil {
					emit(i, nil, err)
					return
				}
				emit(i, output(rs[i], a), nil)
			})
		}
	}
	return op, nil
}

// joinStage fuzzy-joins the input table (left) against a static side
// table (right): the output holds one record per matched pair — the left
// record annotated with the matching right ID.
type joinStage struct{ baseStage }

// side resolves the right-side table.
func (s joinStage) side(env *Env) ([]dataset.Record, error) {
	side := env.Tables[s.spec.Side]
	if len(side) == 0 {
		return nil, fmt.Errorf("stage %q: side table %q is empty or missing", s.Name(), s.spec.Side)
	}
	return side, nil
}

func (s joinStage) outField() string {
	if s.spec.OutField != "" {
		return s.spec.OutField
	}
	return "match"
}

func joinDetail(matches, comparisons, byClosure, byDistance int) string {
	return fmt.Sprintf("%d matches (%d comparisons, %d skipped by closure, %d by distance)",
		matches, comparisons, byClosure, byDistance)
}

// Run joins the whole table. Output rows are ordered by the left record's
// input position (then right ID) — not by the engine's global LeftID sort
// — which is exactly the order the streaming path's sequence keys give.
func (s joinStage) Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error) {
	side, err := s.side(env)
	if err != nil {
		return nil, err
	}
	res, err := env.Engine.Join(ctx, core.JoinRequest{
		Left:              entities(in, s.spec.Field),
		Right:             entities(side, s.spec.Field),
		Strategy:          core.JoinStrategy(s.spec.Strategy),
		CandidateDistance: s.spec.BlockDistance,
	})
	if err != nil {
		return nil, err
	}
	byID := make(map[string]dataset.Record, len(in))
	pos := make(map[string]int, len(in))
	for i, r := range in {
		byID[r.ID] = r
		pos[r.ID] = i
	}
	matches := append([]core.JoinPair(nil), res.Matches...)
	sort.Slice(matches, func(i, j int) bool {
		if pos[matches[i].LeftID] != pos[matches[j].LeftID] {
			return pos[matches[i].LeftID] < pos[matches[j].LeftID]
		}
		return matches[i].RightID < matches[j].RightID
	})
	var out []dataset.Record // nil when nothing matched, as the streaming path collects it
	for _, m := range matches {
		out = append(out, byID[m.LeftID].With(s.outField(), m.RightID))
	}
	env.detail(s.Name(), joinDetail(len(res.Matches), res.LLMComparisons, res.SkippedByTransitivity, res.SkippedByDistance))
	return out, nil
}

// CanStream implements Streamer: nested-loop matches each left record
// against the static right side independently. The transitive strategy
// reuses closure evidence across left records, so which records it has
// already seen would change which comparisons it skips.
func (s joinStage) CanStream() bool {
	return s.spec.Strategy == string(core.JoinNestedLoop)
}

func (s joinStage) Prepare(env *Env) (recordOp, error) {
	side, err := s.side(env)
	if err != nil {
		return recordOp{}, err
	}
	j, err := env.Engine.PrepareJoin(entities(side, s.spec.Field))
	if err != nil {
		return recordOp{}, err
	}
	// matches and comparisons are counted only once a record is answered,
	// so a probe's miss counts nothing.
	var matches, comparisons atomic.Int64
	return recordOp{
		ask: func(ctx context.Context, r dataset.Record) ([]dataset.Record, error) {
			a, err := j.Ask(ctx, core.Entity{ID: r.ID, Text: render(r, s.spec.Field)})
			if err != nil {
				return nil, err
			}
			matches.Add(int64(len(a.Matches)))
			comparisons.Add(int64(a.Comparisons))
			sort.Slice(a.Matches, func(i, k int) bool { return a.Matches[i].RightID < a.Matches[k].RightID })
			out := make([]dataset.Record, len(a.Matches))
			for i, m := range a.Matches {
				out[i] = r.With(s.outField(), m.RightID)
			}
			return out, nil
		},
		detail: func(int) string { return joinDetail(int(matches.Load()), int(comparisons.Load()), 0, 0) },
		fanout: int64(len(side)),
	}, nil
}

type sortStage struct{ baseStage }

func (s sortStage) Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error) {
	byText := make(map[string]int, len(in))
	items := renderAll(in, s.spec.Field)
	for i, it := range items {
		if _, dup := byText[it]; dup {
			return nil, fmt.Errorf("stage %q: records %q and %q render identically; sort needs distinct items",
				s.Name(), in[byText[it]].ID, in[i].ID)
		}
		byText[it] = i
	}
	res, err := env.Engine.Sort(ctx, core.SortRequest{
		Items:     items,
		Criterion: s.spec.Criterion,
		Strategy:  core.SortStrategy(s.spec.Strategy),
	})
	if err != nil {
		return nil, err
	}
	out := make([]dataset.Record, 0, len(in))
	placed := make([]bool, len(in))
	for _, it := range res.Ranked {
		i := byText[it]
		out = append(out, in[i])
		placed[i] = true
	}
	// Items a coarse strategy omitted keep their input order at the tail.
	for i, r := range in {
		if !placed[i] {
			out = append(out, r)
		}
	}
	env.detail(s.Name(), fmt.Sprintf("ranked %d (missing %d, hallucinated %d)", len(res.Ranked), res.Missing, res.Hallucinated))
	return out, nil
}

// maxStage passes the table through and records the winning item as the
// stage's scalar output.
type maxStage struct{ baseStage }

func (s maxStage) Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error) {
	res, err := env.Engine.Max(ctx, core.MaxRequest{
		Items:     renderAll(in, s.spec.Field),
		Criterion: s.spec.Criterion,
		Strategy:  core.MaxStrategy(s.spec.Strategy),
	})
	if err != nil {
		return nil, err
	}
	env.setScalar(s.Name(), res.Item)
	env.detail(s.Name(), fmt.Sprintf("%d finalists", len(res.Finalists)))
	return in, nil
}

// countStage passes the table through and records the estimated count as
// the stage's scalar output.
type countStage struct{ baseStage }

func (s countStage) Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error) {
	res, err := env.Engine.Count(ctx, core.CountRequest{
		Items:     renderAll(in, s.spec.Field),
		Predicate: s.spec.Predicate,
		Strategy:  core.CountStrategy(s.spec.Strategy),
	})
	if err != nil {
		return nil, err
	}
	env.setScalar(s.Name(), strconv.Itoa(res.Count))
	env.detail(s.Name(), fmt.Sprintf("%d of %d (%.0f%%)", res.Count, len(in), res.Fraction*100))
	return in, nil
}

// sortedKeys returns map keys in sorted order (deterministic reports).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
