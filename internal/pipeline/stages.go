package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/resil"
	"repro/internal/workflow"
)

// Stage is one operator node of a compiled pipeline: a thin typed wrapper
// that renders records into the operator's item shape, invokes the engine,
// and folds the result back into a record table.
type Stage interface {
	// Name is the stage's unique identifier from the spec.
	Name() string
	// Kind is the wrapped operator.
	Kind() string
	// Input names the upstream stage ("source" for the root table).
	Input() string
	// Run executes the operator over the input table within env and
	// returns the stage's output table.
	Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error)
}

// Streamer is the optional streaming face of a Stage: a stage whose
// operator decides each record on its own, so the executor can run
// records as they arrive and emit each the moment it finishes. The
// executor streams a stage only when CanStream reports true — never in
// Materialized mode, and with a dynamic side input only under Adaptive.
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
	// output order. It is called from up to Env.width goroutines at once.
	ask func(ctx context.Context, r dataset.Record) ([]dataset.Record, error)
	// detail summarises the finished stream for the stage report.
	detail func(consumed int) string
	// fanout is the most outputs one record can produce (0 means 1). A
	// fan-out stage widens the sequence key — output j of input seq gets
	// seq*fanout+j — so its outputs sort into input order, then output
	// order, with no re-sequencing on the edge.
	fanout int64
}

// window is the executor's one streaming loop: it starts task for each
// record the moment the record arrives and fewer than env.width are in
// flight (one goroutine per record), and calls done on the stage
// goroutine as each finishes, in completion order. prepare runs once, on
// the stage goroutine, before the first task. A non-nil error from
// prepare or done ends the loop, which cancels and waits out the tasks
// still in flight before returning. Time blocked with an empty window is
// the stage's Wait.
//
// Cancellation is also polled at the top of every turn: Go's select picks
// among ready cases at random, so a flooding upstream could otherwise keep
// a cancelled stage starting records.
func window[T any](ctx context.Context, env *Env, in <-chan seqRecord, prepare func() error,
	task func(context.Context, dataset.Record) (T, error), done func(seqRecord, T, error) error) (int, error) {
	type result struct {
		in  seqRecord
		out T
		err error
	}
	tctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan result, env.width) // a slot per in-flight record: tasks never block
	consumed, inflight := 0, 0
	stop := func(err error) (int, error) {
		cancel()
		for ; inflight > 0; inflight-- {
			<-results
		}
		return consumed, err
	}
	for in != nil || inflight > 0 {
		if err := ctx.Err(); err != nil {
			return stop(err)
		}
		next := in
		if inflight == env.width {
			next = nil
		}
		var idle time.Time
		if inflight == 0 {
			idle = time.Now()
		}
		select {
		case r, ok := <-next:
			if inflight == 0 {
				env.stats.t.Wait += time.Since(idle)
			}
			if !ok {
				in = nil
				continue
			}
			if consumed == 0 {
				if err := prepare(); err != nil {
					return stop(err)
				}
			}
			consumed++
			inflight++
			go func() {
				out, err := task(tctx, r.rec)
				results <- result{r, out, err}
			}()
		case res := <-results:
			inflight--
			if err := done(res.in, res.out, res.err); err != nil {
				return stop(err)
			}
		case <-ctx.Done():
			return stop(ctx.Err())
		}
	}
	return consumed, nil
}

// runWindow streams one stage through window: prepare the operator at the
// first record, ask per record, emit each record's outputs as it finishes
// and — in degraded mode — drop exactly the record whose ask failed.
func runWindow(ctx context.Context, env *Env, in <-chan seqRecord, st Streamer, out *streamOut) (int, error) {
	var op recordOp
	consumed, err := window(ctx, env, in,
		func() (err error) {
			op, err = st.Prepare(env)
			if op.fanout == 0 {
				op.fanout = 1
			}
			return err
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
				if err := out.emit(ctx, seqRecord{r.seq*op.fanout + int64(j), rec}); err != nil {
					return err
				}
			}
			return nil
		})
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

// filterDetail is the one report string for a filter's work, shared by
// the table path, the streaming path, and the adaptive segment runner so
// the three never drift apart.
func filterDetail(kept, seen, asks int) string {
	return fmt.Sprintf("kept %d/%d (%d asks)", kept, seen, asks)
}

// detailSkippedEmpty marks a stage that saw no input records.
const detailSkippedEmpty = "skipped: empty input"

func (s filterStage) Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error) {
	req := s.request()
	req.Items = renderAll(in, s.spec.Field)
	res, err := env.Engine.Filter(ctx, req)
	if err != nil {
		return nil, err
	}
	var out []dataset.Record
	for i, keep := range res.Keep {
		if keep {
			out = append(out, in[i])
		}
	}
	env.detail(s.Name(), filterDetail(len(out), len(in), res.Asks))
	return out, nil
}

// CanStream implements Streamer: every filter policy decides per item.
func (s filterStage) CanStream() bool { return true }

func (s filterStage) Prepare(env *Env) (recordOp, error) {
	f, err := env.Engine.PrepareFilter(s.request())
	if err != nil {
		return recordOp{}, err
	}
	var kept, asks atomic.Int64
	return recordOp{
		ask: func(ctx context.Context, r dataset.Record) ([]dataset.Record, error) {
			a, err := f.Ask(ctx, render(r, s.spec.Field))
			asks.Add(int64(a.Asks))
			if err != nil || !a.Keep {
				return nil, err
			}
			kept.Add(1)
			return []dataset.Record{r}, nil
		},
		detail: func(consumed int) string { return filterDetail(int(kept.Load()), consumed, int(asks.Load())) },
	}, nil
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
		out[i] = r.Clone()
		out[i].Set(s.outField(), res.Assignments[i])
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
	return recordOp{
		ask: func(ctx context.Context, r dataset.Record) ([]dataset.Record, error) {
			v, err := c.Ask(ctx, render(r, s.spec.Field))
			if err != nil {
				return nil, err
			}
			out := r.Clone()
			out.Set(s.outField(), v)
			return []dataset.Record{out}, nil
		},
		detail: func(int) string { return fmt.Sprintf("%d categories", len(s.spec.Categories)) },
	}, nil
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
		out[i] = r.Clone()
		out[i].Set(s.spec.TargetField, res.Values[i])
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
	var llmCalls atomic.Int64
	return recordOp{
		ask: func(ctx context.Context, r dataset.Record) ([]dataset.Record, error) {
			a, err := p.Ask(ctx, r)
			if err != nil {
				return nil, err
			}
			if a.ByLLM {
				llmCalls.Add(1)
			}
			out := r.Clone()
			out.Set(s.spec.TargetField, a.Value)
			return []dataset.Record{out}, nil
		},
		detail: func(consumed int) string {
			llm := int(llmCalls.Load())
			return imputeDetail(llm, consumed-llm)
		},
	}, nil
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
		r := byID[m.LeftID].Clone()
		r.Set(s.outField(), m.RightID)
		out = append(out, r)
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
				out[i] = r.Clone()
				out[i].Set(s.outField(), m.RightID)
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
