// Package core is the declarative prompt-engineering engine — the paper's
// primary contribution. Users state a data-processing objective (sort,
// resolve, impute, filter, count, max, categorize, join) over data items;
// the engine decomposes it into unit LLM tasks under a chosen strategy,
// orchestrates the calls through budget control and caching, repairs the
// noisy answers with internal-consistency machinery, and aggregates a
// final result with full cost accounting.
//
// Every operator offers several strategies spanning the cost/accuracy
// trade-off of Section 3 of the paper; the planner (planner.go) profiles
// strategies on a labelled validation sample and recommends one, the
// AutoML-style workflow of Section 4.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/quality"
	"repro/internal/token"
	"repro/internal/workflow"
)

// ErrBadRequest reports an invalid operator request (empty input, unknown
// strategy, nonsensical parameters).
var ErrBadRequest = errors.New("core: bad request")

// Engine binds operators to a model, budget, and execution policy.
type Engine struct {
	model       llm.Model
	budget      *workflow.Budget
	embedder    embed.Embedder
	parallelism int
	cache       bool
	exec        *workflow.ExecLayer
	batch       int
	attr        *workflow.Attribution
	registry    *embed.Registry
	ixOpts      embed.IndexOptions
	stateDir    string
	stateErr    error
}

// Option configures an Engine.
type Option func(*Engine)

// WithBudget enforces the given budget on every LLM call the engine
// issues. Exhaustion surfaces as workflow.ErrBudgetExhausted.
func WithBudget(b *workflow.Budget) Option {
	return func(e *Engine) { e.budget = b }
}

// WithEmbedder overrides the embedding model used by k-NN-based
// strategies (default: embed.Default()).
func WithEmbedder(em embed.Embedder) Option {
	return func(e *Engine) { e.embedder = em }
}

// parseRetries is how many times a unit task is asked before an
// unparseable reply fails it.
const parseRetries = 3

// DefaultParallelism is the concurrent-call bound of an engine built
// without WithParallelism.
const DefaultParallelism = 8

// WithParallelism bounds concurrent LLM calls (default
// DefaultParallelism).
func WithParallelism(p int) Option {
	return func(e *Engine) { e.parallelism = p }
}

// WithoutCache disables response caching (enabled by default; identical
// unit tasks are answered once and re-served free, as in production
// deployments).
func WithoutCache() Option {
	return func(e *Engine) { e.cache = false }
}

// WithExecutionLayer attaches a shared execution layer: one sharded
// response cache plus one in-flight coalescer spanning every operator
// this engine runs — and every other engine given the same layer. It
// replaces the default per-invocation layer; WithoutCache is ignored
// while a layer is attached.
func WithExecutionLayer(l *workflow.ExecLayer) Option {
	return func(e *Engine) { e.exec = l }
}

// WithBatching packs up to k unit tasks into one multi-task prompt for
// the strategies that issue homogeneous per-item tasks (per-item filter,
// categorize assignment, LLM imputation). k <= 1 disables batching (the
// default). The items are cut into aligned blocks of k, in item order; a
// block's cache misses ride one envelope, and at most the engine's
// parallelism blocks are in flight. Batching packs what the cache misses,
// so it needs the cache: under WithoutCache every task is asked alone. See
// workflow.CompleteGroup for the splitting and retry semantics.
func WithBatching(k int) Option {
	return func(e *Engine) { e.batch = k }
}

// WithAttribution attaches a per-stage usage ledger: every upstream call
// the engine issues is recorded under the stage label carried by its
// context (workflow.TagStage), in addition to the per-invocation usage the
// operator results report. The pipeline executor uses this to break one
// shared budget down by stage; untagged calls land under the "" label.
func WithAttribution(a *workflow.Attribution) Option {
	return func(e *Engine) { e.attr = a }
}

// WithIndexRegistry attaches a shared embedding-index registry: operators
// that index a corpus (resolve, dedupe, join, find, impute) reuse one
// built index per distinct corpus instead of re-embedding it per
// invocation. Pass the same registry to every engine of a pipeline — or
// keep one per service — to make corpus indexing a once-per-content cost.
func WithIndexRegistry(r *embed.Registry) Option {
	return func(e *Engine) { e.registry = r }
}

// WithIndexOptions sets the embed.IndexOptions the engine's k-NN indexes
// are built with: the partition count and k-means seed blocking draws its
// candidate pairs from (k-NN search itself has no options). Options are
// part of the registry slot key, so engines sharing one registry with
// different configurations never serve each other's indexes.
func WithIndexOptions(opts embed.IndexOptions) Option {
	return func(e *Engine) { e.ixOpts = opts }
}

// WithStateDir enables persistent warm state under dir, spanning both
// stateful layers with one flag: the engine's execution-layer cache is
// backed by an append-only log (dir/cache.log — replayed on startup,
// flushed via FlushState), and its index registry warm-loads persisted
// index files instead of re-embedding and re-clustering corpora it has
// seen before (see docs/PERSISTENCE.md). Missing registry or execution
// layer are created; pass explicit ones (shared across engines) before
// this option to persist those instead. State problems never fail
// engine construction — a fresh log is started and indexes rebuild —
// but are reported by StateError.
func WithStateDir(dir string) Option {
	return func(e *Engine) { e.stateDir = dir }
}

// New returns an engine using the given model.
func New(model llm.Model, opts ...Option) *Engine {
	e := &Engine{
		model:       model,
		budget:      workflow.Unlimited(),
		embedder:    embed.Default(),
		parallelism: DefaultParallelism,
		cache:       true,
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.stateDir != "" {
		if e.registry == nil {
			e.registry = embed.NewRegistry()
		}
		e.registry.SetStateDir(e.stateDir)
		if e.exec == nil {
			e.exec = workflow.NewExecLayer()
		}
		if _, err := e.exec.OpenState(e.stateDir); err != nil {
			e.stateErr = err
		}
	}
	return e
}

// StateError reports what went wrong attaching the WithStateDir cache
// log, if anything: the engine runs regardless (state is an
// optimisation), but a caller that expected warm starts can surface it.
func (e *Engine) StateError() error { return e.stateErr }

// FlushState appends the cache entries added since the last flush to
// the persistent log — O(delta), see workflow.CacheLog — returning how
// many were written. Engines without persistent state flush nothing.
func (e *Engine) FlushState() (int, error) {
	if e.exec == nil || !e.exec.HasState() {
		return 0, nil
	}
	return e.exec.FlushState()
}

// CloseState flushes and detaches the persistent cache log. When the
// execution layer is shared, this closes state for every engine using it.
func (e *Engine) CloseState() error {
	if e.exec == nil || !e.exec.HasState() {
		return nil
	}
	return e.exec.CloseState()
}

// Model returns the engine's underlying model (unwrapped).
func (e *Engine) Model() llm.Model { return e.model }

// session wraps the engine's model for one operator invocation: one
// workflow.Meter (budget admission, usage scoped to the operation, and
// per-stage attribution under the call context's tag) below a
// cache-and-coalescer — the engine's shared execution layer when one is
// attached, a private per-invocation layer otherwise.
type session struct {
	model llm.Model
	meter *workflow.Meter
}

func (e *Engine) newSession() *session {
	// Below the cache, so the meter settles exactly the billed upstream
	// calls — envelopes once, cache hits never.
	meter := workflow.NewMeter(e.model, e.budget, e.attr)
	var m llm.Model = meter
	switch {
	case e.exec != nil:
		m = e.exec.Wrap(m)
	case e.cache:
		m = workflow.NewExecLayer().Wrap(m)
	}
	return &session{model: m, meter: meter}
}

// usage returns the tokens actually spent in this session (cache hits are
// free and therefore absent).
func (s *session) usage() token.Usage { return s.meter.Usage() }

// index builds — or, when an index registry is attached, reuses — a k-NN
// index over the items. Registry-served indexes are shared and must be
// treated as query-only, which every operator already honours (build
// fully, then query).
func (e *Engine) index(items []embed.Item) *embed.Index {
	if e.registry != nil {
		return e.registry.IndexWith(e.embedder, items, e.ixOpts)
	}
	ix := embed.NewIndexWith(e.embedder, e.ixOpts)
	ix.AddAll(items)
	return ix
}

// promptBuf is the scratch one unit ask renders into: the prompt, and for
// imputation the query record's serialization. Buffers are pooled and
// released once the answer is parsed, so a warm ask allocates nothing.
// Nothing may keep a slice of a buffer past its release: a parsed answer
// is a substring of the model's response, never of the prompt, and a
// cache miss copies the prompt before anything keeps it.
type promptBuf struct{ prompt, record []byte }

var promptBufs = sync.Pool{New: func() any { return new(promptBuf) }}

func getPromptBuf() *promptBuf { return promptBufs.Get().(*promptBuf) }

func (b *promptBuf) release() { promptBufs.Put(b) }

// askGroup asks n prompts as one group (workflow.CompleteGroup), render
// appending item i's prompt to dst, and reports each answer parse reads
// through answer. An answer that does not parse is asked again, on a
// goroutine of its own, as quality.AskWithRetry asks: its first attempt is
// the cached answer.
func askGroup[T any](ctx context.Context, model llm.Model, n int, render func(dst []byte, i int) []byte,
	parse func(string) (T, error), answer func(i int, v T, err error)) {
	buf := getPromptBuf()
	reqs := make([]llm.Request, n)
	for i := range reqs {
		buf.prompt = render(buf.prompt[:0], i)
		reqs[i].Prompt = string(buf.prompt)
	}
	buf.release()
	resps, errs := workflow.CompleteGroup(ctx, model, reqs)
	var wg sync.WaitGroup
	for i, resp := range resps {
		v, err := parse(resp.Text)
		if errs[i] != nil || err == nil {
			answer(i, v, errs[i])
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := quality.AskWithRetry(ctx, model, reqs[i].Prompt, parse, parseRetries)
			answer(i, v, err)
		}()
	}
	wg.Wait()
}

// mapAsks answers every item, index-aligned, and returns the first error:
// one ask per item, at most the engine's parallelism at once, or — when
// grouped — one group per aligned block of the engine's batch width, at
// most parallelism blocks at once, each under a workflow.Turn in block
// order, so a key two blocks share is led by the earlier one.
func mapAsks[I, T any](ctx context.Context, e *Engine, items []I, grouped bool,
	ask func(context.Context, I) (T, error), group func(context.Context, []I, func(int, T, error))) ([]T, error) {
	if !grouped {
		return workflow.Map(ctx, len(items), e.parallelism, func(ctx context.Context, i int) (T, error) {
			return ask(ctx, items[i])
		})
	}
	out := make([]T, len(items))
	turns := make([]*workflow.Turn, (len(items)+e.batch-1)/e.batch)
	var prev *workflow.Turn
	for b := range turns {
		prev = workflow.NextTurn(prev)
		turns[b] = prev
	}
	_, err := workflow.Map(ctx, len(turns), e.parallelism, func(ctx context.Context, b int) (struct{}, error) {
		defer turns[b].End()
		lo := b * e.batch
		var (
			mu    sync.Mutex
			first error
		)
		group(turns[b].Context(ctx), items[lo:min(lo+e.batch, len(items))], func(i int, v T, err error) {
			if err == nil {
				out[lo+i] = v
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if first == nil {
				first = err
			}
		})
		return struct{}{}, first
	})
	return out, err
}

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}
