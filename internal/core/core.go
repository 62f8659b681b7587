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

	"repro/internal/embed"
	"repro/internal/llm"
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
	retries     int
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

// DefaultParallelism is the concurrent-call bound of an engine built
// without WithParallelism.
const DefaultParallelism = 8

// WithParallelism bounds concurrent LLM calls (default
// DefaultParallelism).
func WithParallelism(p int) Option {
	return func(e *Engine) { e.parallelism = p }
}

// WithRetries sets the parse-retry attempts per unit task (default 3).
func WithRetries(r int) Option {
	return func(e *Engine) { e.retries = r }
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

// WithBatching packs up to k compatible unit tasks into one multi-task
// prompt for the strategies that issue homogeneous per-item tasks
// (per-item filter, categorize assignment, LLM imputation). k <= 1
// disables batching (the default). See workflow.BatchingModel for the
// splitting and retry semantics.
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
		retries:     3,
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
// per-stage attribution under the call context's tag), optional unit-task
// batching, and a cache-and-coalescer — the engine's shared execution
// layer when one is attached, a private per-invocation layer otherwise.
type session struct {
	model llm.Model
	meter *workflow.Meter
}

func (e *Engine) newSession() *session { return e.sessionWith(false) }

// newBatchedSession is the opt-in entry for strategies whose fan-out
// issues homogeneous unit tasks: when the engine has batching enabled,
// concurrent tasks are packed into multi-task prompts. The meter sits
// below the batcher, so s.usage() reports the real (reduced) envelope
// spend.
func (e *Engine) newBatchedSession() *session { return e.sessionWith(true) }

func (e *Engine) sessionWith(batchable bool) *session {
	// Below the batcher and the cache, so the meter settles exactly the
	// billed upstream calls — envelopes once, cache hits never.
	meter := workflow.NewMeter(e.model, e.budget, e.attr)
	var m llm.Model = meter
	if batchable && e.batch > 1 {
		opts := workflow.BatchOptions{MaxBatch: e.batch}
		if e.exec != nil {
			// The shared layer aggregates envelope and solo-retry counts
			// across every per-session batcher, so ExecLayer.Stats reports
			// batching alongside cache hits and coalescing.
			opts.Observer = e.exec
		}
		m = workflow.NewBatching(m, opts)
	}
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

// mapIdx fans fn out over n indices with the engine's parallelism.
func (e *Engine) mapIdx(ctx context.Context, n int, fn func(ctx context.Context, i int) (string, error)) ([]string, error) {
	return workflow.Map(ctx, n, e.parallelism, fn)
}

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}
