// Package declprompt is a declarative prompt-engineering toolkit: a Go
// reproduction of "Revisiting Prompt Engineering via Declarative
// Crowdsourcing" (CIDR 2024). Users state data-processing objectives —
// sort, resolve, impute, filter, count, max, categorize, join — and the
// engine decomposes them into unit LLM tasks under a selected strategy,
// orchestrates the calls with budgets and caching, repairs noisy answers
// with internal-consistency machinery, and reports exact token costs.
//
// The package is a curated facade over the internal packages; it is the
// API the examples and benchmarks use:
//
//	model := declprompt.NewSimModel("sim-gpt-3.5-turbo")
//	engine := declprompt.NewEngine(model)
//	res, err := engine.Sort(ctx, declprompt.SortRequest{
//	    Items:     items,
//	    Criterion: "how chocolatey they are",
//	    Strategy:  declprompt.SortPairwise,
//	})
//
// Models are pluggable: NewSimModel returns the built-in simulated noisy
// oracle (see internal/llm/sim for the substitution rationale), NewHTTPModel
// speaks the OpenAI-compatible wire protocol to a remote endpoint, and
// any type implementing Model can be used directly.
package declprompt

import (
	"context"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/llm/httpapi"
	"repro/internal/llm/sim"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/token"
	"repro/internal/workflow"
)

// Model is the text-completion abstraction every strategy runs against.
type Model = llm.Model

// Request and Response are the wire types of a single model call.
type (
	Request  = llm.Request
	Response = llm.Response
)

// Usage accounts tokens and calls; Price converts usage to dollars.
type (
	Usage = token.Usage
	Price = token.Price
)

// Engine executes declarative operators against a model.
type Engine = core.Engine

// Option configures an Engine (budget, parallelism, retries, embedder).
type Option = core.Option

// Budget caps the dollar/token/call spend of a workflow.
type Budget = workflow.Budget

// ExecLayer is the shared high-throughput execution substrate: one
// sharded response cache plus one in-flight coalescer spanning every
// engine attached to it via WithExecutionLayer. ExecStats snapshots its
// counters.
type (
	ExecLayer = workflow.ExecLayer
	ExecStats = workflow.ExecStats
)

// Attribution breaks one shared budget's spend down by pipeline stage;
// IndexRegistry shares one built embedding index per distinct corpus
// across operators (see docs/PIPELINE.md).
type (
	Attribution   = workflow.Attribution
	IndexRegistry = embed.Registry
)

// Operator request/result types.
type (
	SortRequest        = core.SortRequest
	SortResult         = core.SortResult
	SortStrategy       = core.SortStrategy
	Entity             = core.Entity
	PairsRequest       = core.PairsRequest
	PairsResult        = core.PairsResult
	ResolveStrategy    = core.ResolveStrategy
	DedupeRequest      = core.DedupeRequest
	DedupeResult       = core.DedupeResult
	DedupeStrategy     = core.DedupeStrategy
	ImputeRequest      = core.ImputeRequest
	ImputeResult       = core.ImputeResult
	ImputeStrategy     = core.ImputeStrategy
	FilterRequest      = core.FilterRequest
	FilterResult       = core.FilterResult
	FilterStrategy     = core.FilterStrategy
	CountRequest       = core.CountRequest
	CountResult        = core.CountResult
	CountStrategy      = core.CountStrategy
	MaxRequest         = core.MaxRequest
	MaxResult          = core.MaxResult
	MaxStrategy        = core.MaxStrategy
	CategorizeRequest  = core.CategorizeRequest
	CategorizeResult   = core.CategorizeResult
	CategorizeStrategy = core.CategorizeStrategy
	JoinRequest        = core.JoinRequest
	JoinResult         = core.JoinResult
	JoinStrategy       = core.JoinStrategy
	FindRequest        = core.FindRequest
	FindResult         = core.FindResult
	FindStrategy       = core.FindStrategy
	Plan               = core.Plan
	Candidate          = core.Candidate
)

// Strategy constants, re-exported from the engine.
const (
	SortOnePrompt          = core.SortOnePrompt
	SortRating             = core.SortRating
	SortPairwise           = core.SortPairwise
	SortPairwiseRepaired   = core.SortPairwiseRepaired
	SortHybridInsert       = core.SortHybridInsert
	SortRatingThenPairwise = core.SortRatingThenPairwise

	ResolveDirect        = core.ResolveDirect
	ResolveTransitive    = core.ResolveTransitive
	ResolveBlockedDirect = core.ResolveBlockedDirect

	DedupePairwise        = core.DedupePairwise
	DedupeGroupBatch      = core.DedupeGroupBatch
	DedupeBlockedPairwise = core.DedupeBlockedPairwise

	ImputeKNN    = core.ImputeKNN
	ImputeLLM    = core.ImputeLLM
	ImputeHybrid = core.ImputeHybrid

	FilterPerItem    = core.FilterPerItem
	FilterMajority   = core.FilterMajority
	FilterSequential = core.FilterSequential

	CountPerItem = core.CountPerItem
	CountEyeball = core.CountEyeball

	MaxTournament           = core.MaxTournament
	MaxRatingThenTournament = core.MaxRatingThenTournament

	CategorizeDirect   = core.CategorizeDirect
	CategorizeTwoPhase = core.CategorizeTwoPhase

	JoinNestedLoop = core.JoinNestedLoop
	JoinTransitive = core.JoinTransitive

	FindScan       = core.FindScan
	FindEmbedFirst = core.FindEmbedFirst
)

// ErrBadRequest reports an invalid operator request; ErrBudgetExhausted a
// refused or over-budget call.
var (
	ErrBadRequest      = core.ErrBadRequest
	ErrBudgetExhausted = workflow.ErrBudgetExhausted
)

// Declarative pipeline layer (internal/pipeline, docs/PIPELINE.md): a
// whole workload — filter, resolve, impute, join, … — described as one
// spec, optimized, and executed as a streaming operator DAG on a shared
// engine with per-stage budget attribution.
type (
	// Record is one row of a pipeline table; Field is one of its
	// name/value pairs.
	Record = dataset.Record
	Field  = dataset.Field
	// PipelineSpec is the JSON-serializable pipeline description.
	PipelineSpec = pipeline.Spec
	// PipelineStage describes one operator stage of a spec.
	PipelineStage = pipeline.StageSpec
	// Pipeline is a compiled, runnable stage DAG.
	Pipeline = pipeline.Pipeline
	// PipelineConfig parameterises one pipeline run (model, budget,
	// shared layer, batching, in-flight window slots per streaming stage).
	PipelineConfig = pipeline.ExecConfig
	// PipelineResult is a run's tables, scalars, and per-stage accounting.
	PipelineResult = pipeline.Result
	// ProbeOptions configures OptimizePipelineProbed's sampling.
	ProbeOptions = pipeline.ProbeOptions
)

// CompilePipeline validates a spec into a runnable pipeline.
func CompilePipeline(spec PipelineSpec) (*Pipeline, error) { return pipeline.Compile(spec) }

// OptimizePipeline rewrites a spec without changing its temperature-0
// results, trusting the spec's selectivity hints; the returned trace
// logs every rewrite. See docs/OPTIMIZER.md.
func OptimizePipeline(spec PipelineSpec) (PipelineSpec, []string, error) {
	return pipeline.Optimize(spec)
}

// OptimizePipelineProbed rewrites like OptimizePipeline but first
// measures each hintless filter's selectivity on a deterministic sample
// of the source table. Pass a cfg with a persistent ExecLayer and
// Attribution shared with the subsequent Run so probe work is re-served
// from cache and attributed as the report's probe row.
func OptimizePipelineProbed(ctx context.Context, spec PipelineSpec, cfg PipelineConfig,
	tables map[string][]Record, opts ProbeOptions) (PipelineSpec, []string, error) {
	return pipeline.OptimizeProbed(ctx, spec, cfg, tables, opts)
}

// NewEngine returns an engine bound to the given model.
func NewEngine(model Model, opts ...Option) *Engine {
	return core.New(model, opts...)
}

// WithBudget enforces a budget on every engine call.
func WithBudget(b *Budget) Option { return core.WithBudget(b) }

// WithParallelism bounds concurrent model calls.
func WithParallelism(p int) Option { return core.WithParallelism(p) }

// WithExecutionLayer attaches a shared execution layer (see NewExecLayer).
func WithExecutionLayer(l *ExecLayer) Option { return core.WithExecutionLayer(l) }

// WithBatching packs up to k unit tasks into one prompt for the
// strategies that issue homogeneous per-item tasks: the items are cut into
// aligned blocks of k, and each block's cache misses ride one envelope.
// The blocks, and so the calls and tokens, are the same on every run.
func WithBatching(k int) Option { return core.WithBatching(k) }

// WithAttribution records every upstream call's usage under the stage
// label carried by its context (TagStage) — how a pipeline breaks one
// shared budget down per stage.
func WithAttribution(a *Attribution) Option { return core.WithAttribution(a) }

// WithIndexRegistry reuses one built embedding index per distinct corpus
// across the engine's operators (resolve, dedupe, join, find, impute).
func WithIndexRegistry(r *IndexRegistry) Option { return core.WithIndexRegistry(r) }

// WithStateDir enables persistent warm state under dir: the engine's
// response cache is backed by an append-only log replayed on startup,
// and corpus indexes warm-load from persisted files instead of being
// rebuilt. One flag warms both layers across process restarts; flush
// with Engine.FlushState (see docs/PERSISTENCE.md).
func WithStateDir(dir string) Option { return core.WithStateDir(dir) }

// NewAttribution returns an empty per-stage usage ledger.
func NewAttribution() *Attribution { return workflow.NewAttribution() }

// NewIndexRegistry returns an empty content-keyed index registry.
func NewIndexRegistry() *IndexRegistry { return embed.NewRegistry() }

// TagStage returns a context whose engine calls are attributed to the
// given stage label (see WithAttribution).
func TagStage(ctx context.Context, stage string) context.Context {
	return workflow.TagStage(ctx, stage)
}

// NewExecLayer returns a shared execution layer; pass it to any number of
// engines via WithExecutionLayer so one cache and coalescer span them all.
func NewExecLayer() *ExecLayer { return workflow.NewExecLayer() }

// NewBudget returns a budget; caps <= 0 are unlimited.
func NewBudget(maxDollars float64, maxTokens, maxCalls int) *Budget {
	return workflow.NewBudget(maxDollars, maxTokens, maxCalls)
}

// NewSimModel returns a built-in simulated noisy-oracle model. Stock
// profiles: "sim-gpt-3.5-turbo", "sim-gpt-4", "sim-claude",
// "sim-claude-2", "sim-cheap".
func NewSimModel(name string) *sim.Oracle { return sim.NewNamed(name) }

// NewHTTPModel returns a Model that speaks the OpenAI-compatible chat
// protocol to baseURL (see cmd/llmserver).
func NewHTTPModel(baseURL, model string) Model {
	return httpapi.NewClient(baseURL, model, httpapi.ClientOptions{})
}

// PriceFor returns the per-token price table entry for a model name.
func PriceFor(model string) Price { return token.PriceFor(model) }

// CountTokens approximates the token count of a text the way the pricing
// model does.
func CountTokens(s string) int { return token.Count(s) }

// NewEmbeddingIndex returns an exact k-NN index over the default
// character-n-gram embedder, for callers building custom blocking or
// neighbour-augmentation pipelines. Past 512 items its scans read an int8
// copy of the vectors and prove each answer equal to the float32 scan's
// (docs/VECTOR.md, "Quantized tier") — same results, 1.25x the memory.
func NewEmbeddingIndex() *embed.Index { return embed.NewIndex(embed.Default()) }

// EmbeddingIndexOptions configures NewEmbeddingIndexWith and
// WithIndexOptions: the partition count and k-means seed of the structure
// Within and Blocks read. Nothing in it can change a Nearest answer. See
// docs/VECTOR.md.
type EmbeddingIndexOptions = embed.IndexOptions

// WithIndexOptions sets the index configuration the engine's k-NN
// operators build (or fetch from a registry) their corpus indexes with —
// the partitioning that blocking draws its candidate pairs from.
func WithIndexOptions(opts EmbeddingIndexOptions) Option { return core.WithIndexOptions(opts) }

// IndexItem is one (id, text) pair for batch insertion via Index.AddAll.
type IndexItem = embed.Item

// NewEmbeddingIndexWith returns a k-NN index over the default embedder
// with an explicit partition count and k-means seed for Within and Blocks.
func NewEmbeddingIndexWith(opts EmbeddingIndexOptions) *embed.Index {
	return embed.NewIndexWith(embed.Default(), opts)
}

// Multi-tenant pipeline service (internal/server, cmd/declserver,
// docs/SERVER.md): many tenants' pipelines run concurrently on one shared
// execution substrate — one cache, one coalescer, one index registry, one
// persistent state directory — with per-tenant rate limits, budgets, and
// exact spend attribution.
type (
	// PipelineServer is the service core; ServerConfig parameterises it
	// (model, state dir, concurrency cap, per-tenant defaults and
	// overrides). PipelineServer.Handler() is the HTTP API.
	PipelineServer = server.Server
	ServerConfig   = server.Config
	// TenantLimits override one tenant's admission rate and budget caps
	// (TenantCaps) in ServerConfig.Tenants.
	TenantLimits = server.TenantLimits
	TenantCaps   = server.TenantCaps
	// ServerSubmit is a pipeline submission; ServerJobStatus a job's wire
	// state; ServerTenantReport one tenant's spend/latency/hit-share view.
	ServerSubmit       = server.SubmitRequest
	ServerJobStatus    = server.JobStatus
	ServerTenantReport = server.TenantReport
)

// NewPipelineServer builds the multi-tenant service core; serve its
// Handler() over HTTP (see cmd/declserver) or call Submit in-process.
func NewPipelineServer(cfg ServerConfig) *PipelineServer { return server.New(cfg) }

// TagTenant returns a context whose engine calls are attributed to the
// given tenant label — the per-tenant axis of a service-wide ledger,
// orthogonal to TagStage's per-stage axis.
func TagTenant(ctx context.Context, tenant string) context.Context {
	return workflow.TagTenant(ctx, tenant)
}
