// Package server is the multi-tenant pipeline service behind cmd/declserver:
// a long-running core that accepts declarative pipeline Specs from many
// tenants and runs them concurrently on one shared execution substrate —
// one ExecLayer (response cache + coalescer), one embedding-index registry,
// one optional persistent state directory — so tenant N's cache entries and
// warm indexes serve tenant N+1 for free. Where declctl cold-starts that
// substrate per invocation, the server keeps it resident.
//
// Fairness and accounting are per tenant: admission runs through a
// per-tenant token bucket (workflow.RateLimiter, refusal → ErrRateLimited →
// HTTP 429) and a global concurrency cap with bounded queueing (ErrBusy →
// HTTP 503); every job's ledger is a child of the service-wide
// attribution ledger labelled with the job's tenant, so each genuine
// upstream call is recorded once, under the tenant that caused it — and
// the per-tenant sum is checked against an independent upstream counter,
// an invariant the test battery pins under concurrent load. Per-tenant
// budgets (workflow.Budget) ride below the shared cache, so tenants are
// charged only for calls the cache could not absorb, and one tenant's
// spend can never bleed into another's caps.
//
// The HTTP transport (Handler) is a sibling of internal/llm/httpapi's
// OpenAI-style JSON API: POST /v1/pipelines submits (sync or async),
// GET /v1/jobs/{id} polls, DELETE /v1/jobs/{id} cancels,
// GET /v1/tenants/{id}/report returns spend, latency percentiles, and the
// tenant's cache-hit share. See docs/SERVER.md.
package server

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/pipeline"
	"repro/internal/resil"
	"repro/internal/token"
	"repro/internal/workflow"
)

// Sentinel errors; the HTTP layer maps each to a status code.
var (
	// ErrBadSpec reports an unparseable or uncompilable submission (400).
	ErrBadSpec = errors.New("server: invalid submission")
	// ErrRateLimited reports a tenant over its token bucket (429).
	ErrRateLimited = errors.New("server: tenant rate limit exceeded")
	// ErrBusy reports the global concurrency cap and queue both full (503).
	ErrBusy = errors.New("server: at capacity and queue full")
	// ErrDraining reports a submission during graceful shutdown (503).
	ErrDraining = errors.New("server: draining")
	// ErrNotFound reports an unknown job or tenant (404).
	ErrNotFound = errors.New("server: not found")
)

// TenantCaps are one tenant's budget ceilings; zero values are unlimited.
type TenantCaps struct {
	Dollars float64
	Tokens  int
	Calls   int
}

// TenantLimits configure one tenant's admission and spend. Zero fields
// fall back to the Config defaults.
type TenantLimits struct {
	// Rate and Burst parameterise the tenant's token bucket (submissions
	// per second sustained, burst capacity).
	Rate  float64
	Burst int
	// Caps bound the tenant's cumulative genuine upstream spend.
	Caps TenantCaps
	// RetryBudget caps the physical retries and hedges the resilience
	// policy may spend on this tenant's behalf: 0 falls back to the
	// Config default, negative means none at all. Only meaningful when
	// Config.Resilience is set.
	RetryBudget int
}

// Config parameterises a Server.
type Config struct {
	// Model answers every unit task (required). The server wraps it with
	// its own upstream counter; pass the rawest model you have.
	Model llm.Model
	// StateDir enables persistent warm state: the shared cache is backed
	// by an append-only log replayed at construction, and corpus indexes
	// warm-load from persisted files (core.WithStateDir's wiring). Drain
	// flushes and closes it.
	StateDir string
	// Batch, Parallelism, and Adaptive pin the ExecConfig of every job
	// (zero values take the pipeline defaults). Note the tenant reports'
	// free-serve split is exact only with batching off: a batch co-rider
	// is also a zero-usage serve.
	Batch, Parallelism int
	Adaptive           bool
	// MaxConcurrent caps jobs running at once (default 4); MaxQueue bounds
	// jobs waiting for a slot (default 16; negative means no queue).
	MaxConcurrent, MaxQueue int
	// TenantRate/TenantBurst/TenantCaps are the admission and budget
	// defaults for tenants without an explicit entry in Tenants (defaults:
	// 100 submissions/s, burst 32, unlimited spend).
	TenantRate  float64
	TenantBurst int
	TenantCaps  TenantCaps
	// TenantRetryBudget is the default per-tenant retry/hedge allowance
	// (0 = unlimited, negative = no retries). See TenantLimits.RetryBudget.
	TenantRetryBudget int
	// Tenants overrides limits per tenant ID.
	Tenants map[string]TenantLimits
	// Resilience, when non-nil, wraps the raw model with retry/backoff,
	// optional hedging, and a per-upstream circuit breaker — below the
	// upstream counter and the tenant ledger, so retried attempts are
	// never double-billed. The policy's AllowRetry hook is composed with
	// the server's own per-tenant retry budgets; while the breaker is
	// open, Submit refuses with a *resil.BreakerOpenError that the HTTP
	// layer renders as 503 plus a Retry-After header.
	Resilience *resil.Policy
	// OnRecordError sets every job's degraded-mode policy (pipeline
	// OnRecordFail/Skip/Quarantine; empty = fail fast).
	OnRecordError string
	// JobRetention bounds how long a terminal job stays pollable before
	// the background sweeper drops it; MaxJobs caps the terminal jobs
	// retained regardless of age, oldest evicted first. Collection is off
	// until either field is set (no sweeper goroutine on a default
	// server); setting one enables it with the other defaulting
	// (retention 1h, cap 4096), and a negative value disables just that
	// axis. Running and queued jobs are never collected.
	JobRetention time.Duration
	MaxJobs      int
	// Exec, Registry, and Ledger inject shared substrate handles; nil
	// builds fresh ones. The scenario harness injects its session's so
	// server traffic shows up in the session counters.
	Exec     *workflow.ExecLayer
	Registry *embed.Registry
	Ledger   *workflow.Attribution
}

// JobState is a job's lifecycle position.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// SubmitRequest is the wire format of POST /v1/pipelines.
type SubmitRequest struct {
	// Tenant identifies the submitting tenant (required; [A-Za-z0-9._-]).
	Tenant string `json:"tenant"`
	// Spec is the pipeline to run.
	Spec pipeline.Spec `json:"spec"`
	// Tables are the input tables (must include "source"); omitted, the
	// spec's Source dataset generates them.
	Tables map[string][]dataset.Record `json:"tables,omitempty"`
	// Async returns immediately with a queued/running job to poll;
	// otherwise Submit blocks until the job finishes.
	Async bool `json:"async,omitempty"`
	// Optimize runs the hint-driven optimizer over the spec first.
	Optimize bool `json:"optimize,omitempty"`
}

// JobStatus is the wire format of a job: submit responses and
// GET /v1/jobs/{id}.
type JobStatus struct {
	ID     string   `json:"id"`
	Tenant string   `json:"tenant"`
	State  JobState `json:"state"`
	Error  string   `json:"error,omitempty"`
	// Result is present once State is "done".
	Result *JobResult `json:"result,omitempty"`
	// WallMS is the run's wall clock, set on terminal states.
	WallMS float64 `json:"wall_ms,omitempty"`
}

// JobResult is the wire view of a finished run.
type JobResult struct {
	Tables  map[string][]dataset.Record `json:"tables"`
	Scalars map[string]string           `json:"scalars,omitempty"`
	Stages  []StageStatus               `json:"stages,omitempty"`
	Calls   int                         `json:"calls"`
	Tokens  int                         `json:"tokens"`
	Cost    float64                     `json:"cost"`
	// Skipped/Quarantined count records dropped by degraded-mode
	// execution (Config.OnRecordError); zero on a fail-fast run.
	Skipped     int `json:"skipped,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
}

// StageStatus is one stage's accounting in a JobResult.
type StageStatus struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	In     int     `json:"in"`
	Out    int     `json:"out"`
	Calls  int     `json:"calls"`
	Tokens int     `json:"tokens"`
	Cost   float64 `json:"cost"`
	Detail string  `json:"detail,omitempty"`
}

// JobResultOf converts a pipeline result to its wire view. Exported so the
// conformance tests (and any in-process caller) can render a local run
// exactly the way the server renders a remote one and compare bytes.
func JobResultOf(res *pipeline.Result) *JobResult {
	out := &JobResult{
		Tables:      res.Tables,
		Scalars:     res.Scalars,
		Calls:       res.Usage.Calls,
		Tokens:      res.Usage.Total(),
		Cost:        res.Cost,
		Skipped:     res.Skipped,
		Quarantined: res.Quarantined,
	}
	for _, st := range res.Stages {
		out.Stages = append(out.Stages, StageStatus{
			Name: st.Name, Kind: st.Kind, In: st.In, Out: st.Out,
			Calls: st.Usage.Calls, Tokens: st.Usage.Total(), Cost: st.Cost,
			Detail: st.Detail,
		})
	}
	return out
}

// TenantReport is the wire format of GET /v1/tenants/{id}/report.
type TenantReport struct {
	Tenant string `json:"tenant"`
	// Job counters.
	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// Throttled counts submissions refused by the tenant's token bucket
	// (429); RejectedBusy counts refusals by the global gate (503).
	Throttled    int `json:"throttled"`
	RejectedBusy int `json:"rejected_busy"`
	// Calls/Tokens/Cost are the tenant's genuine upstream spend from the
	// service ledger — cache hits and coalesced serves cost nothing.
	Calls  int     `json:"calls"`
	Tokens int     `json:"tokens"`
	Cost   float64 `json:"cost"`
	// BudgetCalls/BudgetTokens/BudgetDollars mirror the tenant budget's
	// own accounting; they equal the ledger fields (no cross-tenant
	// bleed), which the battery asserts.
	BudgetCalls   int     `json:"budget_calls"`
	BudgetTokens  int     `json:"budget_tokens"`
	BudgetDollars float64 `json:"budget_dollars"`
	// Served counts unit asks the shared layer answered for this tenant;
	// FreeServed the subset answered without a fresh upstream call.
	// HitShare = FreeServed/Served — the tenant's cache-hit share.
	Served     int     `json:"served"`
	FreeServed int     `json:"free_served"`
	HitShare   float64 `json:"hit_share"`
	// RetriesUsed counts the physical retries and hedges the resilience
	// policy spent on this tenant's behalf (charged against the tenant's
	// RetryBudget when one is set).
	RetriesUsed int `json:"retries_used,omitempty"`
	// Latency percentiles over the tenant's completed jobs' wall clocks.
	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP95MS float64 `json:"latency_p95_ms"`
	LatencyMaxMS float64 `json:"latency_max_ms"`
}

// Stats is the wire format of GET /v1/stats: the service-wide view.
type Stats struct {
	UpstreamCalls  int  `json:"upstream_calls"`
	UpstreamTokens int  `json:"upstream_tokens"`
	LedgerCalls    int  `json:"ledger_calls"`
	LedgerTokens   int  `json:"ledger_tokens"`
	Balanced       bool `json:"balanced"`
	CacheSize      int  `json:"cache_size"`
	CacheHits      int  `json:"cache_hits"`
	Coalesced      int  `json:"coalesced"`
	Tenants        int  `json:"tenants"`
	Jobs           int  `json:"jobs"`
	Running        int  `json:"running"`
	Waiting        int  `json:"waiting"`
	Draining       bool `json:"draining"`
	// TableBytes is the table JSON received in submission bodies the
	// decoder could delimit; TableBytesShared the part of it answered from
	// the table interner without decoding.
	TableBytes       int64 `json:"table_bytes"`
	TableBytesShared int64 `json:"table_bytes_shared"`
	// Resilience counters, present when Config.Resilience is set.
	Retries      int  `json:"retries,omitempty"`
	Hedges       int  `json:"hedges,omitempty"`
	BreakerOpens int  `json:"breaker_opens,omitempty"`
	BreakerOpen  bool `json:"breaker_open,omitempty"`
}

// tenant is one tenant's admission, budget, and accounting state.
type tenant struct {
	id      string
	limiter *workflow.RateLimiter
	budget  *workflow.Budget
	// retryBudget caps retries/hedges spent on this tenant (0 unlimited,
	// negative none); restored/restoredCost carry spend loaded from a
	// previous process's tenants.json — both set before the tenant takes
	// traffic and immutable afterwards.
	retryBudget  int
	restored     token.Usage
	restoredCost float64

	served, free atomic.Int64

	mu           sync.Mutex
	submitted    int
	completed    int
	failed       int
	cancelled    int
	throttled    int
	rejectedBusy int
	retriesUsed  int
	latencies    []time.Duration
}

// spendRetry charges one retry or hedge against the tenant's allowance.
func (t *tenant) spendRetry() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.retryBudget < 0:
		return false
	case t.retryBudget > 0 && t.retriesUsed >= t.retryBudget:
		return false
	}
	t.retriesUsed++
	return true
}

// job is one submission's server-side record.
type job struct {
	id, tenant string

	cancel context.CancelFunc

	mu     sync.Mutex
	state  JobState
	err    error
	result *pipeline.Result
	wall   time.Duration
	// done is when the job reached a terminal state; the retention
	// sweeper measures age from it.
	done time.Time
}

func (j *job) setState(s JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.terminal() {
		j.state = s
	}
}

func (j *job) finish(s JobState, res *pipeline.Result, err error, wall time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.state, j.result, j.err, j.wall = s, res, err, wall
	j.done = time.Now()
}

// status renders the job's wire view.
func (j *job) status() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &JobStatus{ID: j.id, Tenant: j.tenant, State: j.state}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state.terminal() {
		st.WallMS = float64(j.wall) / float64(time.Millisecond)
	}
	if j.state == JobDone && j.result != nil {
		st.Result = JobResultOf(j.result)
	}
	return st
}

// Server is the multi-tenant pipeline service core. Construct with New;
// safe for concurrent use. The HTTP transport is Handler; the same methods
// serve in-process callers (the scenario harness, the tests).
type Server struct {
	cfg      Config
	exec     *workflow.ExecLayer
	registry *embed.Registry
	counting *llm.CountingModel
	ledger   *workflow.Attribution
	resil    *resil.Model
	gate     *gate
	// tables shares the decoded form of tables that arrive byte-identical
	// in many submissions (intern.go).
	tables *tableInterner

	// Job GC: effective retention (negative = disabled) and terminal-job
	// cap (0 = none), plus the sweeper goroutine's lifecycle.
	retention time.Duration
	maxJobs   int
	sweepStop chan struct{}
	sweepDone chan struct{}
	sweepOnce sync.Once

	// baseCtx parents every async job, so jobs outlive their submitting
	// HTTP request; Drain's hard-stop path cancels it.
	baseCtx  context.Context
	baseStop context.CancelFunc
	wg       sync.WaitGroup

	mu       sync.RWMutex
	tenants  map[string]*tenant
	jobs     map[string]*job
	seq      int64
	draining bool
	stateErr error
}

// tenantIDPattern bounds tenant IDs: they appear in URL paths and as
// ledger labels, so keep them to one safe token.
var tenantIDPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// New builds a server over cfg.Model. The shared substrate (exec layer,
// registry, ledger) is built fresh unless injected; with StateDir set the
// cache log is replayed and index persistence enabled before the first
// job. State-attach failures degrade to a stateless server, reported by
// StateError — mirroring core.WithStateDir's contract.
func New(cfg Config) *Server {
	if cfg.Model == nil {
		panic("server: Config.Model is required")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	switch {
	case cfg.MaxQueue == 0:
		cfg.MaxQueue = 16
	case cfg.MaxQueue < 0:
		cfg.MaxQueue = 0
	}
	if cfg.TenantRate <= 0 {
		cfg.TenantRate = 100
	}
	if cfg.TenantBurst <= 0 {
		cfg.TenantBurst = 32
	}
	retention, maxJobs := cfg.JobRetention, cfg.MaxJobs
	gcConfigured := retention != 0 || maxJobs != 0
	switch {
	case retention == 0:
		retention = time.Hour
	case retention < 0:
		retention = -1
	}
	switch {
	case maxJobs == 0:
		maxJobs = 4096
	case maxJobs < 0:
		maxJobs = 0
	}
	if !gcConfigured {
		retention, maxJobs = -1, 0
	}
	s := &Server{
		cfg:       cfg,
		exec:      cfg.Exec,
		registry:  cfg.Registry,
		ledger:    cfg.Ledger,
		gate:      newGate(cfg.MaxConcurrent, cfg.MaxQueue),
		tables:    newTableInterner(),
		retention: retention,
		maxJobs:   maxJobs,
		tenants:   make(map[string]*tenant),
		jobs:      make(map[string]*job),
	}
	if s.exec == nil {
		s.exec = workflow.NewExecLayer()
	}
	if s.registry == nil {
		s.registry = embed.NewRegistry()
	}
	if s.ledger == nil {
		s.ledger = workflow.NewAttribution()
	}
	if cfg.StateDir != "" {
		s.registry.SetStateDir(cfg.StateDir)
		if _, err := s.exec.OpenState(cfg.StateDir); err != nil {
			s.stateErr = fmt.Errorf("server: attaching state under %s: %w", cfg.StateDir, err)
		}
	}
	// The model every job shares, bottom-up: the raw model, the optional
	// resilience wrapper (retry/hedge/breaker — *below* the counter, so
	// only the winning attempt of each logical call is ever billed), and
	// the upstream-truth counter. Each job's ExecConfig layers one meter
	// (tenant budget, per-stage attribution forwarding to the tenant
	// ledger) and the shared cache on top, so only genuine upstream calls
	// reach the counter — which is what Balanced cross-checks: the ledger
	// the meters feed against the total this counter keeps on its own.
	base := llm.Model(cfg.Model)
	if cfg.Resilience != nil {
		p := *cfg.Resilience
		user := p.AllowRetry
		p.AllowRetry = func(ctx context.Context) bool {
			if user != nil && !user(ctx) {
				return false
			}
			return s.allowRetry(ctx)
		}
		s.resil = resil.Wrap(base, p)
		base = s.resil
	}
	s.counting = llm.NewCounting(base)
	s.exec.SetServeObserver(s)
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	if cfg.StateDir != "" {
		if err := s.loadTenants(); err != nil && s.stateErr == nil {
			s.stateErr = fmt.Errorf("server: restoring tenant spend: %w", err)
		}
	}
	if s.retention >= 0 || s.maxJobs > 0 {
		s.sweepStop, s.sweepDone = make(chan struct{}), make(chan struct{})
		go s.sweeper()
	}
	return s
}

// allowRetry is the resilience policy's per-tenant retry-budget hook: a
// retry or hedge on behalf of a known tenant spends that tenant's
// allowance; untenanted calls (none, in practice — every job's context is
// tagged) are not charged.
func (s *Server) allowRetry(ctx context.Context) bool {
	id := workflow.TenantTag(ctx)
	if id == "" {
		return true
	}
	s.mu.RLock()
	t := s.tenants[id]
	s.mu.RUnlock()
	if t == nil {
		return true
	}
	return t.spendRetry()
}

// StateError reports what went wrong attaching Config.StateDir, or nil.
func (s *Server) StateError() error { return s.stateErr }

// ObserveServe implements workflow.ServeObserver: it splits the shared
// layer's serves per tenant. Asks from contexts without a tenant tag (or
// from tenants this server never admitted — possible when the exec layer
// is injected and shared with non-server traffic) are not counted.
func (s *Server) ObserveServe(ctx context.Context, free bool) {
	id := workflow.TenantTag(ctx)
	if id == "" {
		return
	}
	s.mu.RLock()
	t := s.tenants[id]
	s.mu.RUnlock()
	if t == nil {
		return
	}
	t.served.Add(1)
	if free {
		t.free.Add(1)
	}
}

// limitsFor resolves one tenant's effective limits.
func (s *Server) limitsFor(id string) TenantLimits {
	l := s.cfg.Tenants[id]
	if l.Rate <= 0 {
		l.Rate = s.cfg.TenantRate
	}
	if l.Burst <= 0 {
		l.Burst = s.cfg.TenantBurst
	}
	if l.Caps == (TenantCaps{}) {
		l.Caps = s.cfg.TenantCaps
	}
	if l.RetryBudget == 0 {
		l.RetryBudget = s.cfg.TenantRetryBudget
	}
	return l
}

// tenantFor returns the tenant record, creating it on first contact.
// Callers must hold s.mu.
func (s *Server) tenantFor(id string) *tenant {
	if t := s.tenants[id]; t != nil {
		return t
	}
	l := s.limitsFor(id)
	t := &tenant{
		id:          id,
		limiter:     workflow.NewRateLimiter(l.Rate, l.Burst),
		budget:      workflow.NewBudget(l.Caps.Dollars, l.Caps.Tokens, l.Caps.Calls),
		retryBudget: l.RetryBudget,
	}
	s.tenants[id] = t
	return t
}

// Submit admits and runs one pipeline submission. Sync submissions block
// until the job finishes (or ctx dies, which cancels the job); async
// submissions return a queued/running JobStatus to poll. Refusals:
// ErrBadSpec, ErrRateLimited, ErrBusy, ErrDraining, or the tenant budget's
// workflow.ErrBudgetExhausted.
func (s *Server) Submit(ctx context.Context, req SubmitRequest) (*JobStatus, error) {
	if !tenantIDPattern.MatchString(req.Tenant) {
		return nil, fmt.Errorf("%w: tenant must match %s", ErrBadSpec, tenantIDPattern)
	}
	spec := req.Spec
	if req.Optimize {
		optimized, _, err := pipeline.Optimize(spec)
		if err != nil {
			return nil, fmt.Errorf("%w: optimize: %v", ErrBadSpec, err)
		}
		spec = optimized
	}
	p, err := pipeline.Compile(spec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	tables := req.Tables
	if tables == nil {
		tables, err = spec.Source.Tables()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	if _, ok := tables["source"]; !ok {
		return nil, fmt.Errorf("%w: tables lack %q", ErrBadSpec, "source")
	}
	// With the upstream breaker open, every job would fail on its first
	// genuinely-uncached call anyway; refuse at the door with the retry
	// hint instead of burning a slot (HTTP: 503 + Retry-After).
	if s.resil != nil {
		if open, after := s.resil.BreakerState(); open {
			return nil, fmt.Errorf("server: refusing submission: %w",
				&resil.BreakerOpenError{RetryAfter: after})
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	t := s.tenantFor(req.Tenant)
	if !t.limiter.Allow() {
		t.mu.Lock()
		t.throttled++
		t.mu.Unlock()
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q", ErrRateLimited, req.Tenant)
	}
	if !t.budget.Allows(s.counting.Name(), token.Usage{}) {
		s.mu.Unlock()
		return nil, fmt.Errorf("tenant %q: %w", req.Tenant, workflow.ErrBudgetExhausted)
	}
	tk, err := s.gate.reserve()
	if err != nil {
		t.mu.Lock()
		t.rejectedBusy++
		t.mu.Unlock()
		s.mu.Unlock()
		return nil, fmt.Errorf("%w (tenant %q)", err, req.Tenant)
	}
	// Sync jobs live under the caller's context (a dead client cancels
	// them); async jobs under the server's, so they outlive the request.
	// The context exists before the job is visible in the jobs map, so a
	// concurrent Cancel always has a cancel func to call.
	parent := ctx
	if req.Async {
		parent = s.baseCtx
	}
	jctx, jcancel := context.WithCancel(workflow.TagTenant(parent, req.Tenant))
	s.seq++
	j := &job{id: fmt.Sprintf("job-%06d", s.seq), tenant: req.Tenant, state: JobQueued, cancel: jcancel}
	s.jobs[j.id] = j
	t.mu.Lock()
	t.submitted++
	t.mu.Unlock()
	s.wg.Add(1)
	s.mu.Unlock()

	if req.Async {
		go s.runJob(jctx, j, t, tk, p, tables)
		return j.status(), nil
	}
	s.runJob(jctx, j, t, tk, p, tables)
	return j.status(), nil
}

// runJob waits out the queue, runs the pipeline via a cancellable handle,
// and records the outcome. It owns the job's gate ticket and WaitGroup
// slot.
func (s *Server) runJob(ctx context.Context, j *job, t *tenant, tk *ticket, p *pipeline.Pipeline, tables map[string][]dataset.Record) {
	defer s.wg.Done()
	defer j.cancel()
	if err := s.gate.wait(ctx, tk); err != nil {
		j.finish(JobCancelled, nil, err, 0)
		return
	}
	defer s.gate.release(tk)
	j.setState(JobRunning)
	start := time.Now()
	cfg := pipeline.ExecConfig{
		Model:         s.counting,
		Exec:          s.exec,
		Registry:      s.registry,
		Budget:        t.budget,
		Attribution:   s.ledger.Child(t.id),
		Batch:         s.cfg.Batch,
		Parallelism:   s.cfg.Parallelism,
		Adaptive:      s.cfg.Adaptive,
		OnRecordError: s.cfg.OnRecordError,
	}
	h := p.Start(ctx, cfg, tables)
	// The handle's context is this job's: cancellation reaches the run
	// directly, so waiting on Background never blocks past the run's end.
	res, err := h.Wait(context.Background())
	wall := time.Since(start)

	t.mu.Lock()
	switch {
	case err == nil:
		t.completed++
		t.latencies = append(t.latencies, wall)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		t.cancelled++
	default:
		t.failed++
	}
	t.mu.Unlock()
	switch {
	case err == nil:
		j.finish(JobDone, res, nil, wall)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finish(JobCancelled, nil, err, wall)
	default:
		j.finish(JobFailed, nil, err, wall)
	}
}

// Job returns a job's current status.
func (s *Server) Job(id string) (*JobStatus, error) {
	s.mu.RLock()
	j := s.jobs[id]
	s.mu.RUnlock()
	if j == nil {
		return nil, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	return j.status(), nil
}

// Cancel aborts a job. Cancelling a finished job is a no-op; the returned
// status tells the caller which happened.
func (s *Server) Cancel(id string) (*JobStatus, error) {
	s.mu.RLock()
	j := s.jobs[id]
	s.mu.RUnlock()
	if j == nil {
		return nil, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	j.cancel()
	return j.status(), nil
}

// Report renders one tenant's accounting.
func (s *Server) Report(id string) (*TenantReport, error) {
	s.mu.RLock()
	t := s.tenants[id]
	s.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("%w: tenant %q", ErrNotFound, id)
	}
	// The ledger is process-local; folding in the spend restored from a
	// previous process keeps Calls == BudgetCalls across restarts (the
	// budget was re-seeded with the same restored spend at load).
	usage := s.ledger.Usage(id).Add(t.restored)
	cost := s.ledger.Cost(id) + t.restoredCost
	spent, dollars := t.budget.Spent()
	r := &TenantReport{
		Tenant: id,
		Calls:  usage.Calls, Tokens: usage.Total(), Cost: cost,
		BudgetCalls: spent.Calls, BudgetTokens: spent.Total(), BudgetDollars: dollars,
		Served: int(t.served.Load()), FreeServed: int(t.free.Load()),
	}
	if r.Served > 0 {
		r.HitShare = float64(r.FreeServed) / float64(r.Served)
	}
	t.mu.Lock()
	r.Submitted, r.Completed, r.Failed, r.Cancelled = t.submitted, t.completed, t.failed, t.cancelled
	r.Throttled, r.RejectedBusy = t.throttled, t.rejectedBusy
	r.RetriesUsed = t.retriesUsed
	lats := append([]time.Duration(nil), t.latencies...)
	t.mu.Unlock()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, k int) bool { return lats[i] < lats[k] })
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		r.LatencyP50MS = ms(lats[(len(lats)-1)*50/100])
		r.LatencyP95MS = ms(lats[(len(lats)-1)*95/100])
		r.LatencyMaxMS = ms(lats[len(lats)-1])
	}
	return r, nil
}

// Balanced compares the tenant ledger's total against the server's own
// upstream counter: equal means every billed call was attributed to some
// tenant and nothing was double-counted — the invariant the battery and
// the declserver scenario assert.
func (s *Server) Balanced() (ledger, upstream token.Usage, ok bool) {
	u, _ := s.ledger.Total()
	total := s.counting.Total()
	return u, total, u.Calls == total.Calls && u.Total() == total.Total()
}

// Stats snapshots the service-wide counters.
func (s *Server) Stats() *Stats {
	ledger, upstream, balanced := s.Balanced()
	es := s.exec.Stats()
	running, waiting := s.gate.load()
	s.mu.RLock()
	tenants, jobs, draining := len(s.tenants), len(s.jobs), s.draining
	s.mu.RUnlock()
	st := &Stats{
		UpstreamCalls: upstream.Calls, UpstreamTokens: upstream.Total(),
		LedgerCalls: ledger.Calls, LedgerTokens: ledger.Total(),
		Balanced:  balanced,
		CacheSize: es.CacheSize, CacheHits: es.CacheHits, Coalesced: es.Coalesced,
		Tenants: tenants, Jobs: jobs,
		Running: running, Waiting: waiting, Draining: draining,
	}
	st.TableBytes, st.TableBytesShared = s.tables.counts()
	if s.resil != nil {
		rs := s.resil.Stats()
		st.Retries, st.Hedges, st.BreakerOpens = rs.Retries, rs.Hedges, rs.BreakerOpens
		st.BreakerOpen, _ = s.resil.BreakerState()
	}
	return st
}

// Drain is the graceful shutdown: refuse new submissions, wait for running
// and queued jobs to finish (bounded by ctx — on expiry the remaining jobs
// are cancelled and awaited), then flush and close the persistent state so
// the cache log and index files are durable before exit.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = fmt.Errorf("server: drain cut short, cancelling jobs: %w", ctx.Err())
		s.baseStop()
		s.mu.RLock()
		for _, j := range s.jobs {
			if j.cancel != nil {
				j.cancel()
			}
		}
		s.mu.RUnlock()
		<-done
	}
	s.baseStop()
	s.stopSweeper()
	s.exec.SetServeObserver(nil)
	if s.cfg.StateDir != "" {
		if err := s.saveTenants(); err != nil && drainErr == nil {
			drainErr = fmt.Errorf("server: persisting tenant spend: %w", err)
		}
	}
	if err := s.exec.CloseState(); err != nil && drainErr == nil {
		drainErr = fmt.Errorf("server: closing state: %w", err)
	}
	return drainErr
}
