package workflow

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/token"
)

// StageProbe is the reserved attribution label for the pipeline
// optimizer's selectivity probes. Probe calls run before the pipeline's
// stages execute, so they cannot borrow a stage's label; tagging them
// with their own reserved label keeps the ledger's invariant — every
// upstream call attributed somewhere, the per-label sum equal to the
// budget's total spend — while making probe overhead visible as its own
// line in the run report. Stage names beginning with "__" are rejected at
// Compile time so user stages can never collide with reserved labels.
const StageProbe = "__probe"

// stageTagKey is the context key carrying the current pipeline stage label.
type stageTagKey struct{}

// TagStage returns a context whose LLM calls are attributed to the given
// stage label. The pipeline executor tags each stage's context before
// running its operator; the engine's Meter, below the cache, then reads
// the label via StageTag.
func TagStage(ctx context.Context, stage string) context.Context {
	return context.WithValue(ctx, stageTagKey{}, stage)
}

// StageTag returns the stage label attached to ctx, or "" when the call is
// untagged (an operator invoked outside a pipeline).
func StageTag(ctx context.Context) string {
	s, _ := ctx.Value(stageTagKey{}).(string)
	return s
}

// tenantTagKey is the context key carrying the current tenant label. It is
// distinct from stageTagKey so a multi-tenant service can tell whose ask
// it is serving (per-tenant serve counts, retry budgets) without
// clobbering the stage label the same context carries.
type tenantTagKey struct{}

// TagTenant returns a context whose unit asks belong to the given tenant.
// A pipeline service tags each job's context before running it; the
// executor then layers stage tags on top per stage, and both labels ride
// the same context down the call path.
func TagTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantTagKey{}, tenant)
}

// TenantTag returns the tenant label attached to ctx, or "" when the call
// is untagged (a run outside any multi-tenant service).
func TenantTag(ctx context.Context) string {
	s, _ := ctx.Value(tenantTagKey{}).(string)
	return s
}

// StageTiming aggregates one stage's observed streaming behaviour: how
// long it had work in flight versus how long it was starved for input,
// and how many records flowed through it. The pipeline executor's
// per-stage stats feed these observations into the run's Attribution,
// where they surface in the run report next to the stage's token spend.
type StageTiming struct {
	// Service is time spent with records in flight or being emitted
	// (operator work plus downstream backpressure).
	Service time.Duration
	// Wait is time spent with nothing in flight, blocked on input —
	// waiting on a slow upstream.
	Wait time.Duration
	// Chunks counts operator preparations: 1 per stage run that saw a
	// record (a streaming stage prepares its operator once, a barrier
	// stage invokes it once).
	Chunks int
	// Records counts the input records consumed.
	Records int
}

// Add returns the element-wise sum of two timings.
func (t StageTiming) Add(o StageTiming) StageTiming {
	return StageTiming{
		Service: t.Service + o.Service,
		Wait:    t.Wait + o.Wait,
		Chunks:  t.Chunks + o.Chunks,
		Records: t.Records + o.Records,
	}
}

// Attribution accumulates real upstream usage and dollar cost per stage
// label, so one shared budget can be broken down into "which pipeline
// stage spent what". Only genuine upstream calls register: cache hits,
// coalesced followers, and split batch sections all carry zero usage and
// therefore add nothing. It also carries per-stage streaming timings
// (ObserveTiming), which the executor feeds and the run report surfaces.
// Safe for concurrent use.
type Attribution struct {
	// parent, when set, receives every Record under label (see Child).
	parent *Attribution
	label  string

	mu     sync.Mutex
	usage  map[string]token.Usage
	cost   map[string]float64
	timing map[string]StageTiming
	resil  ResilienceStats
}

// NewAttribution returns an empty attribution ledger.
func NewAttribution() *Attribution {
	return &Attribution{
		usage:  make(map[string]token.Usage),
		cost:   make(map[string]float64),
		timing: make(map[string]StageTiming),
	}
}

// ObserveTiming accumulates streaming timings under the stage label.
func (a *Attribution) ObserveTiming(stage string, t StageTiming) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.timing[stage] = a.timing[stage].Add(t)
}

// Timing returns the timings recorded under one stage label.
func (a *Attribution) Timing(stage string) StageTiming {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.timing[stage]
}

// Child returns an empty ledger whose every Record also lands, call by
// call, in a under the given label. A multi-tenant service gives each job
// a child of its service-wide ledger labelled with the job's tenant: the
// job's report breaks spend down per stage while the parent accumulates
// the same calls per tenant, live — one record, two rollups, no second
// wrapper on the call path. Timings and resilience counters stay local.
func (a *Attribution) Child(label string) *Attribution {
	c := NewAttribution()
	c.parent, c.label = a, label
	return c
}

// Record adds usage under the stage label, priced at the model's rate.
func (a *Attribution) Record(stage, model string, u token.Usage) {
	a.mu.Lock()
	a.usage[stage] = a.usage[stage].Add(u)
	a.cost[stage] += token.PriceFor(model).Cost(u)
	a.mu.Unlock()
	if a.parent != nil {
		a.parent.Record(a.label, model, u)
	}
}

// Usage returns the usage recorded under one stage label.
func (a *Attribution) Usage(stage string) token.Usage {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.usage[stage]
}

// Cost returns the dollars recorded under one stage label.
func (a *Attribution) Cost(stage string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cost[stage]
}

// Stages returns the labels seen so far, sorted.
func (a *Attribution) Stages() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.usage))
	for s := range a.usage {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Total returns usage and cost summed across every stage. When every call
// of a workflow runs under a tagged context, this equals the budget's
// recorded spend — the invariant the pipeline experiments pin.
func (a *Attribution) Total() (token.Usage, float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var u token.Usage
	var c float64
	for _, v := range a.usage {
		u = u.Add(v)
	}
	for _, v := range a.cost {
		c += v
	}
	return u, c
}

// ResilienceStats counts the resilience machinery's activity — retried
// and hedged attempts, breaker transitions — alongside the ledger's
// usage maps. These are *physical* events below the logical-call
// accounting: a call that needed two retries still records its usage
// once, and the retry count explains what the healing cost.
type ResilienceStats struct {
	Retries      int
	Hedges       int
	HedgeWins    int
	BreakerOpens int
	RetryDenials int
}

// Add returns the element-wise sum.
func (s ResilienceStats) Add(o ResilienceStats) ResilienceStats {
	return ResilienceStats{
		Retries:      s.Retries + o.Retries,
		Hedges:       s.Hedges + o.Hedges,
		HedgeWins:    s.HedgeWins + o.HedgeWins,
		BreakerOpens: s.BreakerOpens + o.BreakerOpens,
		RetryDenials: s.RetryDenials + o.RetryDenials,
	}
}

// Zero reports whether nothing happened.
func (s ResilienceStats) Zero() bool { return s == ResilienceStats{} }

// AddResilience folds resilience events into the ledger.
func (a *Attribution) AddResilience(s ResilienceStats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.resil = a.resil.Add(s)
}

// Resilience returns the resilience counters accumulated so far.
func (a *Attribution) Resilience() ResilienceStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.resil
}
