// Package scenario is the checkpointed scenario and load harness: it
// drives the declarative pipeline runtime through named, multi-turn
// traffic patterns — standing queries ingesting records mid-run, burst
// load, latency perturbation, cache-warming replays — and asserts
// per-checkpoint latency, cost, and accuracy expectations drawn from the
// run's workflow.Attribution ledger and the shared execution layer's
// ExecStats.
//
// A Scenario names an ordered list of Turns over one pipeline Spec and a
// list of Checkpoints. Each turn either ingests records into the session
// table, issues a pipeline run (optionally as a standing query fed
// record waves mid-flight, optionally as a burst of concurrent runs),
// perturbs per-call latency via llm.WithLatency, or idles. Each
// checkpoint binds to a turn and asserts bounds over the cumulative
// counters at that point plus properties of that turn (wall clock,
// result width, scalars, standing-query/batch equivalence, stage-detail
// substrings).
//
// The harness runs every scenario against the deterministic sim engine
// by default, so call counts, token totals, rows, and scalars are
// byte-stable and CI can pin them (experiments.ScenarioStudy); passing a
// real model through Options.Model is the production escape hatch. The
// design follows the Scenario → Turns → Checkpoints shape of multi-turn
// context-system harnesses, with the engine swapped rather than mocked.
// See docs/SCENARIO.md.
package scenario

import (
	"time"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/pipeline"
	"repro/internal/resil"
)

// TurnKind discriminates what a Turn does to the session.
type TurnKind string

const (
	// TurnIngest appends Records to the session's source table; later
	// query turns see the grown table.
	TurnIngest TurnKind = "ingest"
	// TurnQuery compiles and runs the pipeline over the session tables.
	// With Feed waves it runs as a standing query: the waves arrive on
	// ExecConfig.Feed while the run executes, and the fed records join
	// the session table afterwards.
	TurnQuery TurnKind = "query"
	// TurnBurst runs Repeat concurrent copies of the query on the shared
	// engine — the load spike the execution layer's cache and coalescer
	// exist to absorb.
	TurnBurst TurnKind = "burst"
	// TurnLatency sets the per-call model latency from this turn on
	// (llm.WithLatency over the session's base model); zero restores the
	// unperturbed model.
	TurnLatency TurnKind = "latency"
	// TurnIdle pauses the session for Pause — a traffic lull between
	// bursts.
	TurnIdle TurnKind = "idle"
	// TurnFaults installs a deterministic fault plan on the session's
	// model from this turn on (llm.WithFaults over the base model); a nil
	// or zero plan restores the healthy model. Installing faults replaces
	// any latency wrapper and vice versa — the chaos scenarios perturb one
	// axis at a time.
	TurnFaults TurnKind = "faults"
	// TurnServer drives multi-tenant traffic through a declserver core
	// (internal/server) stood up over the session's engine stack: each
	// tenant wave submits concurrent copies of the pipeline, the service
	// admits or throttles them per tenant, and the turn records how many
	// submissions were rejected and whether the tenant ledger balanced
	// against the upstream counter. The server persists across the
	// scenario's server turns, so later waves ride earlier waves' warm
	// cache — the multi-tenant restatement of the warm-replay property.
	TurnServer TurnKind = "server"
)

// TenantWave is one tenant's burst within a server turn.
type TenantWave struct {
	// Tenant is the tenant ID; Submissions its concurrent submission count.
	Tenant      string
	Submissions int
	// Rate and Burst parameterise the tenant's admission bucket. A zero
	// Rate pins a negligible refill so Burst alone decides — the
	// deterministic configuration the checkpointed scenarios need.
	Rate  float64
	Burst int
}

// ServerLoad describes one server turn. The session's declserver is built
// from the scenario's first server turn: its gate knobs and the union of
// its waves' tenant limits configure the service; later server turns reuse
// it (warm, same buckets' configuration) and may only submit as tenants
// declared there.
type ServerLoad struct {
	// MaxConcurrent and MaxQueue configure the service's global gate
	// (zero values take the server defaults).
	MaxConcurrent, MaxQueue int
	// Waves all submit concurrently — one goroutine per submission.
	Waves []TenantWave
}

// Turn is one step of a scenario's traffic pattern.
type Turn struct {
	// Name uniquely identifies the turn; checkpoints bind to it.
	Name string
	// Kind selects the action.
	Kind TurnKind
	// Records is the ingest payload (TurnIngest).
	Records []dataset.Record
	// Spec overrides the scenario's pipeline for this query turn; nil
	// runs Scenario.Spec.
	Spec *pipeline.Spec
	// Feed holds record waves handed to the run mid-flight over an
	// unbuffered channel (TurnQuery): each send blocks until the
	// executor consumes it, so ingestion genuinely interleaves with
	// execution. Fed records persist in the session table afterwards.
	Feed [][]dataset.Record
	// CompareBatch re-runs the query turn's spec as a plain batch over
	// the final record set on a fresh, unperturbed engine and records
	// whether final table and scalars are identical — the standing-query
	// accuracy check a checkpoint asserts via RequireIdentical.
	CompareBatch bool
	// Repeat is the burst width (TurnBurst); values below 2 mean 2.
	Repeat int
	// Latency is the per-call delay to install (TurnLatency).
	Latency time.Duration
	// Pause is the idle duration (TurnIdle).
	Pause time.Duration
	// Faults is the deterministic fault plan to install (TurnFaults); nil
	// or zero restores the healthy model.
	Faults *llm.FaultPlan
	// AllowError marks a query turn that is expected to fail — an outage
	// window with the breaker tripping, say. The failure is recorded on
	// the turn result (Failed, Error) instead of aborting the scenario,
	// so later turns can demonstrate recovery.
	AllowError bool
	// Server is the multi-tenant load to drive (TurnServer).
	Server *ServerLoad
}

// ExecKnobs carries the pipeline ExecConfig fields a scenario pins for
// its runs; everything else (model, layer, registry, ledger) is the
// session's.
type ExecKnobs struct {
	Batch, Parallelism int
	// OnRecordError selects the degraded-mode record policy
	// (pipeline.OnRecordFail / OnRecordSkip / OnRecordQuarantine; empty
	// means fail — today's semantics).
	OnRecordError string
}

// Scenario is one named multi-turn traffic pattern plus its assertions.
type Scenario struct {
	// ID is the kebab-case handle (declctl scenario -name <ID>); Name is
	// the display title.
	ID, Name string
	// Description says what the scenario exercises and what its
	// checkpoints guard.
	Description string
	// Spec is the pipeline the query turns run.
	Spec pipeline.Spec
	// Source is the initial source table.
	Source []dataset.Record
	// Tables holds extra static side tables (e.g. "train").
	Tables map[string][]dataset.Record
	// Exec pins the run configuration.
	Exec ExecKnobs
	// Predicates are registered on the default sim engine so the
	// scenario's filter/count stages answer deterministically; ignored
	// when Options.Model supplies a real engine.
	Predicates []sim.Predicate
	// Resilience, when set, wraps the session model in a resil retry /
	// hedge / breaker policy for the whole scenario. The wrapper sits
	// below the counting model, so Calls counts settled answers — one per
	// logical request however many attempts it took — and stays pinnable;
	// the attempt-level story (retries, hedges, breaker opens) surfaces in
	// the Snapshot's resilience counters. The wrapper and its breaker
	// state persist across turns, which is what the breaker-recovery
	// scenario measures.
	Resilience *resil.Policy
	// Turns is the traffic pattern, in order.
	Turns []Turn
	// Checkpoints are the assertions; every checkpoint must name a turn.
	Checkpoints []Checkpoint
}

// Checkpoint asserts metrics after one named turn. Zero-valued bounds
// are skipped, so a checkpoint states only what it cares about. Calls,
// cost, and shared-hit bounds read the cumulative session counters
// (workflow.Attribution for cost, the upstream call counter for calls,
// ExecStats for cache/coalescer effects); the turn-scoped fields read
// the bound turn's own result.
type Checkpoint struct {
	// Name labels the assertion; AfterTurn binds it to a turn.
	Name, AfterTurn string
	// MinCalls/MaxCalls bound the cumulative upstream calls (0 skips).
	MinCalls, MaxCalls int
	// MaxCost bounds the cumulative attributed dollars (0 skips).
	MaxCost float64
	// MinSharedHits is a floor on cumulative cache hits + coalesced
	// joins — requests answered without an upstream call (0 skips).
	MinSharedHits int
	// FreeTurn asserts the bound turn spent zero upstream calls — the
	// warm-cache-replay property.
	FreeTurn bool
	// MinTurnWall/MaxTurnWall bound the turn's wall clock (0 skips).
	// Floors are safe under determinism (an installed latency must show
	// up); generous ceilings catch gross scheduling regressions.
	MinTurnWall, MaxTurnWall time.Duration
	// WantRows pins the turn's final-stage table width (0 skips).
	WantRows int
	// WantScalars pins scalar outputs by stage name (nil skips).
	WantScalars map[string]string
	// RequireIdentical asserts the turn's CompareBatch check ran and the
	// standing-query results matched the batch reference byte for byte.
	RequireIdentical bool
	// RequireDetail asserts some stage detail of the turn's run contains
	// this substring (e.g. "order revised 1 times").
	RequireDetail string
	// WantRejected pins the server turn's refused-submission count
	// (0 skips) — the throttled tenant's overflow must bounce, exactly.
	WantRejected int
	// RequireBalanced asserts the server turn's per-tenant ledger summed
	// exactly to the service's upstream call counter.
	RequireBalanced bool
	// WantRetries pins the cumulative retry count from the scenario's
	// resilience wrapper (0 skips) — under a deterministic fault plan the
	// exact number of healed attempts is known.
	WantRetries int
	// MinBreakerOpens is a floor on cumulative breaker-open transitions
	// (0 skips).
	MinBreakerOpens int
	// WantQuarantined pins the bound turn's quarantined-record count
	// (0 skips).
	WantQuarantined int
	// RequireNoDrops asserts the bound turn skipped and quarantined zero
	// records — degraded modes armed but unused.
	RequireNoDrops bool
	// RequireFailed asserts the bound turn failed (an AllowError query
	// that must fail — the outage the recovery turns then heal from).
	RequireFailed bool
}

// Snapshot is the cumulative counter state a checkpoint evaluated
// against, kept in the result for inspection.
type Snapshot struct {
	Calls, Tokens int
	Cost          float64
	CacheSize     int
	CacheHits     int
	Coalesced     int
	Batches       int
	// SharedHits = CacheHits + Coalesced: the deterministic aggregate —
	// the split between the two depends on request timing, their sum
	// does not.
	SharedHits int
	// Retries/Hedges/BreakerOpens are the scenario resilience wrapper's
	// cumulative counters; all zero when the scenario sets no policy.
	Retries      int
	Hedges       int
	BreakerOpens int
}

// TurnResult is one turn's observed effect.
type TurnResult struct {
	Turn string   `json:"turn"`
	Kind TurnKind `json:"kind"`
	// Wall is the turn's elapsed time.
	Wall time.Duration `json:"wall_ns"`
	// Calls/Tokens/Cost are this turn's deltas of the cumulative
	// upstream counters.
	Calls  int     `json:"calls"`
	Tokens int     `json:"tokens"`
	Cost   float64 `json:"cost"`
	// SharedHits is the turn's delta of cache hits + coalesced joins.
	SharedHits int `json:"shared_hits"`
	// Rows and Scalars describe the turn's run (query/burst turns).
	Rows    int               `json:"rows"`
	Scalars map[string]string `json:"scalars,omitempty"`
	// Details maps stage name to its report detail line.
	Details map[string]string `json:"details,omitempty"`
	// Identical reports the CompareBatch outcome (nil = not compared).
	Identical *bool `json:"identical,omitempty"`
	// Rejected counts server-turn submissions refused at admission —
	// throttled (429) plus over-capacity (503).
	Rejected int `json:"rejected,omitempty"`
	// Balanced reports the server-turn ledger check: per-tenant attributed
	// spend sums exactly to the service's upstream counter (nil = not a
	// server turn).
	Balanced *bool `json:"balanced,omitempty"`
	// Skipped/Quarantined count records the turn's run dropped or set
	// aside under a degraded-mode policy.
	Skipped     int `json:"skipped,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	// Failed marks an AllowError query turn that failed; Error holds the
	// failure.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
}

// CheckpointResult is one checkpoint's verdict.
type CheckpointResult struct {
	Checkpoint string `json:"checkpoint"`
	Turn       string `json:"turn"`
	Pass       bool   `json:"pass"`
	// Failures lists each violated bound, empty when Pass.
	Failures []string `json:"failures,omitempty"`
	// At is the cumulative counter state at evaluation time.
	At Snapshot `json:"at"`
}

// Result is one scenario run's full record.
type Result struct {
	ScenarioID string `json:"scenario"`
	Name       string `json:"name"`
	// Engine names what answered: "sim/<model>" or "real/<model>".
	Engine      string             `json:"engine"`
	Turns       []TurnResult       `json:"turns"`
	Checkpoints []CheckpointResult `json:"checkpoints"`
	// Passed is true when every checkpoint passed.
	Passed bool `json:"passed"`
	// Totals over the whole scenario.
	TotalCalls  int           `json:"total_calls"`
	TotalTokens int           `json:"total_tokens"`
	TotalCost   float64       `json:"total_cost"`
	SharedHits  int           `json:"shared_hits"`
	Wall        time.Duration `json:"wall_ns"`
	// AttributedCalls/AttributedTokens are the workflow.Attribution
	// ledger's totals; they must equal TotalCalls/TotalTokens — the
	// attribution-sums-to-budget invariant, pinned by the tests.
	AttributedCalls  int `json:"attributed_calls"`
	AttributedTokens int `json:"attributed_tokens"`
}
