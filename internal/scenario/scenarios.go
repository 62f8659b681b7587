package scenario

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/pipeline"
	"repro/internal/resil"
)

// rec builds one record from name/value pairs.
func rec(id string, kv ...string) dataset.Record {
	r := dataset.Record{ID: id}
	for i := 0; i+1 < len(kv); i += 2 {
		r.Fields = append(r.Fields, dataset.Field{Name: kv[i], Value: kv[i+1]})
	}
	return r
}

// fieldPred registers a deterministic boolean over a field value: the
// predicate text is matched by substring, the truth compares the rendered
// item (the field value) exactly, and the margin of 1 keeps the sim
// oracle's filter noise away from the decision boundary — so every answer
// is stable and the scenarios' counters pin.
func fieldPred(name, text, value string) sim.Predicate {
	return sim.Predicate{
		Name:  name,
		Match: func(s string) bool { return strings.Contains(s, text) },
		Truth: func(item string) (bool, float64) { return item == value, 1 },
	}
}

// kindRecords is the stock 8-record workload of the cache-centric
// scenarios: three distinct kind values, so a cold run pays exactly three
// upstream calls and everything else lands in the shared cache.
func kindRecords() []dataset.Record {
	kinds := []string{"tool", "toy", "tool", "gadget", "tool", "toy", "tool", "gadget"}
	recs := make([]dataset.Record, len(kinds))
	for i, k := range kinds {
		recs[i] = rec(fmt.Sprintf("item-%02d", i), "kind", k)
	}
	return recs
}

// kindSpec filters to kind "tool" and then counts them per item — the
// count re-asks the filter's predicate, so on a shared cache the tally
// stage is upstream-free.
func kindSpec() pipeline.Spec {
	return pipeline.Spec{Stages: []pipeline.StageSpec{
		{Name: "keep", Kind: pipeline.KindFilter, Field: "kind", Predicate: "the kind is tool"},
		{Name: "tally", Kind: pipeline.KindCount, Field: "kind", Predicate: "the kind is tool", Strategy: "per-item"},
	}}
}

func kindPredicates() []sim.Predicate {
	return []sim.Predicate{fieldPred("is-tool", "kind is tool", "tool")}
}

// ColdStart is the baseline scenario: one query on a cold engine. The
// checkpoint pins the exact upstream spend (three unique kind values →
// three calls; the per-item count replays the filter's cached asks) and
// the exact output.
func ColdStart() *Scenario {
	return &Scenario{
		ID:   "cold-start",
		Name: "Cold start",
		Description: "One query on a cold engine: 8 records, 3 distinct values. " +
			"Pins the cold upstream spend (3 calls — the shared cache dedupes " +
			"repeated values and the per-item count replays the filter's asks) " +
			"and the exact rows and tally.",
		Spec:       kindSpec(),
		Source:     kindRecords(),
		Exec:       ExecKnobs{Parallelism: 2},
		Predicates: kindPredicates(),
		Turns: []Turn{
			{Name: "first-query", Kind: TurnQuery},
		},
		Checkpoints: []Checkpoint{
			{
				Name: "cold-cost", AfterTurn: "first-query",
				MinCalls: 3, MaxCalls: 3, MaxCost: 0.01,
				WantRows: 4, WantScalars: map[string]string{"tally": "4"},
			},
		},
	}
}

// WarmCacheReplay re-issues an identical query after an idle lull: the
// replay must be upstream-free, answered entirely by the session's
// persistent execution layer.
func WarmCacheReplay() *Scenario {
	return &Scenario{
		ID:   "warm-cache-replay",
		Name: "Warm-cache replay",
		Description: "Query, idle, then the identical query again on the same " +
			"session. The replay turn must spend zero upstream calls (FreeTurn): " +
			"every ask is a shared-cache hit.",
		Spec:       kindSpec(),
		Source:     kindRecords(),
		Exec:       ExecKnobs{Parallelism: 2},
		Predicates: kindPredicates(),
		Turns: []Turn{
			{Name: "first-pass", Kind: TurnQuery},
			{Name: "lull", Kind: TurnIdle, Pause: 2 * time.Millisecond},
			{Name: "replay", Kind: TurnQuery},
		},
		Checkpoints: []Checkpoint{
			{
				Name: "cold-pass", AfterTurn: "first-pass",
				MinCalls: 3, MaxCalls: 3, WantRows: 4,
			},
			{
				Name: "warm-free", AfterTurn: "replay",
				MaxCalls: 3, FreeTurn: true, MinSharedHits: 21,
				WantRows: 4, WantScalars: map[string]string{"tally": "4"},
			},
		},
	}
}

// MidRunIngestion is the standing-query scenario: an ingest turn grows
// the table, then a query runs while two more record waves arrive on the
// feed channel mid-flight. The checkpoint requires byte-identity with a
// cold batch run over the final record set.
func MidRunIngestion() *Scenario {
	ingest := []dataset.Record{
		rec("late-00", "kind", "tool"),
		rec("late-01", "kind", "gadget"),
		rec("late-02", "kind", "tool"),
	}
	wave1 := []dataset.Record{
		rec("fed-00", "kind", "toy"),
		rec("fed-01", "kind", "tool"),
		rec("fed-02", "kind", "gadget"),
	}
	wave2 := []dataset.Record{
		rec("fed-03", "kind", "tool"),
		rec("fed-04", "kind", "toy"),
		rec("fed-05", "kind", "tool"),
	}
	return &Scenario{
		ID:   "mid-run-ingestion",
		Name: "Mid-run ingestion (standing query)",
		Description: "Ingest 3 records between turns, then run a standing query " +
			"that receives 6 more mid-flight over the feed channel. Results must " +
			"be byte-identical to a batch run over all 13 records, at the same " +
			"3-call upstream spend.",
		Spec:       kindSpec(),
		Source:     kindRecords()[:4],
		Exec:       ExecKnobs{Parallelism: 2},
		Predicates: kindPredicates(),
		Turns: []Turn{
			{Name: "late-arrivals", Kind: TurnIngest, Records: ingest},
			{Name: "stand", Kind: TurnQuery, Feed: [][]dataset.Record{wave1, wave2}, CompareBatch: true},
		},
		Checkpoints: []Checkpoint{
			{
				Name: "identical-to-batch", AfterTurn: "stand",
				RequireIdentical: true, WantRows: 7,
				WantScalars: map[string]string{"tally": "7"},
			},
			{
				Name: "ingest-cost", AfterTurn: "stand",
				MinCalls: 3, MaxCalls: 3,
			},
		},
	}
}

// BurstLoad fires four concurrent identical queries under an installed
// per-call latency: the shared cache and coalescer must absorb all but
// the three unique upstream calls, and the turn's wall clock must show
// the latency actually bit.
func BurstLoad() *Scenario {
	return &Scenario{
		ID:   "burst-load",
		Name: "Burst load under latency",
		Description: "Install a 2ms per-call latency, then fire 4 concurrent " +
			"copies of the query at the shared engine. Only the 3 unique asks go " +
			"upstream (and pay the latency); the other 45 requests are cache " +
			"hits or coalesced joins.",
		Spec:       kindSpec(),
		Source:     kindRecords(),
		Exec:       ExecKnobs{Parallelism: 4},
		Predicates: kindPredicates(),
		Turns: []Turn{
			{Name: "congestion", Kind: TurnLatency, Latency: 2 * time.Millisecond},
			{Name: "spike", Kind: TurnBurst, Repeat: 4},
			{Name: "clear", Kind: TurnLatency},
		},
		Checkpoints: []Checkpoint{
			{
				Name: "absorbed", AfterTurn: "spike",
				MinCalls: 3, MaxCalls: 3, MinSharedHits: 45,
				MinTurnWall: 2 * time.Millisecond, MaxTurnWall: 30 * time.Second,
				WantRows: 4, WantScalars: map[string]string{"tally": "4"},
			},
		},
	}
}

// OverlapIngestion exercises the side-input overlap path under
// ingestion: a nested-loop join whose side table is another stage's
// stream runs as a standing query, so the join buffers the live branch
// while the pool side materializes — with fed records arriving the whole
// time — and the result must still match a cold batch run.
func OverlapIngestion() *Scenario {
	static := []dataset.Record{
		rec("pool-00", "name", "alphabravo", "slot", "pool"),
		rec("pool-01", "name", "deltaecho", "slot", "pool"),
		rec("live-00", "name", "alphabravo", "slot", "live"),
		rec("live-01", "name", "sigmafoxtrot", "slot", "live"),
	}
	wave1 := []dataset.Record{
		rec("live-02", "name", "deltaecho", "slot", "live"),
		rec("live-03", "name", "omegagolf", "slot", "live"),
	}
	wave2 := []dataset.Record{
		rec("live-04", "name", "alphabravo", "slot", "live"),
	}
	return &Scenario{
		ID:   "overlap-ingestion",
		Name: "Side-input overlap under ingestion",
		Description: "A join whose side table is the pool filter's stream runs " +
			"as a standing query: the join buffers the live branch while the " +
			"side materializes, records keep arriving mid-run, and the matches " +
			"must equal a cold batch run's.",
		Spec: pipeline.Spec{Stages: []pipeline.StageSpec{
			{Name: "pool", Kind: pipeline.KindFilter, Field: "slot", Predicate: "the slot is pool", Input: "source"},
			{Name: "live", Kind: pipeline.KindFilter, Field: "slot", Predicate: "the slot is live", Input: "source"},
			{Name: "match", Kind: pipeline.KindJoin, Field: "name", Side: "pool",
				Strategy: "nested-loop", Input: "live"},
		}},
		Source: static,
		Exec:   ExecKnobs{Parallelism: 1},
		Predicates: []sim.Predicate{
			fieldPred("slot-pool", "slot is pool", "pool"),
			fieldPred("slot-live", "slot is live", "live"),
		},
		Turns: []Turn{
			{Name: "stand-join", Kind: TurnQuery, Feed: [][]dataset.Record{wave1, wave2}, CompareBatch: true},
		},
		Checkpoints: []Checkpoint{
			{
				Name: "overlap-identical", AfterTurn: "stand-join",
				RequireIdentical: true, WantRows: 3,
			},
		},
	}
}

// DeclserverMultiTenant drives bursty two-tenant traffic through a
// declserver core on the session engine: a throttled "free" tenant
// over-submits and must bounce off its admission bucket with the overflow
// rejected exactly, a "pro" tenant's wave must all complete, every
// completed job must ride the one shared cache (3 upstream calls total,
// ever), the per-tenant ledger must sum to the upstream counter at every
// checkpoint, and the pro tenant's follow-up turn must be upstream-free
// and fast — the throttled neighbour never starved it.
func DeclserverMultiTenant() *Scenario {
	return &Scenario{
		ID:   "declserver-multi-tenant",
		Name: "Multi-tenant service under bursty traffic",
		Description: "Two tenants share one declserver: \"free\" (burst 2) fires 6 " +
			"concurrent submissions — exactly 4 bounce with 429 — while \"pro\" " +
			"(burst 64) lands 4; the 6 admitted runs cost the 3 unique upstream " +
			"calls once, ever. A follow-up pro-only turn must be upstream-free and " +
			"fast, and the per-tenant ledger must sum to the upstream counter at " +
			"both checkpoints.",
		Spec:       kindSpec(),
		Source:     kindRecords(),
		Exec:       ExecKnobs{Parallelism: 2},
		Predicates: kindPredicates(),
		Turns: []Turn{
			{Name: "mixed-burst", Kind: TurnServer, Server: &ServerLoad{
				MaxConcurrent: 2, MaxQueue: 16,
				Waves: []TenantWave{
					{Tenant: "free", Submissions: 6, Burst: 2},
					{Tenant: "pro", Submissions: 4, Burst: 64},
				},
			}},
			{Name: "steady-pro", Kind: TurnServer, Server: &ServerLoad{
				Waves: []TenantWave{
					{Tenant: "pro", Submissions: 2, Burst: 64},
				},
			}},
		},
		Checkpoints: []Checkpoint{
			{
				Name: "throttled-exactly", AfterTurn: "mixed-burst",
				MinCalls: 3, MaxCalls: 3, WantRejected: 4, RequireBalanced: true,
				WantRows: 4, WantScalars: map[string]string{"tally": "4"},
				MaxTurnWall: 30 * time.Second,
			},
			{
				Name: "warm-tenants", AfterTurn: "steady-pro",
				MaxCalls: 3, FreeTurn: true, RequireBalanced: true,
				MinSharedHits: 93, WantRows: 4,
				WantScalars: map[string]string{"tally": "4"},
				MaxTurnWall: 30 * time.Second,
			},
		},
	}
}

// FaultBurstRecovery is the chaos scenario for the retry + degraded-mode
// story: a deterministic fault burst flickers mid-run and retries heal
// every fault invisibly; then a total outage window forces one record
// into quarantine while the run still completes; then the storm clears
// and the next run repairs the gap. Serial execution keeps the burst
// window's call-order arithmetic exact, so the retry and quarantine
// counts pin: at Parallelism 1 a stage has one record in flight unless
// it borrows the idle slots of streaming stages downstream of it, and
// kindSpec has one streaming stage — its count is a barrier — so the
// filter has nothing to borrow.
func FaultBurstRecovery() *Scenario {
	arrivals := []dataset.Record{
		rec("late-w0", "kind", "widget"),
		rec("late-g0", "kind", "gizmo"),
	}
	more := []dataset.Record{
		rec("late-d0", "kind", "doohickey"),
	}
	return &Scenario{
		ID:   "fault-burst-recovery",
		Name: "Fault burst mid-run with retry healing and quarantine",
		Description: "A burst plan fails every other upstream call mid-run: the two " +
			"new asks each fault once and heal on retry (exactly 2 retries, no " +
			"records dropped). Then a total outage exhausts retries on one new ask " +
			"— the run completes anyway with exactly 1 record quarantined. The " +
			"storm clears and the follow-up run repairs the gap for 1 call.",
		Spec:       kindSpec(),
		Source:     kindRecords(),
		Exec:       ExecKnobs{Parallelism: 1, OnRecordError: pipeline.OnRecordQuarantine},
		Predicates: kindPredicates(),
		Resilience: &resil.Policy{MaxAttempts: 3, BaseBackoff: 50 * time.Microsecond},
		Turns: []Turn{
			{Name: "cold", Kind: TurnQuery},
			{Name: "flicker", Kind: TurnFaults, Faults: &llm.FaultPlan{Seed: 1, BurstEvery: 2, BurstLen: 1}},
			{Name: "arrivals", Kind: TurnIngest, Records: arrivals},
			{Name: "heal-through", Kind: TurnQuery},
			{Name: "blackout", Kind: TurnFaults, Faults: &llm.FaultPlan{Seed: 1, BurstEvery: 1, BurstLen: 1}},
			{Name: "more-arrivals", Kind: TurnIngest, Records: more},
			{Name: "degrade", Kind: TurnQuery},
			{Name: "calm", Kind: TurnFaults},
			{Name: "after", Kind: TurnQuery},
		},
		Checkpoints: []Checkpoint{
			{
				Name: "cold-baseline", AfterTurn: "cold",
				MinCalls: 3, MaxCalls: 3, WantRows: 4,
				WantScalars: map[string]string{"tally": "4"},
			},
			{
				Name: "retries-heal", AfterTurn: "heal-through",
				MinCalls: 5, MaxCalls: 5, WantRetries: 2, RequireNoDrops: true,
				WantRows: 4, WantScalars: map[string]string{"tally": "4"},
			},
			{
				// The failing ask is asked once and spends its 2 retries once
				// (MaxAttempts 3) on top of heal-through's 2; the record whose
				// ask failed is the record quarantined.
				Name: "degraded-completes", AfterTurn: "degrade",
				MinCalls: 5, MaxCalls: 5, WantRetries: 4, WantQuarantined: 1,
				WantRows: 4, WantScalars: map[string]string{"tally": "4"},
			},
			{
				Name: "storm-clears", AfterTurn: "after",
				MinCalls: 6, MaxCalls: 6, RequireNoDrops: true,
				WantRows: 4, WantScalars: map[string]string{"tally": "4"},
			},
		},
	}
}

// BreakerOpenRecover is the chaos scenario for the circuit-breaker
// story: a total outage trips the breaker on the first failed call, the
// next query is shed without touching the upstream, and once the faults
// clear and the cooldown elapses a half-open probe heals the session —
// all on the one persistent resilience wrapper the scenario pins.
func BreakerOpenRecover() *Scenario {
	growth := []dataset.Record{
		rec("late-w0", "kind", "widget"),
	}
	return &Scenario{
		ID:   "breaker-open-recover",
		Name: "Breaker opens under outage, recovers after cooldown",
		Description: "Every upstream call fails during an outage: the one uncached " +
			"ask trips the breaker (threshold 1), the next query fails fast on the " +
			"open breaker without an upstream attempt, and after the faults clear " +
			"and the 50ms cooldown elapses the half-open probe succeeds — the " +
			"recovery run costs exactly 1 call and closes the circuit.",
		Spec:       kindSpec(),
		Source:     kindRecords(),
		Exec:       ExecKnobs{Parallelism: 1},
		Predicates: kindPredicates(),
		Resilience: &resil.Policy{
			MaxAttempts:      1,
			BreakerThreshold: 1,
			BreakerCooldown:  50 * time.Millisecond,
		},
		Turns: []Turn{
			{Name: "cold", Kind: TurnQuery},
			{Name: "outage", Kind: TurnFaults, Faults: &llm.FaultPlan{Seed: 1, Transient: 1}},
			{Name: "growth", Kind: TurnIngest, Records: growth},
			{Name: "blackout", Kind: TurnQuery, AllowError: true},
			{Name: "shed", Kind: TurnQuery, AllowError: true},
			{Name: "repairs", Kind: TurnFaults},
			{Name: "cooldown", Kind: TurnIdle, Pause: 60 * time.Millisecond},
			{Name: "recover", Kind: TurnQuery},
		},
		Checkpoints: []Checkpoint{
			{
				Name: "cold-baseline", AfterTurn: "cold",
				MinCalls: 3, MaxCalls: 3, WantRows: 4,
			},
			{
				Name: "breaker-trips", AfterTurn: "blackout",
				RequireFailed: true, MinBreakerOpens: 1, MaxCalls: 3,
			},
			{
				Name: "shed-while-open", AfterTurn: "shed",
				RequireFailed: true, MaxCalls: 3, MaxTurnWall: 5 * time.Second,
			},
			{
				Name: "recovered", AfterTurn: "recover",
				MinCalls: 4, MaxCalls: 4, MinBreakerOpens: 1,
				WantRows: 4, WantScalars: map[string]string{"tally": "4"},
			},
		},
	}
}

// List returns the pre-built scenarios in their canonical order. Each
// call builds fresh values, so callers may mutate freely.
func List() []*Scenario {
	return []*Scenario{
		ColdStart(),
		WarmCacheReplay(),
		MidRunIngestion(),
		BurstLoad(),
		OverlapIngestion(),
		DeclserverMultiTenant(),
		FaultBurstRecovery(),
		BreakerOpenRecover(),
	}
}

// ByID returns the pre-built scenario with the given ID, or nil.
func ByID(id string) *Scenario {
	for _, sc := range List() {
		if sc.ID == id {
			return sc
		}
	}
	return nil
}
