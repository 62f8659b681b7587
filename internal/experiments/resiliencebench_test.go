package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/pipeline"
	"repro/internal/resil"
	"repro/internal/workflow"
)

// resilienceBenchRow is one fault-injection configuration's record: what
// the plan injected, what the retry policy healed, what degraded-mode
// execution quarantined, and what fraction of records survived. Serial
// execution over distinct prompts keeps every counter deterministic.
type resilienceBenchRow struct {
	Name string
	// RecordsIn is the workload width; Quarantined/Skipped what degraded
	// execution dropped; Availability the surviving fraction.
	RecordsIn    int
	Quarantined  int
	Skipped      int
	Availability float64
	// InjectedFaults counts the wrapper's actual injections; Attempts and
	// Retries the physical attempts and retry launches the policy spent.
	InjectedFaults int
	Attempts       int
	Retries        int
	// UpstreamCalls/UpstreamTokens are the settled (successful) calls the
	// layers above the policy saw — retries and faulted attempts excluded.
	UpstreamCalls  int
	UpstreamTokens int
}

// resilienceWorkload is 8 records with 8 distinct kind values, so every
// record costs exactly one unique upstream ask and the burst windows'
// call-order arithmetic maps one-to-one onto records.
func resilienceWorkload() (pipeline.Spec, []dataset.Record, sim.Predicate) {
	spec := pipeline.Spec{Stages: []pipeline.StageSpec{
		{Name: "keep", Kind: pipeline.KindFilter, Field: "kind", Predicate: "the kind is tool"},
	}}
	kinds := []string{"tool", "toy", "gadget", "widget", "gizmo", "doodad", "contraption", "doohickey"}
	recs := make([]dataset.Record, len(kinds))
	for i, k := range kinds {
		recs[i] = dataset.Record{ID: fmt.Sprintf("res-%02d", i),
			Fields: []dataset.Field{{Name: "kind", Value: k}}}
	}
	pred := sim.Predicate{
		Name:  "is-tool",
		Match: func(s string) bool { return strings.Contains(s, "kind is tool") },
		Truth: func(item string) (bool, float64) { return item == "tool", 1 },
	}
	return spec, recs, pred
}

// resilienceBench runs the chaos ladder: the same serial workload under
// no faults, a flickering burst every retry heals, sticky poisoned
// prompts that land in quarantine, and a total outage that exhausts the
// policy — each in quarantine mode on a fresh engine stack (sim oracle →
// fault injector → retry policy → counter), so the rows are independent
// and exact. Plans are in declctl -faults syntax.
func resilienceBench(ctx context.Context) ([]resilienceBenchRow, error) {
	spec, recs, pred := resilienceWorkload()
	configs := []struct {
		name, plan string
		policy     resil.Policy
	}{
		{name: "faultless", plan: "", policy: resil.Policy{MaxAttempts: 3}},
		{name: "flicker-heal", plan: "burst-every=2,burst-len=1", policy: resil.Policy{MaxAttempts: 3}},
		{name: "poison-quarantine", plan: "seed=7,permanent=0.25", policy: resil.Policy{MaxAttempts: 3}},
		{name: "outage-degrade", plan: "burst-every=1,burst-len=1", policy: resil.Policy{MaxAttempts: 2}},
	}

	var rows []resilienceBenchRow
	for _, c := range configs {
		plan, err := llm.ParseFaultPlan(c.plan)
		if err != nil {
			return nil, fmt.Errorf("resilience bench %s: %w", c.name, err)
		}
		oracle := sim.NewNamed("sim-gpt-3.5-turbo")
		oracle.RegisterPredicate(pred)
		faulty := llm.WithFaults(oracle, plan)
		rm := resil.Wrap(faulty, c.policy)
		counting := llm.NewCounting(rm)

		p, err := pipeline.Compile(spec)
		if err != nil {
			return nil, fmt.Errorf("resilience bench %s: %w", c.name, err)
		}
		res, err := p.Run(ctx, pipeline.ExecConfig{
			Model: counting, Parallelism: 1,
			Attribution:   workflow.NewAttribution(),
			OnRecordError: pipeline.OnRecordQuarantine,
		}, map[string][]dataset.Record{"source": recs})
		if err != nil {
			return nil, fmt.Errorf("resilience bench %s: %w", c.name, err)
		}

		fs := faulty.Stats()
		rs := rm.Stats()
		total := counting.Total()
		in := len(recs)
		rows = append(rows, resilienceBenchRow{
			Name:      c.name,
			RecordsIn: in, Quarantined: res.Quarantined, Skipped: res.Skipped,
			Availability:   float64(in-res.Quarantined-res.Skipped) / float64(in),
			InjectedFaults: fs.Injected(),
			Attempts:       rs.Attempts,
			Retries:        rs.Retries,
			UpstreamCalls:  total.Calls,
			UpstreamTokens: total.Total(),
		})
	}
	return rows, nil
}

// TestResilienceBenchPinned pins the chaos ladder's deterministic
// counters: the flicker burst must heal every fault by retry (full
// availability at zero quarantine), the sticky poison must quarantine
// exactly its afflicted prompts without wasting retries, and the total
// outage must quarantine everything while the run still completes. A
// diff here means retry, fault-injection, or quarantine accounting
// changed — rebase only with an explanation.
func TestResilienceBenchPinned(t *testing.T) {
	rows, err := resilienceBench(ctx())
	if err != nil {
		t.Fatal(err)
	}
	// Every record's ask is issued exactly once, so the arithmetic is per
	// record: poison = 6 healthy attempts + 2 permanent faults (never
	// retried); outage = 8 records x MaxAttempts 2, each attempt a fault.
	want := []resilienceBenchRow{
		{Name: "faultless", RecordsIn: 8, InjectedFaults: 0, Attempts: 8, Retries: 0,
			Quarantined: 0, Availability: 1, UpstreamCalls: 8, UpstreamTokens: 232},
		{Name: "flicker-heal", RecordsIn: 8, InjectedFaults: 8, Attempts: 16, Retries: 8,
			Quarantined: 0, Availability: 1, UpstreamCalls: 8, UpstreamTokens: 232},
		{Name: "poison-quarantine", RecordsIn: 8, InjectedFaults: 2, Attempts: 8, Retries: 0,
			Quarantined: 2, Availability: 0.75, UpstreamCalls: 6, UpstreamTokens: 175},
		{Name: "outage-degrade", RecordsIn: 8, InjectedFaults: 16, Attempts: 16, Retries: 8,
			Quarantined: 8, Availability: 0, UpstreamCalls: 0, UpstreamTokens: 0},
	}
	if len(rows) != len(want) {
		t.Fatalf("bench ran %d configs, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if g := rows[i]; g != w {
			t.Errorf("%s: %+v differs from pinned %+v", w.Name, g, w)
		}
	}
}
