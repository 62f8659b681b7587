package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/pipeline"
	"repro/internal/resil"
	"repro/internal/workflow"
)

// ResilienceBenchRow is one fault-injection configuration's record: what
// the plan injected, what the retry policy healed, what degraded-mode
// execution quarantined, and what fraction of records survived. Serial
// execution over distinct prompts keeps every counter deterministic, so
// the committed BENCH_PR5.json diffs cleanly in CI.
type ResilienceBenchRow struct {
	Name string `json:"name"`
	// Plan is the fault plan in declctl -faults syntax; Mode the degraded
	// record policy.
	Mode string `json:"on_record_error"`
	Plan string `json:"plan"`
	// RecordsIn is the workload width; Quarantined/Skipped what degraded
	// execution dropped; Availability the surviving fraction.
	RecordsIn    int     `json:"records_in"`
	Quarantined  int     `json:"quarantined"`
	Skipped      int     `json:"skipped"`
	Availability float64 `json:"availability"`
	// InjectedFaults counts the wrapper's actual injections; Attempts and
	// Retries the physical attempts and retry launches the policy spent.
	InjectedFaults int `json:"injected_faults"`
	Attempts       int `json:"attempts"`
	Retries        int `json:"retries"`
	// UpstreamCalls/UpstreamTokens are the settled (successful) calls the
	// layers above the policy saw — retries and faulted attempts excluded.
	UpstreamCalls  int `json:"upstream_calls"`
	UpstreamTokens int `json:"upstream_tokens"`
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

// ResilienceBench runs the chaos ladder: the same serial workload under
// no faults, a flickering burst every retry heals, sticky poisoned
// prompts that land in quarantine, and a total outage that exhausts the
// policy — each on a fresh engine stack (sim oracle → fault injector →
// retry policy → counter), so the rows are independent and exact.
func ResilienceBench(ctx context.Context) ([]ResilienceBenchRow, error) {
	spec, recs, pred := resilienceWorkload()
	configs := []struct {
		name, plan string
		policy     resil.Policy
		mode       string
	}{
		{name: "faultless", plan: "",
			policy: resil.Policy{MaxAttempts: 3}, mode: pipeline.OnRecordQuarantine},
		{name: "flicker-heal", plan: "burst-every=2,burst-len=1",
			policy: resil.Policy{MaxAttempts: 3}, mode: pipeline.OnRecordQuarantine},
		{name: "poison-quarantine", plan: "seed=7,permanent=0.25",
			policy: resil.Policy{MaxAttempts: 3}, mode: pipeline.OnRecordQuarantine},
		{name: "outage-degrade", plan: "burst-every=1,burst-len=1",
			policy: resil.Policy{MaxAttempts: 2}, mode: pipeline.OnRecordQuarantine},
	}

	var rows []ResilienceBenchRow
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
			OnRecordError: c.mode,
		}, map[string][]dataset.Record{"source": recs})
		if err != nil {
			return nil, fmt.Errorf("resilience bench %s: %w", c.name, err)
		}

		fs := faulty.Stats()
		rs := rm.Stats()
		total := counting.Total()
		in := len(recs)
		rows = append(rows, ResilienceBenchRow{
			Name: c.name, Mode: c.mode, Plan: c.plan,
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

// FormatResilienceBench renders the chaos ladder as a text table.
func FormatResilienceBench(rows []ResilienceBenchRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-28s %8s %9s %8s %6s %6s %6s %7s\n",
		"Config", "Plan", "injected", "attempts", "retries", "quar", "avail", "calls", "tokens")
	for _, r := range rows {
		plan := r.Plan
		if plan == "" {
			plan = "-"
		}
		fmt.Fprintf(&b, "%-20s %-28s %8d %9d %8d %6d %6.2f %6d %7d\n",
			r.Name, plan, r.InjectedFaults, r.Attempts, r.Retries,
			r.Quarantined, r.Availability, r.UpstreamCalls, r.UpstreamTokens)
	}
	return b.String()
}
