package experiments

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/llm/sim"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// benchWorkload mirrors internal/pipeline's benchmark shape: a
// filter→dedupe→impute chain in the pessimal user order over the
// restaurants dataset.
func benchWorkload() (pipeline.Spec, map[string][]dataset.Record) {
	spec := pipeline.Spec{Stages: []pipeline.StageSpec{
		{Name: "entities", Kind: pipeline.KindResolve, Input: "source",
			Strategy: "pairwise", InvariantFields: []string{"type"}},
		{Name: "cheap", Kind: pipeline.KindFilter, Field: "type",
			Predicate: "the restaurant serves seafood, steak, or pizza", Selectivity: 0.3},
		{Name: "city", Kind: pipeline.KindImpute, TargetField: "city",
			Side: "train", Strategy: "hybrid", Neighbors: 3},
	}}
	ds := dataset.GenerateRestaurants(40, 12, 7)
	source := make([]dataset.Record, len(ds.Test))
	for i, r := range ds.Test {
		source[i] = r.WithoutField(ds.TargetField)
	}
	return spec, map[string][]dataset.Record{"source": source, "train": ds.Train}
}

// serverBenchRow is one multi-tenant service round: N tenants submit the
// bench workload concurrently against one resident declserver and the
// row reports what the round cost. The upstream and shared-hit counters
// are per-round deltas and deterministic (each unit ask is served exactly
// once — upstream, cache, or coalesced — so the split's sum is stable
// however the timing falls).
type serverBenchRow struct {
	Name           string
	Tenants        int
	Submissions    int
	Completed      int
	UpstreamCalls  int
	UpstreamTokens int
	SharedHits     int
	Balanced       bool
}

// serverBench measures the declserver economics the service exists for:
// a cold concurrent burst (every tenant pays only for the asks the
// shared substrate cannot absorb — the whole burst costs one cold run)
// and a warm burst against the same resident server (upstream-free).
// Balanced reports the attribution invariant after each round: the
// per-tenant ledger sums to the global upstream truth.
func serverBench(ctx context.Context) ([]serverBenchRow, error) {
	spec, tables := benchWorkload()
	optimized, _, err := pipeline.Optimize(spec)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Model:         sim.NewNamed("sim-gpt-3.5-turbo"),
		MaxConcurrent: 2,
		MaxQueue:      64,
		Parallelism:   2,
	})

	const tenants, perTenant = 3, 2
	round := func(name string) (serverBenchRow, error) {
		before := srv.Stats()
		var wg sync.WaitGroup
		errs := make([]error, tenants*perTenant)
		for ti := 0; ti < tenants; ti++ {
			id := fmt.Sprintf("tenant-%d", ti)
			for k := 0; k < perTenant; k++ {
				wg.Add(1)
				go func(slot int, id string) {
					defer wg.Done()
					st, err := srv.Submit(ctx, server.SubmitRequest{Tenant: id, Spec: optimized, Tables: tables})
					if err == nil && st.State != server.JobDone {
						err = fmt.Errorf("job ended %s: %s", st.State, st.Error)
					}
					errs[slot] = err
				}(ti*perTenant+k, id)
			}
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return serverBenchRow{}, fmt.Errorf("server bench %s: %w", name, err)
			}
		}
		after := srv.Stats()
		return serverBenchRow{
			Name:           name,
			Tenants:        tenants,
			Submissions:    tenants * perTenant,
			Completed:      tenants * perTenant,
			UpstreamCalls:  after.UpstreamCalls - before.UpstreamCalls,
			UpstreamTokens: after.UpstreamTokens - before.UpstreamTokens,
			SharedHits:     (after.CacheHits + after.Coalesced) - (before.CacheHits + before.Coalesced),
			Balanced:       after.Balanced,
		}, nil
	}

	var rows []serverBenchRow
	for _, name := range []string{"server-cold-burst", "server-warm-burst"} {
		row, err := round(name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// TestServerBenchPinned pins the declserver burst economics on the stock
// sim engine: six concurrent submissions across three tenants cost
// exactly one cold run of the workload (the shared cache and coalescer
// absorb the other five), and a second burst against the same resident
// server is upstream-free. Every ask is served exactly once — upstream,
// cache, or coalesced — so the shared-hit sums are stable however the
// hit/coalesce split falls. A diff here means the service changed what
// tenants pay; rebase the numbers only with an explanation.
func TestServerBenchPinned(t *testing.T) {
	rows, err := serverBench(ctx())
	if err != nil {
		t.Fatal(err)
	}
	want := []serverBenchRow{
		{Name: "server-cold-burst", Tenants: 3, Submissions: 6, Completed: 6,
			UpstreamCalls: 30, UpstreamTokens: 2520, SharedHits: 168, Balanced: true},
		{Name: "server-warm-burst", Tenants: 3, Submissions: 6, Completed: 6,
			UpstreamCalls: 0, UpstreamTokens: 0, SharedHits: 198, Balanced: true},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if g := rows[i]; g != w {
			t.Errorf("%s: %+v differs from pinned %+v", g.Name, g, w)
		}
	}
}
