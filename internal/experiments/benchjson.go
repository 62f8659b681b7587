package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/pipeline"
	"repro/internal/token"
	"repro/internal/workflow"
)

// BenchRow is one pipeline benchmark configuration's machine-readable
// record: wall clock per run plus the call, cache, and batching counters
// that explain it. The counters cover exactly one cold run of the
// workload whatever Iters was, so rows from reports generated with
// different iteration counts diff cleanly.
type BenchRow struct {
	Name           string `json:"name"`
	Iters          int    `json:"iters"`
	NsPerOp        int64  `json:"ns_per_op"`
	UpstreamCalls  int    `json:"upstream_calls"`
	UpstreamTokens int    `json:"upstream_tokens"`
	CacheSize      int    `json:"cache_size"`
	CacheHits      int    `json:"cache_hits"`
	Coalesced      int    `json:"coalesced"`
	Batches        int    `json:"batches"`
	SoloRetries    int    `json:"solo_retries"`
}

// BenchReport is the versioned envelope declctl bench writes (e.g. to
// BENCH_PR5.json), so future PRs can diff perf trajectories without
// scraping go test -bench output. ns_per_op, build_ms, and qps are
// machine-dependent; the call/cache counters and the index rows'
// config, recall, and bytes_per_record fields are deterministic for a
// given workload. Schema pipeline-bench/v2 added the index_benchmarks
// section (the quantized-tier study of `declctl index-bench`); v3 added
// the persistence section (warm index load vs rebuild and the cache
// log's append/replay/compaction economics, see docs/PERSISTENCE.md);
// v4 added the server section (multi-tenant cold/warm burst economics
// against a resident declserver, see docs/SERVER.md); v5 added the
// resilience section (the fault-injection chaos ladder: healed retries,
// quarantine counts, and availability, see docs/RESILIENCE.md).
type BenchReport struct {
	Schema          string               `json:"schema"`
	Go              string               `json:"go"`
	Workload        string               `json:"workload"`
	Benchmarks      []BenchRow           `json:"benchmarks"`
	IndexBenchmarks []IndexBenchRow      `json:"index_benchmarks"`
	Persistence     *PersistenceRow      `json:"persistence,omitempty"`
	Server          []ServerBenchRow     `json:"server,omitempty"`
	Resilience      []ResilienceBenchRow `json:"resilience,omitempty"`
}

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

// PipelineBench times the pipeline benchmark configurations iters times
// each and returns the machine-readable report. Each configuration keeps
// one execution layer across its iterations, so the cache counters show
// the cross-run reuse a persistent service would see. A non-empty
// stateDir threads through to the index benchmarks (`declctl bench
// -state-dir`): the first run builds and persists each index, repeat
// runs warm-load them — the rows then carry warm=true and their
// build_ms reports the one-read load.
func PipelineBench(ctx context.Context, iters int, stateDir string) (*BenchReport, error) {
	if iters <= 0 {
		iters = 3
	}
	spec, tables := benchWorkload()
	optimized, _, err := pipeline.Optimize(spec)
	if err != nil {
		return nil, err
	}

	type config struct {
		name string
		spec pipeline.Spec
		cfg  pipeline.ExecConfig
		// feed runs the configuration as a standing query: the source
		// table shrinks to static and the feed records arrive mid-run on
		// ExecConfig.Feed (the scenario harness's workload shape). Serial
		// execution (Parallelism 1, no batching) keeps every counter —
		// including the cache-hit/coalesce split — deterministic.
		static, feed []dataset.Record
	}
	source := tables["source"]
	half := len(source) / 2
	configs := []config{
		{name: "pipeline-naive", spec: spec, cfg: pipeline.ExecConfig{Parallelism: 16, Isolated: true, Materialized: true}},
		{name: "pipeline-optimized-materialized", spec: optimized, cfg: pipeline.ExecConfig{Parallelism: 16, Batch: 8, Materialized: true}},
		{name: "pipeline-optimized-streaming", spec: optimized, cfg: pipeline.ExecConfig{Parallelism: 16, Batch: 8}},
		{name: "pipeline-adaptive", spec: optimized, cfg: pipeline.ExecConfig{Parallelism: 16, Batch: 8, Adaptive: true}},
		{name: "scenario-standing-query", spec: optimized, cfg: pipeline.ExecConfig{Parallelism: 1},
			static: source[:half], feed: source[half:]},
	}

	report := &BenchReport{
		Schema:   "pipeline-bench/v5",
		Go:       runtime.Version(),
		Workload: "restaurants 12 source / 40 train, resolve->filter->impute",
	}
	for _, c := range configs {
		p, err := pipeline.Compile(c.spec)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", c.name, err)
		}
		counting := llm.NewCounting(sim.NewNamed("sim-gpt-3.5-turbo"))
		layer := workflow.NewExecLayer()
		cfg := c.cfg
		cfg.Model = counting
		if !cfg.Isolated {
			cfg.Exec = layer
		}
		// Counters are snapshotted after the first (cold) iteration so
		// they describe one run of the workload and stay comparable across
		// reports generated with different -iters; only ns/op averages
		// over every iteration.
		var total token.Usage
		var stats workflow.ExecStats
		start := time.Now()
		for i := 0; i < iters; i++ {
			runCfg, runTables := cfg, tables
			if len(c.feed) > 0 {
				runTables = make(map[string][]dataset.Record, len(tables))
				for k, v := range tables {
					runTables[k] = v
				}
				runTables["source"] = c.static
				feed := make(chan dataset.Record)
				go func() {
					defer close(feed)
					for _, r := range c.feed {
						feed <- r
					}
				}()
				runCfg.Feed = feed
			}
			if _, err := p.Run(ctx, runCfg, runTables); err != nil {
				return nil, fmt.Errorf("bench %s: %w", c.name, err)
			}
			if i == 0 {
				total = counting.Total()
				stats = layer.Stats()
			}
		}
		elapsed := time.Since(start)
		report.Benchmarks = append(report.Benchmarks, BenchRow{
			Name:           c.name,
			Iters:          iters,
			NsPerOp:        elapsed.Nanoseconds() / int64(iters),
			UpstreamCalls:  total.Calls,
			UpstreamTokens: total.Total(),
			CacheSize:      stats.CacheSize,
			CacheHits:      stats.CacheHits,
			Coalesced:      stats.Coalesced,
			Batches:        stats.Batches,
			SoloRetries:    stats.SoloRetries,
		})
	}

	// Index benchmarks: a small run exercising every mode, plus the
	// flat-only N=100k run that commits the quantized-scan ≥2x speedup
	// evidence (qps is machine-dependent and stripped by the CI diff; the
	// recall and bytes_per_record columns are the deterministic part).
	for _, icfg := range []IndexBenchConfig{
		{N: 2000, K: 10, Queries: 100, Quantize: true, Seed: 7, StateDir: stateDir},
		{N: 100000, K: 10, Queries: 20, Quantize: true, FlatOnly: true, Seed: 7, StateDir: stateDir},
	} {
		rows, err := IndexBench(icfg)
		if err != nil {
			return nil, fmt.Errorf("bench index n=%d: %w", icfg.N, err)
		}
		report.IndexBenchmarks = append(report.IndexBenchmarks, rows...)
	}

	// Persistence: warm index load vs rebuild at the 100k acceptance
	// scale plus the cache log's replay and compaction figures.
	persist, err := PersistenceStudy(DefaultPersistenceConfig())
	if err != nil {
		return nil, fmt.Errorf("bench persistence: %w", err)
	}
	report.Persistence = persist

	// Server: the multi-tenant burst economics against one resident
	// declserver — a cold concurrent round costing one cold run, then an
	// upstream-free warm round.
	serverRows, err := ServerBench(ctx)
	if err != nil {
		return nil, fmt.Errorf("bench server: %w", err)
	}
	report.Server = serverRows

	// Resilience: the fault-injection chaos ladder — every counter
	// deterministic, so regressions in retry healing or quarantine
	// accounting show as a clean diff.
	resilRows, err := ResilienceBench(ctx)
	if err != nil {
		return nil, fmt.Errorf("bench resilience: %w", err)
	}
	report.Resilience = resilRows
	return report, nil
}

// WriteBenchReport marshals the report to path as indented JSON.
func WriteBenchReport(report *BenchReport, path string) error {
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// FormatBenchReport renders the report as a text table.
func FormatBenchReport(report *BenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %12s %8s %8s %10s %8s %8s\n",
		"Benchmark", "ns/op", "calls", "tokens", "cachehits", "batches", "retries")
	for _, row := range report.Benchmarks {
		fmt.Fprintf(&b, "%-34s %12d %8d %8d %10d %8d %8d\n",
			row.Name, row.NsPerOp, row.UpstreamCalls, row.UpstreamTokens,
			row.CacheHits, row.Batches, row.SoloRetries)
	}
	// One index table per corpus size (rows arrive grouped by run).
	for i := 0; i < len(report.IndexBenchmarks); {
		j := i
		for j < len(report.IndexBenchmarks) && report.IndexBenchmarks[j].N == report.IndexBenchmarks[i].N {
			j++
		}
		fmt.Fprintf(&b, "\nindex n=%d:\n%s", report.IndexBenchmarks[i].N,
			FormatIndexBench(report.IndexBenchmarks[i:j]))
		i = j
	}
	if report.Persistence != nil {
		fmt.Fprintf(&b, "\npersistence:\n%s", FormatPersistence(report.Persistence))
	}
	if len(report.Resilience) > 0 {
		fmt.Fprintf(&b, "\nresilience:\n%s", FormatResilienceBench(report.Resilience))
	}
	return b.String()
}
