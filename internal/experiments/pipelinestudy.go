package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/pipeline"
	"repro/internal/token"
	"repro/internal/workflow"
)

// PipelineStudyConfig parameterises the pipeline-optimization study.
type PipelineStudyConfig struct {
	// Model is the simulated model name.
	Model string
	// Records is the base source width; duplicates are added on top.
	Records int
	// DupFrac is the fraction of base records that get a corrupted
	// duplicate (same type/city, perturbed address and phone).
	DupFrac float64
	// TrainN sizes the imputation training side table.
	TrainN int
	// Batch is the unit tasks per envelope in the optimized run (<= 1
	// disables batching there).
	Batch int
	// Parallelism bounds concurrent calls.
	Parallelism int
	// ProbeSample caps the records the probing optimizer samples per
	// hintless filter in the streaming configuration (default 8).
	ProbeSample int
	// Seed drives the deterministic workload generator.
	Seed int64
}

// DefaultPipelineStudyConfig returns the study's stock shape.
func DefaultPipelineStudyConfig() PipelineStudyConfig {
	return PipelineStudyConfig{
		Model: "sim-gpt-3.5-turbo", Records: 24, DupFrac: 0.4,
		TrainN: 60, Batch: 8, Parallelism: 16, ProbeSample: 8, Seed: 7,
	}
}

// PipelineStudyRun is one configuration's accounting.
type PipelineStudyRun struct {
	// Config labels the configuration.
	Config string
	// UpstreamCalls and UpstreamTokens count what actually reached the
	// model, measured below every wrapper.
	UpstreamCalls, UpstreamTokens int
	// ProbeCalls counts the upstream calls the probing optimizer's
	// selectivity probes spent (attributed under workflow.StageProbe;
	// zero for hint-trusting configurations).
	ProbeCalls int
	// WallClock is the configuration's elapsed execution time.
	WallClock time.Duration
	// Stages is the per-stage attribution report.
	Stages []pipeline.StageReport
	// Usage is the attribution total; its Calls/Total must equal the
	// upstream counters (the pinned consistency check).
	Usage token.Usage
	// Count is the terminal count stage's scalar output.
	Count string
}

// PipelineStudyResult compares naive sequential operator invocation with
// the optimized pipeline — with the spec's selectivity hints, and with
// probed (measured) selectivities — on one workload.
type PipelineStudyResult struct {
	Naive, Optimized, Streaming PipelineStudyRun
	// Rewrites is the hint-trusting optimizer's log.
	Rewrites []string
	// ProbeTrace is the probing optimizer's log: hint-vs-measured lines
	// followed by the rewrites it applied.
	ProbeTrace []string
	// Identical reports whether the final table and scalar outputs match
	// exactly between naive and optimized — the temperature-0 equivalence
	// the optimizer promises.
	Identical bool
	// StreamingIdentical reports the same equivalence between the
	// hint-trusting and the streaming+probed configurations.
	StreamingIdentical bool
	// CallReduction is naive calls divided by optimized calls.
	CallReduction float64
}

// pipelineStudySpec is the study workload's user-order plan: dedupe the
// raw feed first, then filter, then impute, then count — the "filter late"
// shape the optimizer exists to fix (dedupe is quadratic in its input, so
// pushing the cheap type filter ahead of it shrinks the dominant cost by
// the square of the selectivity).
func pipelineStudySpec() pipeline.Spec {
	return pipeline.Spec{Stages: []pipeline.StageSpec{
		{Name: "entities", Kind: pipeline.KindResolve, Input: "source",
			Strategy: "pairwise", InvariantFields: []string{"type"}},
		{Name: "cuisine", Kind: pipeline.KindFilter, Field: "type",
			Predicate: "the restaurant serves seafood, steak, or pizza", Selectivity: 0.3},
		{Name: "city", Kind: pipeline.KindImpute, TargetField: "city",
			Side: "train", Strategy: "hybrid", Neighbors: 3, Examples: 2},
		{Name: "in-ny", Kind: pipeline.KindCount, Field: "city",
			Predicate: "the city is new york", Strategy: "per-item"},
	}}
}

// pipelineStudyTables builds the workload: restaurant records whose city
// is missing (to impute), a DupFrac share of them duplicated with
// corrupted address/phone but byte-identical name and type — so the
// declared resolve invariant ("type") genuinely holds — plus the training
// side table.
func pipelineStudyTables(cfg PipelineStudyConfig) map[string][]dataset.Record {
	ds := dataset.GenerateRestaurants(cfg.TrainN, cfg.Records, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed * 31))
	var source []dataset.Record
	for _, r := range ds.Test {
		masked := r.WithoutField(ds.TargetField)
		source = append(source, masked)
		if rng.Float64() < cfg.DupFrac {
			dup := masked.Clone()
			dup.ID = masked.ID + "-dup"
			if addr, ok := dup.Get("addr"); ok {
				dup.Set("addr", fmt.Sprintf("%d %s", 10+rng.Intn(990), strings.TrimLeft(addr, "0123456789 ")))
			}
			if phone, ok := dup.Get("phone"); ok && len(phone) >= 4 {
				dup.Set("phone", phone[:len(phone)-4]+fmt.Sprintf("%04d", rng.Intn(10000)))
			}
			source = append(source, dup)
		}
	}
	return map[string][]dataset.Record{"source": source, "train": ds.Train}
}

// pipelineStudyModel builds the simulated model with the study's two
// custom predicates registered (the filter's cuisine check and the count's
// city check), wrapped in an upstream call counter.
func pipelineStudyModel(name string) (*llm.CountingModel, error) {
	oracle := sim.NewNamed(name)
	oracle.RegisterPredicate(sim.Predicate{
		Name:  "serves-cuisine",
		Match: func(s string) bool { return strings.Contains(strings.ToLower(s), "restaurant serves") },
		Truth: func(item string) (bool, float64) {
			switch strings.ToLower(strings.TrimSpace(item)) {
			case "seafood", "steakhouses", "pizza":
				return true, 1
			}
			return false, 1
		},
	})
	oracle.RegisterPredicate(sim.Predicate{
		Name:  "in-new-york",
		Match: func(s string) bool { return strings.Contains(strings.ToLower(s), "new york") },
		Truth: func(item string) (bool, float64) {
			return strings.Contains(strings.ToLower(item), "new york"), 1
		},
	})
	return llm.NewCounting(oracle), nil
}

// PipelineStudy measures what the declarative pipeline layer buys on one
// workload. Three configurations run the same spec:
//
//   - naive: the user's stage order, each operator invoked in sequence
//     as its own one-stage pipeline on whole tables (RunNaive) — the cost
//     a user pays calling operators one by one;
//   - optimized: the hint-trusting optimizer's rewritten order (filter
//     pushed ahead of the quadratic dedupe) on one shared engine — one
//     execution layer, one index registry, one budget, unit-task
//     batching, with per-stage attribution;
//   - streaming: the same rewritten plan with the spec's selectivity
//     hints stripped, so the optimizer *measures* filter selectivity on a
//     record sample (probe spend attributed under workflow.StageProbe)
//     on a layer it shares with the run.
//
// At temperature 0 all three produce identical final tables and scalars,
// and the optimized runs spend strictly fewer upstream calls and tokens.
func PipelineStudy(ctx context.Context, cfg PipelineStudyConfig) (*PipelineStudyResult, error) {
	if cfg.Records < 4 {
		return nil, fmt.Errorf("pipeline study: need at least 4 records, got %d", cfg.Records)
	}
	spec := pipelineStudySpec()
	tables := pipelineStudyTables(cfg)

	optSpec, rewrites, err := pipeline.Optimize(spec)
	if err != nil {
		return nil, fmt.Errorf("pipeline study: optimize: %w", err)
	}

	runOne := func(label string, run runner, s pipeline.Spec, execCfg pipeline.ExecConfig, counting *llm.CountingModel) (PipelineStudyRun, *pipeline.Result, error) {
		start := time.Now()
		res, err := run(ctx, s, execCfg, tables)
		if err != nil {
			return PipelineStudyRun{}, nil, fmt.Errorf("run %s: %w", label, err)
		}
		total := counting.Total()
		return PipelineStudyRun{
			Config:         label,
			UpstreamCalls:  total.Calls,
			UpstreamTokens: total.Total(),
			WallClock:      time.Since(start),
			Stages:         res.Stages,
			Usage:          res.Usage,
			Count:          res.Scalars["in-ny"],
		}, res, nil
	}

	naiveModel, err := pipelineStudyModel(cfg.Model)
	if err != nil {
		return nil, err
	}
	naive, naiveRes, err := runOne("naive sequential (seed)", RunNaive, spec,
		pipeline.ExecConfig{Model: naiveModel, Parallelism: cfg.Parallelism}, naiveModel)
	if err != nil {
		return nil, err
	}

	optModel, err := pipelineStudyModel(cfg.Model)
	if err != nil {
		return nil, err
	}
	optimized, optRes, err := runOne("optimized pipeline", runPlan, optSpec, pipeline.ExecConfig{
		Model: optModel, Parallelism: cfg.Parallelism, Batch: cfg.Batch,
	}, optModel)
	if err != nil {
		return nil, err
	}

	// Streaming configuration: strip the filter hints so the optimizer
	// must measure, and share one layer and ledger between probing and the
	// run.
	strModel, err := pipelineStudyModel(cfg.Model)
	if err != nil {
		return nil, err
	}
	hintless := spec
	hintless.Stages = append([]pipeline.StageSpec(nil), spec.Stages...)
	for i := range hintless.Stages {
		hintless.Stages[i].Selectivity = 0
	}
	attr := workflow.NewAttribution()
	strCfg := pipeline.ExecConfig{
		Model: strModel, Parallelism: cfg.Parallelism, Batch: cfg.Batch,
		Exec: workflow.NewExecLayer(), Attribution: attr,
	}
	probedSpec, probeTrace, err := pipeline.OptimizeProbed(ctx, hintless, strCfg, tables,
		pipeline.ProbeOptions{Sample: cfg.ProbeSample})
	if err != nil {
		return nil, fmt.Errorf("pipeline study: probed optimize: %w", err)
	}
	streaming, strRes, err := runOne("streaming + probed", runPlan, probedSpec, strCfg, strModel)
	if err != nil {
		return nil, err
	}
	streaming.ProbeCalls = attr.Usage(workflow.StageProbe).Calls

	last := spec.Stages[len(spec.Stages)-1].Name
	identical := reflect.DeepEqual(naiveRes.Tables[last], optRes.Tables[last]) &&
		reflect.DeepEqual(naiveRes.Scalars, optRes.Scalars)
	streamingIdentical := reflect.DeepEqual(optRes.Tables[last], strRes.Tables[last]) &&
		reflect.DeepEqual(optRes.Scalars, strRes.Scalars)

	out := &PipelineStudyResult{
		Naive:              naive,
		Optimized:          optimized,
		Streaming:          streaming,
		Rewrites:           rewrites,
		ProbeTrace:         probeTrace,
		Identical:          identical,
		StreamingIdentical: streamingIdentical,
	}
	if optimized.UpstreamCalls > 0 {
		out.CallReduction = float64(naive.UpstreamCalls) / float64(optimized.UpstreamCalls)
	}
	return out, nil
}

// runner runs a spec over tables: runPlan as one pipeline, RunNaive as a
// chain of one-stage pipelines.
type runner func(context.Context, pipeline.Spec, pipeline.ExecConfig, map[string][]dataset.Record) (*pipeline.Result, error)

// runPlan compiles spec and runs it as one pipeline.
func runPlan(ctx context.Context, spec pipeline.Spec, cfg pipeline.ExecConfig, tables map[string][]dataset.Record) (*pipeline.Result, error) {
	p, err := pipeline.Compile(spec)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx, cfg, tables)
}

// FormatPipelineStudy renders the study as a text report.
func FormatPipelineStudy(res *PipelineStudyResult) string {
	var b strings.Builder
	for _, rw := range res.Rewrites {
		fmt.Fprintf(&b, "rewrite: %s\n", rw)
	}
	for _, line := range res.ProbeTrace {
		fmt.Fprintf(&b, "trace: %s\n", line)
	}
	fmt.Fprintf(&b, "%-26s %10s %12s %10s %12s\n", "Configuration", "# Calls", "# Tokens", "Reduction", "Wall clock")
	for _, run := range []PipelineStudyRun{res.Naive, res.Optimized, res.Streaming} {
		red := 1.0
		if run.UpstreamCalls > 0 {
			red = float64(res.Naive.UpstreamCalls) / float64(run.UpstreamCalls)
		}
		fmt.Fprintf(&b, "%-26s %10d %12d %9.1fx %12s\n",
			run.Config, run.UpstreamCalls, run.UpstreamTokens, red, run.WallClock.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "identical results: %v (streaming: %v), count scalar: %s\n",
		res.Identical, res.StreamingIdentical, res.Optimized.Count)
	fmt.Fprintf(&b, "probe calls: %d of the streaming run's %d (hint-trusting optimized run: 0)\n",
		res.Streaming.ProbeCalls, res.Streaming.UpstreamCalls)
	b.WriteString("per-stage attribution (streaming + probed):\n")
	for _, s := range res.Streaming.Stages {
		fmt.Fprintf(&b, "  %-10s %-10s in %3d out %3d  %6d calls %8d tokens  $%.4f  %s\n",
			s.Name, s.Kind, s.In, s.Out, s.Usage.Calls, s.Usage.Total(), s.Cost, s.Detail)
	}
	return b.String()
}
