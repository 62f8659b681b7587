// Command declctl runs the paper's experiments and the repository's
// ablations from the command line, printing each table in the paper's
// layout.
//
// Usage:
//
//	declctl table1                 # Table 1: sorting 20 flavours, 3 strategies
//	declctl table2                 # Table 2: sorting 100 words, sort-then-insert
//	declctl table3 [-pairs 5742]   # Table 3: entity resolution with transitivity
//	declctl table4                 # Table 4: imputation, hybrid LLM / k-NN
//	declctl ablate-batch           # A1: grouping batch-size sweep
//	declctl ablate-quality         # A2: quality-control policies
//	declctl ablate-planner         # A3: automatic strategy selection
//	declctl ablate-repair          # A4: comparison-graph repair
//	declctl ablate-filter          # A5: adaptive filter policies
//	declctl all                    # everything above
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/pipeline"
	"repro/internal/resil"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/workflow"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	// Sub-flags parsed from the remaining arguments.
	sub := flag.NewFlagSet(cmd, flag.ExitOnError)
	pairs := sub.Int("pairs", 5742, "labelled pair count for table3")
	trials := sub.Int("trials", 3, "trial count for table2")
	words := sub.Int("words", 100, "words per trial for table2")
	batch := sub.Int("batch", 8, "unit tasks per envelope for pipeline and pipeline-study")
	specPath := sub.String("spec", "", "JSON pipeline spec file for pipeline (empty = built-in demo)")
	plModel := sub.String("model", "sim-gpt-3.5-turbo", "model name for pipeline")
	plNaive := sub.Bool("naive", false, "run the pipeline unoptimized as a chain of one-stage pipelines")
	plProbe := sub.Int("probe", 0, "sample size for measured filter selectivity in pipeline (0 = trust spec hints)")
	plMaterialized := sub.Bool("materialized", false, "disable record streaming between pipeline stages")
	plFaults := sub.String("faults", "",
		"inject deterministic upstream faults for pipeline: key=val,... over seed, transient, timeout, ratelimit, permanent, malformed, wrong-section, burst-every, burst-len (empty = none)")
	plRetries := sub.Int("retries", 3, "max attempts per upstream call for pipeline when -faults is set (1 = no retries)")
	plOnRecordError := sub.String("on-record-error", "",
		"degraded-mode record policy for pipeline: fail (default), skip, or quarantine")
	plRecords := sub.Int("records", 24, "base source records for pipeline-study")
	plDup := sub.Float64("dup", 0.4, "duplicated fraction for pipeline-study")
	stateDir := sub.String("state-dir", "",
		"persistent-state directory: cache-compact rewrites its cache log")
	scName := sub.String("name", "", "scenario ID to run for scenario (see -list)")
	scList := sub.Bool("list", false, "list the pre-built scenarios for scenario")
	srvURL := sub.String("server", "http://localhost:8080", "declserver base URL for submit/status/report")
	srvTenant := sub.String("tenant", "default", "tenant ID for submit/report")
	srvAsync := sub.Bool("async", false, "submit without waiting; poll with declctl status -job ID")
	srvOptimize := sub.Bool("optimize", false, "ask the server to optimize the spec before running")
	srvJob := sub.String("job", "", "job ID for status")
	srvCancel := sub.Bool("cancel", false, "cancel the job named by -job")
	asJSON := sub.Bool("json", false, "emit the result as JSON on stdout for scenario")
	sub.Parse(flag.Args()[1:])

	ctx := context.Background()
	run := func(name string, fn func() error) {
		start := time.Now()
		fmt.Printf("== %s ==\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "declctl: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s)\n\n", time.Since(start).Round(time.Millisecond))
	}

	table1 := func() error {
		rows, err := experiments.Table1(ctx, experiments.DefaultTable1Config())
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable1(rows))
		return nil
	}
	table2 := func() error {
		cfg := experiments.DefaultTable2Config()
		cfg.Trials = *trials
		cfg.Words = *words
		rows, err := experiments.Table2(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable2(rows))
		return nil
	}
	table3 := func() error {
		cfg := experiments.DefaultTable3Config()
		cfg.Citations.Pairs = *pairs
		if *pairs < 2000 {
			cfg.Citations.Entities = *pairs / 4
		}
		rows, err := experiments.Table3(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable3(rows))
		return nil
	}
	table4 := func() error {
		rows, err := experiments.Table4(ctx, experiments.DefaultTable4Config())
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable4(rows))
		return nil
	}
	ablateBatch := func() error {
		rows, err := experiments.AblationBatchSize(ctx, "sim-gpt-3.5-turbo", 60, 1, []int{4, 8, 12, 20})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAblationBatchSize(rows))
		return nil
	}
	ablateQuality := func() error {
		rows, err := experiments.AblationQuality(ctx, "sim-cheap", 5)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAblationQuality(rows))
		return nil
	}
	ablatePlanner := func() error {
		rows, err := experiments.AblationPlanner(ctx, "sim-gpt-3.5-turbo")
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAblationPlanner(rows))
		return nil
	}
	ablateRepair := func() error {
		rows, err := experiments.AblationRepair(ctx, 12)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAblationRepair(rows))
		return nil
	}
	ablateBatchCmp := func() error {
		rows, err := experiments.AblationCompareBatch(ctx, "sim-gpt-3.5-turbo", []int{1, 3, 5, 10, 19})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAblationCompareBatch(rows))
		return nil
	}
	ablateEvidence := func() error {
		rows, err := experiments.AblationEvidence(ctx, "sim-gpt-3.5-turbo",
			dataset.CitationConfig{Entities: 400, Pairs: 1600, PositiveFrac: 0.24, Seed: 7})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAblationEvidence(rows))
		return nil
	}
	ablateCascade := func() error {
		rows, err := experiments.AblationCascade(ctx, "sim-cheap", "sim-gpt-4")
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAblationCascade(rows))
		return nil
	}
	ablateTemplates := func() error {
		rows, err := experiments.AblationTemplates(ctx, []string{"sim-gpt-3.5-turbo", "sim-claude"})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAblationTemplates(rows))
		return nil
	}
	ablateFilter := func() error {
		rows, err := experiments.AblationFilter(ctx, "sim-cheap", 7)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAblationFilter(rows))
		return nil
	}
	runPipeline := func() error {
		spec, err := loadSpec(*specPath)
		if err != nil {
			return err
		}
		tables, err := spec.Source.Tables()
		if err != nil {
			return err
		}
		// Chaos stack, bottom-up: sim oracle → fault injector → retry
		// policy → call counter. The policy sits below the counter (and
		// the shared cache), so retries stay invisible to billing and the
		// cache only ever sees healed answers.
		base := llm.Model(sim.NewNamed(*plModel))
		var faulty *llm.FaultyModel
		var rm *resil.Model
		if *plFaults != "" {
			plan, err := llm.ParseFaultPlan(*plFaults)
			if err != nil {
				return err
			}
			faulty = llm.WithFaults(base, plan)
			rm = resil.Wrap(faulty, resil.Policy{
				MaxAttempts: *plRetries,
				BaseBackoff: time.Millisecond,
			})
			base = rm
		}
		counting := llm.NewCounting(base)
		execCfg := pipeline.ExecConfig{
			Model:         counting,
			Batch:         *batch,
			Parallelism:   16,
			Materialized:  *plMaterialized,
			OnRecordError: *plOnRecordError,
			// Persistent layer and ledger so probe work is re-served from
			// cache by the run and reported as the __probe row.
			Exec:        workflow.NewExecLayer(),
			Attribution: workflow.NewAttribution(),
		}
		var res *pipeline.Result
		if *plNaive {
			res, err = experiments.RunNaive(ctx, spec, execCfg, tables)
		} else {
			var (
				optimized pipeline.Spec
				rewrites  []string
			)
			if *plProbe > 0 {
				optimized, rewrites, err = pipeline.OptimizeProbed(ctx, spec, execCfg, tables,
					pipeline.ProbeOptions{Sample: *plProbe})
			} else {
				optimized, rewrites, err = pipeline.Optimize(spec)
			}
			if err != nil {
				return err
			}
			for _, rw := range rewrites {
				fmt.Printf("rewrite: %s\n", rw)
			}
			var p *pipeline.Pipeline
			if p, err = pipeline.Compile(optimized); err == nil {
				res, err = p.Run(ctx, execCfg, tables)
			}
		}
		if err != nil {
			return err
		}
		fmt.Print(pipeline.FormatResult(res))
		total := counting.Total()
		fmt.Printf("upstream: %d calls, %d tokens\n", total.Calls, total.Total())
		if res.Skipped > 0 || res.Quarantined > 0 {
			fmt.Printf("degraded: %d skipped, %d quarantined\n", res.Skipped, res.Quarantined)
		}
		if faulty != nil {
			fs, rs := faulty.Stats(), rm.Stats()
			fmt.Printf("resilience: %d faults injected, %d attempts, %d retries, %d breaker opens\n",
				fs.Injected(), rs.Attempts, rs.Retries, rs.BreakerOpens)
		}
		return nil
	}
	pipelineStudy := func() error {
		cfg := experiments.DefaultPipelineStudyConfig()
		cfg.Records = *plRecords
		cfg.DupFrac = *plDup
		cfg.Batch = *batch
		res, err := experiments.PipelineStudy(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatPipelineStudy(res))
		return nil
	}
	runScenario := func() error {
		if *scList {
			for _, sc := range scenario.List() {
				fmt.Printf("%-24s %s\n  %s\n", sc.ID, sc.Name, sc.Description)
			}
			return nil
		}
		if *scName == "" {
			return fmt.Errorf("scenario needs -name <id> (or -list)")
		}
		sc := scenario.ByID(*scName)
		if sc == nil {
			return fmt.Errorf("unknown scenario %q (try -list)", *scName)
		}
		res, err := scenario.New(scenario.Options{}).Run(ctx, sc)
		if err != nil {
			return err
		}
		if *asJSON {
			raw, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(raw))
		} else {
			fmt.Print(scenario.Format(res))
		}
		if !res.Passed {
			return fmt.Errorf("scenario %s failed its checkpoints", sc.ID)
		}
		return nil
	}
	scenarioStudy := func() error {
		res, err := experiments.ScenarioStudy(ctx)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatScenarioStudy(res))
		if !res.AllPassed {
			return fmt.Errorf("scenario study: not every checkpoint passed")
		}
		return nil
	}
	cacheCompact := func() error {
		if *stateDir == "" {
			return fmt.Errorf("cache-compact needs -state-dir <dir> (the directory holding %s)", workflow.CacheLogName)
		}
		path := filepath.Join(*stateDir, workflow.CacheLogName)
		if _, err := os.Stat(path); err != nil {
			return fmt.Errorf("no cache log at %s: %w", path, err)
		}
		lg, err := workflow.OpenCacheLog(path)
		if err != nil {
			return err
		}
		defer lg.Close()
		cache := workflow.NewCache(0)
		rs, err := lg.Replay(cache)
		if err != nil {
			return err
		}
		if rs.Recovered {
			fmt.Printf("recovered torn tail: dropped %d trailing bytes\n", rs.DroppedBytes)
		}
		live, _ := cache.Stats()
		before := lg.Stats()
		ratio := 1.0
		if before.Records > 0 {
			ratio = float64(live) / float64(before.Records)
		}
		fmt.Printf("before: %d records (%d live, %.3f live ratio), %d bytes\n",
			before.Records, live, ratio, before.Bytes)
		if err := lg.Compact(cache); err != nil {
			return err
		}
		after := lg.Stats()
		fmt.Printf("after:  %d records, %d bytes (reclaimed %d)\n",
			after.Records, after.Bytes, before.Bytes-after.Bytes)
		return nil
	}

	serverSubmit := func() error {
		spec, err := loadSpec(*specPath)
		if err != nil {
			return err
		}
		var st server.JobStatus
		req := server.SubmitRequest{Tenant: *srvTenant, Spec: spec, Async: *srvAsync, Optimize: *srvOptimize}
		if err := clientDo("POST", *srvURL+"/v1/pipelines", req, &st); err != nil {
			return err
		}
		return printJSON(st)
	}
	serverStatus := func() error {
		if *srvJob == "" {
			return fmt.Errorf("status needs -job ID")
		}
		method := "GET"
		if *srvCancel {
			method = "DELETE"
		}
		var st server.JobStatus
		if err := clientDo(method, *srvURL+"/v1/jobs/"+*srvJob, nil, &st); err != nil {
			return err
		}
		return printJSON(st)
	}
	serverReport := func() error {
		var rep server.TenantReport
		if err := clientDo("GET", *srvURL+"/v1/tenants/"+*srvTenant+"/report", nil, &rep); err != nil {
			return err
		}
		return printJSON(rep)
	}

	switch cmd {
	case "table1":
		run("Table 1: sorting 20 flavours", table1)
	case "table2":
		run("Table 2: sorting 100 words (sort then insert)", table2)
	case "table3":
		run(fmt.Sprintf("Table 3: entity resolution (%d pairs)", *pairs), table3)
	case "table4":
		run("Table 4: missing-value imputation", table4)
	case "ablate-batch":
		run("Ablation A1: grouping batch size", ablateBatch)
	case "ablate-quality":
		run("Ablation A2: quality control", ablateQuality)
	case "ablate-planner":
		run("Ablation A3: planner", ablatePlanner)
	case "ablate-repair":
		run("Ablation A4: consistency repair", ablateRepair)
	case "ablate-filter":
		run("Ablation A5: filter policies", ablateFilter)
	case "ablate-comparebatch":
		run("Ablation A6: comparisons per prompt", ablateBatchCmp)
	case "ablate-evidence":
		run("Ablation A7: evidence-based flipping", ablateEvidence)
	case "ablate-cascade":
		run("Ablation A8: model cascade", ablateCascade)
	case "ablate-templates":
		run("Ablation A9: template brittleness", ablateTemplates)
	case "pipeline":
		run("Pipeline: optimized operator DAG", runPipeline)
	case "pipeline-study":
		run("Pipeline study: naive sequential vs optimized DAG", pipelineStudy)
	case "scenario":
		// JSON output stays machine-readable: no header or timing wrapper.
		if *asJSON {
			if err := runScenario(); err != nil {
				fmt.Fprintf(os.Stderr, "declctl: scenario: %v\n", err)
				os.Exit(1)
			}
		} else {
			run("Scenario harness: standing queries under multi-turn traffic", runScenario)
		}
	case "scenario-study":
		run("Scenario study: all pre-built scenarios on the sim engine", scenarioStudy)
	case "submit":
		// JSON output stays machine-readable: no header or timing wrapper.
		if err := serverSubmit(); err != nil {
			fmt.Fprintf(os.Stderr, "declctl: submit: %v\n", err)
			os.Exit(1)
		}
	case "status":
		if err := serverStatus(); err != nil {
			fmt.Fprintf(os.Stderr, "declctl: status: %v\n", err)
			os.Exit(1)
		}
	case "report":
		if err := serverReport(); err != nil {
			fmt.Fprintf(os.Stderr, "declctl: report: %v\n", err)
			os.Exit(1)
		}
	case "cache-compact":
		run("Cache log: replay, stats, compaction", cacheCompact)
	case "all":
		run("Table 1: sorting 20 flavours", table1)
		run("Table 2: sorting 100 words (sort then insert)", table2)
		run(fmt.Sprintf("Table 3: entity resolution (%d pairs)", *pairs), table3)
		run("Table 4: missing-value imputation", table4)
		run("Ablation A1: grouping batch size", ablateBatch)
		run("Ablation A2: quality control", ablateQuality)
		run("Ablation A3: planner", ablatePlanner)
		run("Ablation A4: consistency repair", ablateRepair)
		run("Ablation A5: filter policies", ablateFilter)
		run("Ablation A6: comparisons per prompt", ablateBatchCmp)
		run("Ablation A7: evidence-based flipping", ablateEvidence)
		run("Ablation A8: model cascade", ablateCascade)
		run("Ablation A9: template brittleness", ablateTemplates)
		run("Pipeline study: naive sequential vs optimized DAG", pipelineStudy)
		run("Scenario study: all pre-built scenarios on the sim engine", scenarioStudy)
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `declctl — regenerate the paper's tables and the repo's ablations

usage: declctl <command> [flags]

commands:
  table1          Table 1: sorting 20 flavours via 3 strategies
  table2          Table 2: sorting 100 words, sort-then-insert hybrid
  table3          Table 3: entity resolution with transitivity (-pairs N)
  table4          Table 4: imputation with hybrid LLM / k-NN strategies
  ablate-batch    A1: grouping batch-size sweep
  ablate-quality  A2: quality-control policies
  ablate-planner  A3: automatic strategy selection
  ablate-repair   A4: comparison-graph repair
  ablate-filter   A5: adaptive filter policies
  ablate-comparebatch  A6: comparisons-per-prompt sweep
  ablate-evidence      A7: evidence-based edge flipping
  ablate-cascade       A8: cheap->strong model cascade
  ablate-templates     A9: comparison-template brittleness
  pipeline        run a declarative operator DAG from a JSON spec with the
                  optimizer, record streaming, shared engine, and per-stage
                  attribution (-spec file.json -model M -batch K -naive
                  -probe K measures hintless filter selectivity on a sample,
                  -materialized disables streaming,
                  -faults key=val,... injects deterministic upstream faults
                  healed by -retries N attempts, -on-record-error
                  fail|skip|quarantine picks the degraded-mode policy)
  pipeline-study  naive sequential operators vs the optimized pipeline —
                  materialized and streaming+probed — plus the
                  side-input overlap scenario (-records N -dup F -batch K)
  scenario        run one checkpointed multi-turn scenario against the
                  deterministic sim engine: standing queries with mid-run
                  ingestion, cache replays, burst load, latency shifts
                  (-name <id> to run, -list to enumerate, -json for the
                  machine-readable result)
  scenario-study  run every pre-built scenario and print the per-scenario
                  call/token/cache counters with pass verdicts
  cache-compact   replay a persistent cache log, print its record/live/byte
                  stats, and rewrite it down to live entries only
                  (-state-dir D names the directory holding cache.log)
  submit          submit a pipeline Spec to a running declserver and print
                  the job status (-server URL -tenant T -spec file.json,
                  -async returns immediately, -optimize rewrites first)
  status          poll a server job by ID, or abort it with -cancel
                  (-server URL -job ID)
  report          one tenant's server report: spend, job counters, latency
                  percentiles, cache-hit share (-server URL -tenant T)
  all             run everything

Performance is not measured here: bash benchmark/run.sh runs the
repository benchmark (see benchmark/README.md).
`)
}
