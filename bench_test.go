// Benchmarks regenerating every table of the paper's evaluation plus the
// repository's ablations (A1–A9, see README.md). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the corresponding experiment end to end through
// the declarative engine and the simulated models, reports the headline
// metric(s) via b.ReportMetric, and — under -v or on first iteration with
// the table flag — the paper-style table is printed by cmd/declctl
// instead. Table 3's full 5742-pair configuration is heavy; the benchmark
// uses a structurally identical reduced corpus and `declctl table3` runs
// the full size.
package declprompt

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/experiments"
)

// BenchmarkTable1 regenerates Table 1: sorting 20 flavours under three
// prompting strategies. Reported metrics are the Kendall Tau-b of each
// strategy.
func BenchmarkTable1(b *testing.B) {
	ctx := context.Background()
	cfg := experiments.DefaultTable1Config()
	var rows []experiments.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table1(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].KendallTau, "tau/one-prompt")
	b.ReportMetric(rows[1].KendallTau, "tau/rating")
	b.ReportMetric(rows[2].KendallTau, "tau/pairwise")
	b.ReportMetric(float64(rows[2].PromptTokens), "prompt-tokens/pairwise")
}

// BenchmarkTable2 regenerates Table 2: sorting 100 words alphabetically,
// one-prompt baseline versus the sort-then-insert hybrid, 3 trials.
func BenchmarkTable2(b *testing.B) {
	ctx := context.Background()
	cfg := experiments.DefaultTable2Config()
	var rows []experiments.Table2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table2(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	baseMean, hybridMean, missing := 0.0, 0.0, 0
	for i := 0; i < len(rows); i += 2 {
		baseMean += rows[i].Score
		hybridMean += rows[i+1].Score
		missing += rows[i].Missing
	}
	trials := float64(len(rows) / 2)
	b.ReportMetric(baseMean/trials, "tau/one-prompt")
	b.ReportMetric(hybridMean/trials, "tau/sort-then-insert")
	b.ReportMetric(float64(missing)/trials, "missing/one-prompt")
}

// BenchmarkTable3 regenerates Table 3 (entity resolution with
// transitivity over k-NN-augmented comparisons) on a reduced corpus with
// the same duplicate structure; `declctl table3` runs the paper-size
// 5742-pair slice.
func BenchmarkTable3(b *testing.B) {
	ctx := context.Background()
	cfg := experiments.DefaultTable3Config()
	cfg.Citations = dataset.CitationConfig{Entities: 250, Pairs: 900, PositiveFrac: 0.24, Seed: 7}
	var rows []experiments.Table3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table3(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].F1, "f1/baseline")
	b.ReportMetric(rows[1].F1, "f1/k1")
	b.ReportMetric(rows[2].F1, "f1/k2")
	b.ReportMetric(rows[0].Precision, "precision/baseline")
	b.ReportMetric(rows[0].Recall, "recall/baseline")
}

// BenchmarkTable4 regenerates Table 4: missing-value imputation on the
// Restaurants and Buy datasets under five LLM / non-LLM strategies.
func BenchmarkTable4(b *testing.B) {
	ctx := context.Background()
	cfg := experiments.DefaultTable4Config()
	var rows []experiments.Table4Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table4(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].RestAcc, "acc-rest/knn")
	b.ReportMetric(rows[1].RestAcc, "acc-rest/hybrid0")
	b.ReportMetric(rows[2].RestAcc, "acc-rest/llm0")
	b.ReportMetric(rows[1].BuyAcc, "acc-buy/hybrid0")
	b.ReportMetric(float64(rows[1].RestTokens)/float64(rows[2].RestTokens), "token-ratio/hybrid-vs-llm")
}

// BenchmarkAblationBatchSize regenerates ablation A1: the batch-size
// cost/quality trade-off of coarse grouping prompts.
func BenchmarkAblationBatchSize(b *testing.B) {
	ctx := context.Background()
	var rows []experiments.BatchSizeRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationBatchSize(ctx, "sim-gpt-3.5-turbo", 40, 1, []int{4, 10, 20})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].PairF1, "f1/batch4")
	b.ReportMetric(rows[len(rows)-1].PairF1, "f1/batch20")
}

// BenchmarkAblationQuality regenerates ablation A2: quality-control
// policies (single ask, majority, sequential, multi-model EM).
func BenchmarkAblationQuality(b *testing.B) {
	ctx := context.Background()
	var rows []experiments.QualityRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationQuality(ctx, "sim-cheap", 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Accuracy, "acc/single")
	b.ReportMetric(rows[len(rows)-1].Accuracy, "acc/panel-em")
}

// BenchmarkAblationPlanner regenerates ablation A3: automatic strategy
// selection across budget/accuracy targets.
func BenchmarkAblationPlanner(b *testing.B) {
	ctx := context.Background()
	var err error
	for i := 0; i < b.N; i++ {
		_, err = experiments.AblationPlanner(ctx, "sim-gpt-3.5-turbo")
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRepair regenerates ablation A4: minimum-feedback
// repair of noisy comparison graphs versus Copeland counts.
func BenchmarkAblationRepair(b *testing.B) {
	ctx := context.Background()
	var rows []experiments.RepairRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationRepair(ctx, 12)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[2].CopelandTau, "tau/cheap-copeland")
	b.ReportMetric(rows[2].RepairedTau, "tau/cheap-repaired")
}

// BenchmarkAblationFilter regenerates ablation A5: fixed versus adaptive
// (CrowdScreen-style) filter policies.
func BenchmarkAblationFilter(b *testing.B) {
	ctx := context.Background()
	var rows []experiments.FilterRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationFilter(ctx, "sim-cheap", 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].Accuracy, "acc/majority")
	b.ReportMetric(rows[2].Accuracy, "acc/sequential")
	b.ReportMetric(float64(rows[2].Asks), "asks/sequential")
}

// BenchmarkSortStrategies measures raw engine throughput per sort
// strategy on the 20-flavour workload (micro-benchmark, not a table).
func BenchmarkSortStrategies(b *testing.B) {
	ctx := context.Background()
	items := dataset.FlavorNames()
	for _, strat := range []SortStrategy{SortOnePrompt, SortRating, SortPairwise, SortHybridInsert} {
		b.Run(string(strat), func(b *testing.B) {
			engine := NewEngine(NewSimModel("sim-gpt-3.5-turbo"), WithParallelism(16))
			for i := 0; i < b.N; i++ {
				if _, err := engine.Sort(ctx, SortRequest{
					Items:     items,
					Criterion: "how chocolatey they are",
					Strategy:  strat,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHTTPRoundTrip measures the OpenAI-compatible client/server
// substrate end to end (micro-benchmark, not a table).
func BenchmarkHTTPRoundTrip(b *testing.B) {
	// The server and client live in internal packages; exercise them
	// through the facade to keep this benchmark at the public API level.
	model := NewSimModel("sim-gpt-3.5-turbo")
	engine := NewEngine(model)
	ctx := context.Background()
	b.Run("in-process-compare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Max(ctx, MaxRequest{
				Items:     []string{"triple chocolate", "lemon sorbet", "vanilla bean"},
				Criterion: "how chocolatey they are",
				Strategy:  MaxTournament,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCompareBatch regenerates ablation A6: the
// comparisons-per-prompt cost/accuracy lever.
func BenchmarkAblationCompareBatch(b *testing.B) {
	ctx := context.Background()
	var rows []experiments.CompareBatchRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationCompareBatch(ctx, "sim-gpt-3.5-turbo", []int{1, 5, 19})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].KendallTau, "tau/batch1")
	b.ReportMetric(rows[len(rows)-1].KendallTau, "tau/batch19")
	b.ReportMetric(float64(rows[len(rows)-1].PromptTokens)/float64(rows[0].PromptTokens), "token-ratio/batch19-vs-1")
}

// BenchmarkBatchedFilter measures unit-task batching on one per-item
// filter fan-out and verifies the batched decisions stay identical to the
// unbatched ones at temperature 0 (the batching contract).
func BenchmarkBatchedFilter(b *testing.B) {
	ctx := context.Background()
	items := dataset.FlavorNames()
	req := FilterRequest{Items: items, Predicate: "the flavor contains chocolate", Strategy: FilterPerItem}
	baseline, err := NewEngine(NewSimModel("sim-gpt-3.5-turbo")).Filter(ctx, req)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 4, 10} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			var res FilterResult
			for i := 0; i < b.N; i++ {
				engine := NewEngine(NewSimModel("sim-gpt-3.5-turbo"),
					WithParallelism(16), WithBatching(batch))
				res, err = engine.Filter(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				for j, keep := range res.Keep {
					if keep != baseline.Keep[j] {
						b.Fatalf("batch %d: decision %d diverges from unbatched", batch, j)
					}
				}
			}
			b.ReportMetric(float64(res.Usage.Calls), "upstream-calls")
			b.ReportMetric(float64(res.Usage.Total()), "tokens")
		})
	}
}

// BenchmarkAblationEvidence regenerates ablation A7: evidence-based
// flipping of both edge directions versus yes-only transitivity.
func BenchmarkAblationEvidence(b *testing.B) {
	ctx := context.Background()
	var rows []experiments.EvidenceRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationEvidence(ctx, "sim-gpt-3.5-turbo",
			dataset.CitationConfig{Entities: 200, Pairs: 700, PositiveFrac: 0.25, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].F1, "f1/direct")
	b.ReportMetric(rows[1].F1, "f1/transitive")
	b.ReportMetric(rows[2].F1, "f1/evidence")
}

// BenchmarkAblationCascade regenerates ablation A8: the cheap→strong
// model cascade.
func BenchmarkAblationCascade(b *testing.B) {
	ctx := context.Background()
	var rows []experiments.CascadeRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationCascade(ctx, "sim-cheap", "sim-gpt-4")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[2].Accuracy, "acc/cascade")
	b.ReportMetric(rows[2].Dollars/rows[1].Dollars, "cost-ratio/cascade-vs-strong")
}

// BenchmarkAblationTemplates regenerates ablation A9: per-model template
// brittleness and the chain-of-thought cost/accuracy trade.
func BenchmarkAblationTemplates(b *testing.B) {
	ctx := context.Background()
	var rows []experiments.TemplateRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationTemplates(ctx, []string{"sim-gpt-3.5-turbo"})
		if err != nil {
			b.Fatal(err)
		}
	}
	best, worst := 0.0, 1.0
	for _, r := range rows {
		if r.Accuracy > best {
			best = r.Accuracy
		}
		if r.Accuracy < worst {
			worst = r.Accuracy
		}
	}
	b.ReportMetric(best, "acc/best-template")
	b.ReportMetric(worst, "acc/worst-template")
}
