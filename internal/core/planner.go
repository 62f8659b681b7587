package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/prompt"
	"repro/internal/token"
)

// Candidate is one strategy the planner can profile on a validation
// workload (Section 4: "Identifying Best Prompting Strategies
// Automatically").
type Candidate struct {
	// Name identifies the strategy in the plan report.
	Name string
	// Run executes the strategy on the validation workload, returning a
	// measured accuracy in [0, 1] and the usage spent.
	Run func(ctx context.Context) (accuracy float64, usage token.Usage, err error)
	// Model prices the usage for cost projection.
	Model string
	// ScaleFactor multiplies the validation cost to estimate the cost of
	// the full workload (e.g. (N/n)² for pairwise strategies).
	ScaleFactor float64
}

// CandidateReport is the measured profile of one candidate.
type CandidateReport struct {
	Name string
	// Accuracy measured on the validation workload.
	Accuracy float64
	// ValidationCost is the dollars spent profiling.
	ValidationCost float64
	// ProjectedCost is ValidationCost × ScaleFactor: the estimated
	// full-workload cost.
	ProjectedCost float64
	// Usage is the raw validation token usage.
	Usage token.Usage
}

// Plan is the planner's decision.
type Plan struct {
	// Chosen is the selected strategy name.
	Chosen string
	// Reason explains the selection rule that fired.
	Reason string
	// Reports profiles every candidate, sorted by projected cost.
	Reports []CandidateReport
}

// PlanStrategies profiles every candidate on its validation workload and
// picks a strategy: the cheapest candidate meeting targetAccuracy within
// maxDollars; failing that, the most accurate candidate within
// maxDollars; failing that, the cheapest candidate outright.
// maxDollars <= 0 means unlimited.
func PlanStrategies(ctx context.Context, candidates []Candidate, targetAccuracy, maxDollars float64) (Plan, error) {
	if len(candidates) == 0 {
		return Plan{}, badRequestf("no candidates to plan over")
	}
	reports := make([]CandidateReport, 0, len(candidates))
	for _, c := range candidates {
		if c.ScaleFactor <= 0 {
			return Plan{}, badRequestf("candidate %q has non-positive scale factor", c.Name)
		}
		acc, usage, err := c.Run(ctx)
		if err != nil {
			return Plan{}, fmt.Errorf("profiling %q: %w", c.Name, err)
		}
		cost := token.PriceFor(c.Model).Cost(usage)
		reports = append(reports, CandidateReport{
			Name:           c.Name,
			Accuracy:       acc,
			ValidationCost: cost,
			ProjectedCost:  cost * c.ScaleFactor,
			Usage:          usage,
		})
	}
	sort.SliceStable(reports, func(i, j int) bool {
		return reports[i].ProjectedCost < reports[j].ProjectedCost
	})
	within := func(r CandidateReport) bool {
		return maxDollars <= 0 || r.ProjectedCost <= maxDollars
	}
	// Rule 1: cheapest meeting the accuracy target within budget.
	for _, r := range reports {
		if r.Accuracy >= targetAccuracy && within(r) {
			return Plan{
				Chosen:  r.Name,
				Reason:  fmt.Sprintf("cheapest strategy meeting accuracy %.2f within budget", targetAccuracy),
				Reports: reports,
			}, nil
		}
	}
	// Rule 2: most accurate within budget.
	bestIdx := -1
	for i, r := range reports {
		if within(r) && (bestIdx < 0 || r.Accuracy > reports[bestIdx].Accuracy) {
			bestIdx = i
		}
	}
	if bestIdx >= 0 {
		return Plan{
			Chosen:  reports[bestIdx].Name,
			Reason:  "no strategy meets the accuracy target; most accurate within budget",
			Reports: reports,
		}, nil
	}
	// Rule 3: cheapest outright.
	return Plan{
		Chosen:  reports[0].Name,
		Reason:  "no strategy fits the budget; cheapest overall",
		Reports: reports,
	}, nil
}

// PlanSort profiles sort strategies on a labelled validation item set
// (gold is the true ranking, best first) and selects one for a full
// workload of fullSize items.
func (e *Engine) PlanSort(ctx context.Context, validation, gold []string, criterion string,
	strategies []SortStrategy, targetAccuracy, maxDollars float64, fullSize int) (Plan, error) {
	if len(validation) < 2 {
		return Plan{}, badRequestf("need at least 2 validation items")
	}
	if fullSize < len(validation) {
		fullSize = len(validation)
	}
	n, N := float64(len(validation)), float64(fullSize)
	scaleFor := func(s SortStrategy) float64 {
		switch s {
		case SortPairwise, SortPairwiseRepaired:
			return (N * (N - 1)) / (n * (n - 1))
		case SortHybridInsert:
			// Coarse pass scales linearly; the insert pass scales with the
			// (roughly linear) number of omissions times list length.
			return (N / n) * (N / n)
		case SortRatingThenPairwise:
			return (N / n) * 1.5
		default:
			return N / n
		}
	}
	candidates := make([]Candidate, 0, len(strategies))
	for _, strat := range strategies {
		strat := strat
		candidates = append(candidates, Candidate{
			Name:        string(strat),
			Model:       e.model.Name(),
			ScaleFactor: scaleFor(strat),
			Run: func(ctx context.Context) (float64, token.Usage, error) {
				res, err := e.Sort(ctx, SortRequest{
					Items:     validation,
					Criterion: criterion,
					Strategy:  strat,
				})
				if err != nil {
					return 0, token.Usage{}, err
				}
				tau, err := metrics.KendallTauRanks(gold, res.Ranked)
				if err != nil {
					return 0, res.Usage, nil // degenerate: score as 0
				}
				// Omissions count against accuracy proportionally.
				coverage := float64(len(res.Ranked)) / float64(len(validation))
				return ((tau + 1) / 2) * coverage, res.Usage, nil
			},
		})
	}
	return PlanStrategies(ctx, candidates, targetAccuracy, maxDollars)
}

// PlanImpute holds out holdout training records as labelled queries,
// profiles the given impute strategies on them, and selects one for a
// full workload of fullSize queries. Values are compared case-folded
// (formatting drift beyond casing still counts as wrong, as in the
// paper's exact-match protocol).
func (e *Engine) PlanImpute(ctx context.Context, train []dataset.Record, targetField string,
	strategies []ImputeStrategy, holdout, examples int, targetAccuracy, maxDollars float64, fullSize int) (Plan, error) {
	if holdout <= 0 || holdout >= len(train) {
		return Plan{}, badRequestf("holdout must be in (0, len(train))")
	}
	if fullSize < holdout {
		fullSize = holdout
	}
	val := train[len(train)-holdout:]
	rest := train[:len(train)-holdout]
	gold := make([]string, len(val))
	for i, r := range val {
		gold[i], _ = r.Get(targetField)
	}
	scale := float64(fullSize) / float64(holdout)
	candidates := make([]Candidate, 0, len(strategies))
	for _, strat := range strategies {
		strat := strat
		candidates = append(candidates, Candidate{
			Name:        string(strat),
			Model:       e.model.Name(),
			ScaleFactor: scale,
			Run: func(ctx context.Context) (float64, token.Usage, error) {
				res, err := e.Impute(ctx, ImputeRequest{
					Train:       rest,
					Queries:     val,
					TargetField: targetField,
					Strategy:    strat,
					Examples:    examples,
				})
				if err != nil {
					return 0, token.Usage{}, err
				}
				correct := 0
				for i, v := range res.Values {
					if strings.EqualFold(strings.TrimSpace(v), strings.TrimSpace(gold[i])) {
						correct++
					}
				}
				return float64(correct) / float64(len(gold)), res.Usage, nil
			},
		})
	}
	return PlanStrategies(ctx, candidates, targetAccuracy, maxDollars)
}

// PlanCompareTemplate profiles every comparison-template variant (and,
// optionally, its chain-of-thought form) on pairwise comparisons derived
// from a labelled validation ranking, and picks the cheapest variant
// meeting targetAccuracy within maxDollars — the Section 4 answer to
// prompt brittleness: measure the phrasings per model instead of
// guessing. gold lists the validation items best-first.
func (e *Engine) PlanCompareTemplate(ctx context.Context, gold []string, criterion string,
	includeCoT bool, targetAccuracy, maxDollars float64, fullComparisons int) (Plan, error) {
	if len(gold) < 3 {
		return Plan{}, badRequestf("need at least 3 validation items")
	}
	type pair struct{ hi, lo int }
	var pairs []pair
	for i := 0; i < len(gold); i++ {
		for j := i + 1; j < len(gold); j++ {
			pairs = append(pairs, pair{hi: i, lo: j})
		}
	}
	if fullComparisons < len(pairs) {
		fullComparisons = len(pairs)
	}
	scale := float64(fullComparisons) / float64(len(pairs))

	var candidates []Candidate
	addCandidate := func(variant int, cot bool) {
		name := fmt.Sprintf("variant-%d", variant)
		if cot {
			name += "+cot"
		}
		candidates = append(candidates, Candidate{
			Name:        name,
			Model:       e.model.Name(),
			ScaleFactor: scale,
			Run: func(ctx context.Context) (float64, token.Usage, error) {
				s := e.newSession()
				correct := 0
				for k, p := range pairs {
					// Alternate presentation order so position bias does
					// not masquerade as accuracy.
					a, b := gold[p.hi], gold[p.lo]
					wantA := true
					if k%2 == 1 {
						a, b = b, a
						wantA = false
					}
					aWins, err := compareOnce(ctx, s.model, a, b, criterion, variant, cot)
					if err != nil {
						return 0, s.usage(), err
					}
					if aWins == wantA {
						correct++
					}
				}
				return float64(correct) / float64(len(pairs)), s.usage(), nil
			},
		})
	}
	for v := 0; v < prompt.CompareTemplateCount; v++ {
		addCandidate(v, false)
		if includeCoT {
			addCandidate(v, true)
		}
	}
	return PlanStrategies(ctx, candidates, targetAccuracy, maxDollars)
}
