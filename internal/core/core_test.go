package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/llm/sim"
	"repro/internal/metrics"
	"repro/internal/token"
	"repro/internal/workflow"
)

func newEngine(t *testing.T, model string, opts ...Option) *Engine {
	t.Helper()
	return New(sim.NewNamed(model), opts...)
}

func ctx() context.Context { return context.Background() }

func TestSortValidation(t *testing.T) {
	e := newEngine(t, "sim-gpt-3.5-turbo")
	if _, err := e.Sort(ctx(), SortRequest{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty items: %v", err)
	}
	if _, err := e.Sort(ctx(), SortRequest{Items: []string{"a", "a"}, Criterion: "x"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("duplicate items: %v", err)
	}
	if _, err := e.Sort(ctx(), SortRequest{Items: []string{"a", "b"}, Criterion: "x", Strategy: "nope"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown strategy: %v", err)
	}
}

func TestSortStrategiesAccuracyOrdering(t *testing.T) {
	// The headline Table 1 shape: pairwise > rating >= one-prompt in
	// accuracy; pairwise costs the most tokens.
	e := newEngine(t, "sim-gpt-3.5-turbo")
	items := dataset.FlavorNames()
	gold := dataset.FlavorGroundTruth()
	crit := "how chocolatey they are"

	tau := map[SortStrategy]float64{}
	usage := map[SortStrategy]int{}
	for _, strat := range []SortStrategy{SortOnePrompt, SortRating, SortPairwise} {
		res, err := e.Sort(ctx(), SortRequest{Items: items, Criterion: crit, Strategy: strat})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		k, err := metrics.KendallTauRanks(gold, res.Ranked)
		if err != nil {
			t.Fatalf("%s tau: %v", strat, err)
		}
		tau[strat] = k
		usage[strat] = res.Usage.Total()
	}
	if tau[SortPairwise] <= tau[SortOnePrompt] {
		t.Errorf("pairwise (%.3f) should beat one-prompt (%.3f)", tau[SortPairwise], tau[SortOnePrompt])
	}
	if usage[SortPairwise] <= usage[SortRating] || usage[SortRating] <= usage[SortOnePrompt] {
		t.Errorf("cost ordering violated: %v", usage)
	}
}

func TestSortHybridInsertRecoversAllItems(t *testing.T) {
	e := newEngine(t, "sim-claude-2")
	words := dataset.RandomWords(60, 5)
	res, err := e.Sort(ctx(), SortRequest{
		Items:     words,
		Criterion: "alphabetical order",
		Strategy:  SortHybridInsert,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Missing != 0 {
		t.Fatalf("hybrid insert left %d items missing", res.Missing)
	}
	if len(res.Ranked) != len(words) {
		t.Fatalf("ranked %d of %d items", len(res.Ranked), len(words))
	}
	tau, err := metrics.KendallTauRanks(sortedCopy(words), res.Ranked)
	if err != nil {
		t.Fatal(err)
	}
	if tau < 0.95 {
		t.Fatalf("hybrid insert tau = %.3f, want near-perfect", tau)
	}
}

func sortedCopy(ws []string) []string {
	out := append([]string(nil), ws...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestSortPairwiseRepairedAtLeastAsConsistent(t *testing.T) {
	e := newEngine(t, "sim-gpt-3.5-turbo")
	items := dataset.FlavorNames()[:12]
	gold := make([]string, 0, 12)
	for _, f := range dataset.FlavorGroundTruth() {
		for _, it := range items {
			if f == it {
				gold = append(gold, f)
			}
		}
	}
	plain, err := e.Sort(ctx(), SortRequest{Items: items, Criterion: "how chocolatey they are", Strategy: SortPairwise})
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := e.Sort(ctx(), SortRequest{Items: items, Criterion: "how chocolatey they are", Strategy: SortPairwiseRepaired})
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := metrics.KendallTauRanks(gold, plain.Ranked)
	tr, _ := metrics.KendallTauRanks(gold, repaired.Ranked)
	// Repair optimises consistency with the observed comparisons; on
	// average it should not be materially worse than Copeland.
	if tr < tp-0.25 {
		t.Fatalf("repaired tau %.3f far below copeland tau %.3f", tr, tp)
	}
}

func TestSortDeterminism(t *testing.T) {
	e := newEngine(t, "sim-gpt-3.5-turbo")
	req := SortRequest{Items: dataset.FlavorNames(), Criterion: "how chocolatey they are", Strategy: SortRating}
	a, err := e.Sort(ctx(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Sort(ctx(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Ranked {
		if a.Ranked[i] != b.Ranked[i] {
			t.Fatal("sort is not deterministic")
		}
	}
}

func TestSortBudgetExhaustion(t *testing.T) {
	b := workflow.NewBudget(0, 0, 10) // only 10 calls
	e := newEngine(t, "sim-gpt-3.5-turbo", WithBudget(b), WithParallelism(1))
	_, err := e.Sort(ctx(), SortRequest{
		Items:     dataset.FlavorNames(),
		Criterion: "how chocolatey they are",
		Strategy:  SortPairwise, // needs 190 calls
	})
	if !errors.Is(err, workflow.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
}

func TestResolvePairsDirectVsTransitive(t *testing.T) {
	corpus := dataset.GenerateCitations(dataset.CitationConfig{
		Entities: 120, Pairs: 300, PositiveFrac: 0.3, Seed: 3,
	})
	ents := make([]Entity, len(corpus.Records))
	for i, c := range corpus.Records {
		ents[i] = Entity{ID: c.ID, Text: c.Text()}
	}
	pairs := make([][2]int, len(corpus.Pairs))
	gold := make([]bool, len(corpus.Pairs))
	for i, p := range corpus.Pairs {
		pairs[i] = [2]int{p.A, p.B}
		gold[i] = p.Match
	}
	e := newEngine(t, "sim-gpt-3.5-turbo", WithParallelism(16))

	score := func(match []bool) metrics.Confusion {
		var c metrics.Confusion
		for i, m := range match {
			c.Observe(m, gold[i])
		}
		return c
	}
	direct, err := e.ResolvePairs(ctx(), PairsRequest{Corpus: ents, Pairs: pairs, Strategy: ResolveDirect})
	if err != nil {
		t.Fatal(err)
	}
	trans, err := e.ResolvePairs(ctx(), PairsRequest{Corpus: ents, Pairs: pairs, Strategy: ResolveTransitive, Neighbors: 2})
	if err != nil {
		t.Fatal(err)
	}
	cd, ct := score(direct.Match), score(trans.Match)
	if cd.Precision() < 0.85 {
		t.Errorf("direct precision = %.3f, want high", cd.Precision())
	}
	if ct.Recall() <= cd.Recall() {
		t.Errorf("transitive recall (%.3f) should beat direct (%.3f)", ct.Recall(), cd.Recall())
	}
	if ct.F1() <= cd.F1() {
		t.Errorf("transitive F1 (%.3f) should beat direct (%.3f)", ct.F1(), cd.F1())
	}
	if trans.FlippedByTransitivity == 0 {
		t.Error("transitive strategy flipped nothing")
	}
	if trans.LLMComparisons <= direct.LLMComparisons {
		t.Error("transitive strategy should cost more comparisons")
	}
}

func TestResolveValidation(t *testing.T) {
	e := newEngine(t, "sim-gpt-3.5-turbo")
	if _, err := e.ResolvePairs(ctx(), PairsRequest{}); !errors.Is(err, ErrBadRequest) {
		t.Fatal("empty request should fail")
	}
	ents := []Entity{{ID: "a", Text: "x"}, {ID: "b", Text: "y"}}
	if _, err := e.ResolvePairs(ctx(), PairsRequest{Corpus: ents, Pairs: [][2]int{{0, 5}}}); !errors.Is(err, ErrBadRequest) {
		t.Fatal("out-of-range pair should fail")
	}
	if _, err := e.ResolvePairs(ctx(), PairsRequest{Corpus: ents, Pairs: [][2]int{{0, 1}}, Strategy: "zzz"}); !errors.Is(err, ErrBadRequest) {
		t.Fatal("unknown strategy should fail")
	}
}

func TestResolveBlockedSkipsDistantPairs(t *testing.T) {
	ents := []Entity{
		{ID: "a1", Text: "J. Wang. indexing moving objects efficiently. SIGMOD, 2002"},
		{ID: "a2", Text: "J. Wang. indexing moving objcts efficiently. SIGMOD Conference, 2002"},
		{ID: "b", Text: "completely unrelated quantum physics paper by another author, 1999"},
	}
	e := newEngine(t, "sim-gpt-3.5-turbo")
	res, err := e.ResolvePairs(ctx(), PairsRequest{
		Corpus:        ents,
		Pairs:         [][2]int{{0, 1}, {0, 2}},
		Strategy:      ResolveBlockedDirect,
		BlockDistance: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match[0] {
		t.Error("near-duplicates should match")
	}
	if res.Match[1] {
		t.Error("unrelated pair should not match")
	}
	if res.SkippedByBlocking != 1 {
		t.Errorf("skipped = %d, want 1", res.SkippedByBlocking)
	}
	if res.LLMComparisons != 1 {
		t.Errorf("comparisons = %d, want 1", res.LLMComparisons)
	}
}

func TestDedupeStrategies(t *testing.T) {
	// Three entities: one with 3 copies, one with 2, one singleton.
	ents := []Entity{
		{ID: "a1", Text: "J. Wang. indexing the positions of moving objects. SIGMOD, 2002"},
		{ID: "a2", Text: "J. Wang. indexing the positions of moving objcts. SIGMOD Conference, 2002"},
		{ID: "a3", Text: "J. Wang. indexing the positions of moving objects. Proc. SIGMOD, 2002"},
		{ID: "b1", Text: "K. Patel. robust federated learning at scale. KDD, 2015"},
		{ID: "b2", Text: "K. Patel. robust federated learning at scale. SIGKDD, 2015"},
		{ID: "c1", Text: "M. Rossi. query optimization for streaming joins. VLDB, 2008"},
	}
	e := newEngine(t, "sim-gpt-4")
	for _, strat := range []DedupeStrategy{DedupePairwise, DedupeBlockedPairwise, DedupeGroupBatch} {
		res, err := e.Dedupe(ctx(), DedupeRequest{Records: ents, Strategy: strat, BatchSize: 4})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if len(res.Groups) != 3 {
			t.Errorf("%s: groups = %v, want 3 groups", strat, res.Groups)
		}
	}
	// Blocking should reduce comparisons versus full pairwise.
	full, _ := e.Dedupe(ctx(), DedupeRequest{Records: ents, Strategy: DedupePairwise})
	blocked, _ := e.Dedupe(ctx(), DedupeRequest{Records: ents, Strategy: DedupeBlockedPairwise})
	if blocked.LLMComparisons >= full.LLMComparisons {
		t.Errorf("blocked comparisons (%d) should be below full (%d)", blocked.LLMComparisons, full.LLMComparisons)
	}
}

func TestImputeStrategies(t *testing.T) {
	d := dataset.GenerateRestaurants(200, 40, 9)
	e := newEngine(t, "sim-claude", WithParallelism(16))
	gold := d.Gold()

	accuracyOf := func(values []string) float64 {
		correct := 0
		for i, v := range values {
			if equalsFold(v, gold[i]) {
				correct++
			}
		}
		return float64(correct) / float64(len(gold))
	}
	knn, err := e.Impute(ctx(), ImputeRequest{Train: d.Train, Queries: d.Test, TargetField: "city", Strategy: ImputeKNN})
	if err != nil {
		t.Fatal(err)
	}
	if knn.LLMCalls != 0 || !knn.Usage.IsZero() {
		t.Fatal("knn strategy must not touch the model")
	}
	hybrid, err := e.Impute(ctx(), ImputeRequest{Train: d.Train, Queries: d.Test, TargetField: "city", Strategy: ImputeHybrid, Examples: 3})
	if err != nil {
		t.Fatal(err)
	}
	llmOnly, err := e.Impute(ctx(), ImputeRequest{Train: d.Train, Queries: d.Test, TargetField: "city", Strategy: ImputeLLM, Examples: 3})
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.LLMCalls >= llmOnly.LLMCalls {
		t.Errorf("hybrid calls (%d) should undercut llm-only (%d)", hybrid.LLMCalls, llmOnly.LLMCalls)
	}
	if hybrid.Usage.Total() >= llmOnly.Usage.Total() {
		t.Errorf("hybrid tokens (%d) should undercut llm-only (%d)", hybrid.Usage.Total(), llmOnly.Usage.Total())
	}
	aKNN, aHybrid, aLLM := accuracyOf(knn.Values), accuracyOf(hybrid.Values), accuracyOf(llmOnly.Values)
	if aHybrid < aKNN {
		t.Errorf("hybrid accuracy (%.3f) below knn (%.3f)", aHybrid, aKNN)
	}
	if aHybrid < aLLM-0.05 {
		t.Errorf("hybrid accuracy (%.3f) should approximately match llm-only (%.3f)", aHybrid, aLLM)
	}
}

func equalsFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

func TestImputeValidation(t *testing.T) {
	e := newEngine(t, "sim-claude")
	if _, err := e.Impute(ctx(), ImputeRequest{}); !errors.Is(err, ErrBadRequest) {
		t.Fatal("empty request should fail")
	}
	q := dataset.Record{ID: "q", Fields: []dataset.Field{{Name: "a", Value: "1"}}}
	if _, err := e.Impute(ctx(), ImputeRequest{Queries: []dataset.Record{q}, TargetField: "x", Strategy: ImputeKNN}); !errors.Is(err, ErrBadRequest) {
		t.Fatal("knn without train should fail")
	}
}

func TestFilterStrategies(t *testing.T) {
	e := newEngine(t, "sim-gpt-3.5-turbo")
	items := dataset.FlavorNames()
	pred := "it is a chocolatey flavor"
	for _, strat := range []FilterStrategy{FilterPerItem, FilterMajority, FilterSequential} {
		res, err := e.Filter(ctx(), FilterRequest{Items: items, Predicate: pred, Strategy: strat})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		kept := 0
		for _, k := range res.Keep {
			if k {
				kept++
			}
		}
		// True positives are 10 of 20; allow noise.
		if kept < 5 || kept > 15 {
			t.Errorf("%s kept %d of 20", strat, kept)
		}
		if res.Asks == 0 {
			t.Errorf("%s reported zero asks", strat)
		}
	}
	// Sequential must ask at least as much as per-item but is adaptive.
	seq, _ := e.Filter(ctx(), FilterRequest{Items: items, Predicate: pred, Strategy: FilterSequential})
	maj, _ := e.Filter(ctx(), FilterRequest{Items: items, Predicate: pred, Strategy: FilterMajority, Votes: 7})
	if seq.Asks >= maj.Asks {
		t.Errorf("sequential asks (%d) should undercut fixed-7 majority (%d)", seq.Asks, maj.Asks)
	}
}

func TestCountStrategies(t *testing.T) {
	e := newEngine(t, "sim-gpt-3.5-turbo")
	items := dataset.FlavorNames()
	pred := "it is a chocolatey flavor"
	eye, err := e.Count(ctx(), CountRequest{Items: items, Predicate: pred, Strategy: CountEyeball})
	if err != nil {
		t.Fatal(err)
	}
	per, err := e.Count(ctx(), CountRequest{Items: items, Predicate: pred, Strategy: CountPerItem})
	if err != nil {
		t.Fatal(err)
	}
	// True count is 10.
	if eye.Count < 4 || eye.Count > 16 {
		t.Errorf("eyeball count = %d", eye.Count)
	}
	if per.Count < 6 || per.Count > 14 {
		t.Errorf("per-item count = %d", per.Count)
	}
	if eye.Usage.Total() >= per.Usage.Total() {
		t.Errorf("eyeball tokens (%d) should undercut per-item (%d)", eye.Usage.Total(), per.Usage.Total())
	}
}

// TestNegativeBatchSizeRefused checks that a negative batch size is a bad
// request, not a slice-bounds panic, for both strategies that cut batches.
func TestNegativeBatchSizeRefused(t *testing.T) {
	e := newEngine(t, "sim-gpt-3.5-turbo")
	_, err := e.Count(ctx(), CountRequest{Items: dataset.FlavorNames(), Predicate: "it is sweet", Strategy: CountEyeball, BatchSize: -2})
	if !errors.Is(err, ErrBadRequest) {
		t.Errorf("eyeball count at batch size -2: %v, want ErrBadRequest", err)
	}
	recs := []Entity{{ID: "a", Text: "x"}, {ID: "b", Text: "y"}, {ID: "c", Text: "z"}}
	_, err = e.Dedupe(ctx(), DedupeRequest{Records: recs, Strategy: DedupeGroupBatch, BatchSize: -2})
	if !errors.Is(err, ErrBadRequest) {
		t.Errorf("group-batch dedupe at batch size -2: %v, want ErrBadRequest", err)
	}
}

func TestMaxStrategies(t *testing.T) {
	e := newEngine(t, "sim-gpt-3.5-turbo")
	items := dataset.FlavorNames()
	crit := "how chocolatey they are"
	tour, err := e.Max(ctx(), MaxRequest{Items: items, Criterion: crit, Strategy: MaxTournament})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := e.Max(ctx(), MaxRequest{Items: items, Criterion: crit, Strategy: MaxRatingThenTournament})
	if err != nil {
		t.Fatal(err)
	}
	// The four most chocolatey flavours score within 0.12 of the maximum;
	// comparison noise makes them legitimately hard to separate, so any
	// of them is an acceptable consensus winner.
	topBand := map[string]bool{}
	for _, f := range dataset.FlavorGroundTruth()[:4] {
		topBand[f] = true
	}
	if !topBand[tour.Item] {
		t.Errorf("tournament max = %q, want a top-band flavour", tour.Item)
	}
	if !topBand[hybrid.Item] {
		t.Errorf("hybrid max = %q, want a top-band flavour", hybrid.Item)
	}
	if hybrid.Usage.Total() >= tour.Usage.Total() {
		t.Errorf("hybrid tokens (%d) should undercut tournament (%d)", hybrid.Usage.Total(), tour.Usage.Total())
	}
	if len(hybrid.Finalists) >= len(items) {
		t.Errorf("hybrid finalists = %d, want a reduced pool", len(hybrid.Finalists))
	}
	if _, err := e.Max(ctx(), MaxRequest{Items: []string{"only"}}); err != nil {
		t.Fatal("single item max should trivially succeed")
	}
}

func TestCategorizeDirect(t *testing.T) {
	e := newEngine(t, "sim-gpt-4")
	res, err := e.Categorize(ctx(), CategorizeRequest{
		Items:      []string{"chocolate fudge brownie", "lemon sorbet"},
		Categories: []string{"chocolate desserts", "fruit desserts"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignments[0] != "chocolate desserts" {
		t.Errorf("assignment[0] = %q", res.Assignments[0])
	}
	if res.Assignments[1] != "fruit desserts" {
		t.Errorf("assignment[1] = %q", res.Assignments[1])
	}
}

func TestCategorizeTwoPhase(t *testing.T) {
	e := newEngine(t, "sim-gpt-4")
	res, err := e.Categorize(ctx(), CategorizeRequest{
		Items:    []string{"red apple", "green apple", "blue car", "fast car"},
		Strategy: CategorizeTwoPhase,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Categories) == 0 {
		t.Fatal("no categories discovered")
	}
	for i, a := range res.Assignments {
		found := false
		for _, c := range res.Categories {
			if a == c {
				found = true
			}
		}
		if !found {
			t.Errorf("assignment %d = %q outside scheme %v", i, a, res.Categories)
		}
	}
}

func TestJoinStrategies(t *testing.T) {
	left := []Entity{
		{ID: "l1", Text: "J. Wang. indexing the positions of moving objects. SIGMOD, 2002"},
		{ID: "l2", Text: "K. Patel. robust federated learning at scale. KDD, 2015"},
		{ID: "l3", Text: "M. Rossi. query optimization for streaming joins. VLDB, 2008"},
	}
	right := []Entity{
		{ID: "r1", Text: "J. Wang. indexing the positions of moving objcts. SIGMOD Conference, 2002"},
		{ID: "r2", Text: "K. Patel. robust federated learning at scale. SIGKDD, 2015"},
		{ID: "r3", Text: "A. Kim. neural architecture search in practice. ICML, 2019"},
	}
	e := newEngine(t, "sim-gpt-4")
	nested, err := e.Join(ctx(), JoinRequest{Left: left, Right: right, Strategy: JoinNestedLoop})
	if err != nil {
		t.Fatal(err)
	}
	trans, err := e.Join(ctx(), JoinRequest{Left: left, Right: right, Strategy: JoinTransitive, CandidateDistance: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := map[JoinPair]bool{
		{LeftID: "l1", RightID: "r1"}: true,
		{LeftID: "l2", RightID: "r2"}: true,
	}
	for _, res := range []JoinResult{nested, trans} {
		if len(res.Matches) != 2 {
			t.Fatalf("matches = %v", res.Matches)
		}
		for _, m := range res.Matches {
			if !wantPairs[m] {
				t.Fatalf("unexpected match %v", m)
			}
		}
	}
	if trans.LLMComparisons >= nested.LLMComparisons {
		t.Errorf("transitive comparisons (%d) should undercut nested loop (%d)",
			trans.LLMComparisons, nested.LLMComparisons)
	}
	// Duplicate IDs across sides are rejected.
	if _, err := e.Join(ctx(), JoinRequest{Left: left, Right: left}); !errors.Is(err, ErrBadRequest) {
		t.Fatal("duplicate IDs should fail")
	}
}

func TestPlanSortPicksCheapestMeetingTarget(t *testing.T) {
	e := newEngine(t, "sim-gpt-3.5-turbo")
	val := dataset.FlavorNames()[:10]
	gold := make([]string, 0, 10)
	for _, f := range dataset.FlavorGroundTruth() {
		for _, v := range val {
			if f == v {
				gold = append(gold, f)
			}
		}
	}
	plan, err := e.PlanSort(ctx(), val, gold, "how chocolatey they are",
		[]SortStrategy{SortOnePrompt, SortRating, SortPairwise}, 0.80, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Reports) != 3 {
		t.Fatalf("reports = %d", len(plan.Reports))
	}
	// Reports must be sorted by projected cost.
	for i := 1; i < len(plan.Reports); i++ {
		if plan.Reports[i].ProjectedCost < plan.Reports[i-1].ProjectedCost {
			t.Fatal("reports not sorted by projected cost")
		}
	}
	// The chosen strategy must meet the target if any does.
	var metTarget bool
	for _, r := range plan.Reports {
		if r.Accuracy >= 0.80 {
			metTarget = true
		}
	}
	if metTarget {
		for _, r := range plan.Reports {
			if r.Name == plan.Chosen && r.Accuracy < 0.80 {
				t.Fatalf("chose %q with accuracy %.2f below target", plan.Chosen, r.Accuracy)
			}
		}
	}
}

// candidateFixed returns a Candidate reporting a fixed accuracy and a
// usage whose projected cost is approximately dollars.
func candidateFixed(name string, acc, dollars float64) Candidate {
	// sim-gpt-3.5-turbo input price is $0.0015 per 1K prompt tokens.
	tokens := int(dollars / 0.0015 * 1000)
	return Candidate{
		Name:        name,
		Model:       "sim-gpt-3.5-turbo",
		ScaleFactor: 1,
		Run: func(ctx context.Context) (float64, token.Usage, error) {
			return acc, token.Usage{PromptTokens: tokens}, nil
		},
	}
}

func TestPlanStrategiesRules(t *testing.T) {
	// Rule 2: nothing meets target; most accurate within budget wins.
	cands := []Candidate{
		candidateFixed("cheap", 0.5, 0.01),
		candidateFixed("mid", 0.7, 1.0),
		candidateFixed("pricey", 0.9, 10000),
	}
	plan, err := PlanStrategies(ctx(), cands, 0.95, 10)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen != "mid" {
		t.Fatalf("chose %q, want mid (most accurate within budget)", plan.Chosen)
	}
	// Rule 1: pricey meets a 0.85 target with a big enough budget.
	plan, err = PlanStrategies(ctx(), cands, 0.85, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen != "pricey" {
		t.Fatalf("chose %q, want pricey", plan.Chosen)
	}
	// Rule 3: nothing within budget; cheapest overall.
	plan, err = PlanStrategies(ctx(), cands, 0.95, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen != "cheap" {
		t.Fatalf("chose %q, want cheap", plan.Chosen)
	}
	if _, err := PlanStrategies(ctx(), nil, 0.5, 0); !errors.Is(err, ErrBadRequest) {
		t.Fatal("empty candidates should fail")
	}
}

func TestPlanImpute(t *testing.T) {
	d := dataset.GenerateRestaurants(120, 10, 4)
	e := newEngine(t, "sim-claude", WithParallelism(16))
	plan, err := e.PlanImpute(ctx(), d.Train, "city",
		[]ImputeStrategy{ImputeKNN, ImputeHybrid, ImputeLLM}, 30, 3, 0.80, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Reports) != 3 {
		t.Fatalf("reports = %d", len(plan.Reports))
	}
	// KNN profiles at zero cost; it must appear first in the cost order.
	if plan.Reports[0].Name != string(ImputeKNN) {
		t.Fatalf("cheapest = %q, want knn", plan.Reports[0].Name)
	}
}
