package core

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/llm/sim"
)

// operatorCase is one strategy run of TestOperatorsPinned: it returns the
// operator's whole result, Usage included.
type operatorCase struct {
	name string
	run  func(e *Engine) (any, error)
}

func operatorCases() []operatorCase {
	flavors := dataset.FlavorNames()
	choc := "how chocolatey they are"
	pred := "it is a chocolatey flavor"
	corpus := dataset.GenerateCitations(dataset.CitationConfig{Entities: 40, Pairs: 120, PositiveFrac: 0.3, Seed: 5})
	ents := make([]Entity, len(corpus.Records))
	for i, c := range corpus.Records {
		ents[i] = Entity{ID: c.ID, Text: c.Text()}
	}
	pairs := make([][2]int, len(corpus.Pairs))
	for i, p := range corpus.Pairs {
		pairs[i] = [2]int{p.A, p.B}
	}
	records := ents[:14]
	sort := func(strategy SortStrategy, items []string, crit string, batch int) func(e *Engine) (any, error) {
		return func(e *Engine) (any, error) {
			return e.Sort(ctx(), SortRequest{Items: items, Criterion: crit, Strategy: strategy, CompareBatch: batch})
		}
	}
	dedupe := func(strategy DedupeStrategy) func(e *Engine) (any, error) {
		return func(e *Engine) (any, error) {
			return e.Dedupe(ctx(), DedupeRequest{Records: records, Strategy: strategy, BatchSize: 4})
		}
	}
	return []operatorCase{
		{"max/tournament", func(e *Engine) (any, error) {
			return e.Max(ctx(), MaxRequest{Items: flavors[:12], Criterion: choc, Strategy: MaxTournament})
		}},
		{"max/rating-then-tournament", func(e *Engine) (any, error) {
			return e.Max(ctx(), MaxRequest{Items: flavors, Criterion: choc, Strategy: MaxRatingThenTournament})
		}},
		{"count/eyeball", func(e *Engine) (any, error) {
			return e.Count(ctx(), CountRequest{Items: flavors, Predicate: pred, Strategy: CountEyeball, BatchSize: 6})
		}},
		{"count/per-item", func(e *Engine) (any, error) {
			return e.Count(ctx(), CountRequest{Items: flavors, Predicate: pred, Strategy: CountPerItem})
		}},
		{"find/scan", func(e *Engine) (any, error) {
			return e.Find(ctx(), FindRequest{Items: flavors, Description: pred, Strategy: FindScan, Limit: 8})
		}},
		{"find/embed-first", func(e *Engine) (any, error) {
			return e.Find(ctx(), FindRequest{Items: flavors, Description: pred, Strategy: FindEmbedFirst, Limit: 3})
		}},
		{"resolve/blocked-direct", func(e *Engine) (any, error) {
			return e.ResolvePairs(ctx(), PairsRequest{Corpus: ents, Pairs: pairs, Strategy: ResolveBlockedDirect, BlockDistance: 0.9})
		}},
		{"dedupe/pairwise", dedupe(DedupePairwise)},
		{"dedupe/blocked-pairwise", dedupe(DedupeBlockedPairwise)},
		{"dedupe/group-batch", dedupe(DedupeGroupBatch)},
		{"sort/pairwise", sort(SortPairwise, flavors[:12], choc, 1)},
		{"sort/pairwise-batch-5", sort(SortPairwise, flavors[:12], choc, 5)},
		{"sort/pairwise-repaired", sort(SortPairwiseRepaired, flavors[:12], choc, 1)},
		// Claude-2 omits words from a long one-prompt list, so the insert
		// phase runs.
		{"sort/hybrid-insert", func(e *Engine) (any, error) {
			claude := New(sim.NewNamed("sim-claude-2"), WithParallelism(e.parallelism))
			return sort(SortHybridInsert, dataset.RandomWords(60, 5), "alphabetical order", 1)(claude)
		}},
		{"sort/rating-then-pairwise", sort(SortRatingThenPairwise, flavors, choc, 1)},
	}
}

// TestOperatorsPinned pins the result and Usage of the strategies whose
// unit-task fan-outs the paper tables do not reach, on the stock sim
// model, at Parallelism 1 and 8: both must give these exact values.
func TestOperatorsPinned(t *testing.T) {
	for _, c := range operatorCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, p := range []int{1, 8} {
				res, err := c.run(newEngine(t, "sim-gpt-3.5-turbo", WithParallelism(p)))
				if err != nil {
					t.Fatalf("parallelism %d: %v", p, err)
				}
				if got := fmt.Sprintf("%+v", res); got != wantOperators[c.name] {
					t.Errorf("parallelism %d:\n got  %s\n want %s", p, got, wantOperators[c.name])
				}
			}
		})
	}
}

var wantOperators = map[string]string{
	"max/tournament":             "{Item:chocolate chip cookie dough Finalists:[brownie batter butter pecan chocolate chip cookie dough chocolate fudge brownie chocolate hazelnut swirl cookies and cream dark chocolate orange green tea lemon sorbet mint chocolate chip mocha almond fudge peach cobbler] Usage:{PromptTokens:3597 CompletionTokens:585 Calls:66}}",
	"max/rating-then-tournament": "{Item:chocolate hazelnut swirl Finalists:[brownie batter chocolate fudge brownie chocolate hazelnut swirl cookies and cream dark chocolate orange mocha almond fudge rocky road triple chocolate] Usage:{PromptTokens:2447 CompletionTokens:234 Calls:48}}",
	"count/eyeball":              "{Count:9 Fraction:0.426 Usage:{PromptTokens:306 CompletionTokens:60 Calls:4}}",
	"count/per-item":             "{Count:10 Fraction:0.5 Usage:{PromptTokens:694 CompletionTokens:75 Calls:20}}",
	"find/scan":                  "{Matches:[brownie batter chocolate chip cookie dough chocolate fudge brownie chocolate hazelnut swirl cookies and cream dark chocolate orange mint chocolate chip mocha almond fudge] Checked:20 Usage:{PromptTokens:694 CompletionTokens:75 Calls:20}}",
	"find/embed-first":           "{Matches:[triple chocolate mint chocolate chip chocolate chip cookie dough] Checked:3 Usage:{PromptTokens:108 CompletionTokens:3 Calls:3}}",
	"resolve/blocked-direct":     "{Match:[false false false false false false false false false false false true false false true true false false false true false false true false false false false false false true true false true false false true false false false false false false false false false false false true false false true false false false false false false false false false false false true false false false true false false false false false false false false true false true true false true false false false false false false false false false false false false false true false false true false false false false true false false false false false true true false false false true false false false false false false] LLMComparisons:34 FlippedByTransitivity:0 FlippedToNo:0 SkippedByBlocking:86 Usage:{PromptTokens:3362 CompletionTokens:165 Calls:34}}",
	"dedupe/pairwise":            "{Groups:[[cit-0000-0 cit-0000-1] [cit-0001-0 cit-0001-1 cit-0001-2 cit-0001-3] [cit-0002-0] [cit-0003-0] [cit-0004-0] [cit-0005-0 cit-0005-1] [cit-0006-0] [cit-0007-0] [cit-0008-0]] LLMComparisons:91 Usage:{PromptTokens:9087 CompletionTokens:270 Calls:91}}",
	"dedupe/blocked-pairwise":    "{Groups:[[cit-0000-0 cit-0000-1] [cit-0001-0 cit-0001-1 cit-0001-2 cit-0001-3] [cit-0002-0] [cit-0003-0] [cit-0004-0] [cit-0005-0 cit-0005-1] [cit-0006-0] [cit-0007-0] [cit-0008-0]] LLMComparisons:10 Usage:{PromptTokens:1006 CompletionTokens:24 Calls:10}}",
	"dedupe/group-batch":         "{Groups:[[cit-0000-0 cit-0000-1] [cit-0001-0 cit-0001-1 cit-0001-2 cit-0001-3] [cit-0002-0] [cit-0003-0] [cit-0004-0] [cit-0005-0 cit-0005-1] [cit-0006-0] [cit-0007-0] [cit-0008-0]] LLMComparisons:0 Usage:{PromptTokens:1117 CompletionTokens:108 Calls:6}}",
	"sort/pairwise":              "{Ranked:[chocolate chip cookie dough brownie batter chocolate fudge brownie chocolate hazelnut swirl dark chocolate orange mocha almond fudge cookies and cream butter pecan mint chocolate chip green tea peach cobbler lemon sorbet] Missing:0 Hallucinated:0 Usage:{PromptTokens:3597 CompletionTokens:585 Calls:66}}",
	"sort/pairwise-batch-5":      "{Ranked:[chocolate fudge brownie chocolate chip cookie dough chocolate hazelnut swirl dark chocolate orange butter pecan brownie batter cookies and cream mocha almond fudge mint chocolate chip green tea lemon sorbet peach cobbler] Missing:0 Hallucinated:0 Usage:{PromptTokens:2251 CompletionTokens:262 Calls:17}}",
	"sort/pairwise-repaired":     "{Ranked:[chocolate chip cookie dough chocolate fudge brownie chocolate hazelnut swirl brownie batter dark chocolate orange mocha almond fudge cookies and cream green tea mint chocolate chip butter pecan peach cobbler lemon sorbet] Missing:0 Hallucinated:0 Usage:{PromptTokens:3597 CompletionTokens:585 Calls:66}}",
	"sort/hybrid-insert":         "{Ranked:[adjust attic bubble canyon carve combine deed depend during earth edge educate embark emerge exclude excuse finance firefly fountain future giant guide hammer hazard install into lunch lyric marine melody minute myself neighbor notable nurse orchard parent period polish prize present reach rescue retain romance scrap shelter similar solve squirrel sugar talent team throne trim twist unit widget width wild] Missing:0 Hallucinated:2 Usage:{PromptTokens:16587 CompletionTokens:4018 Calls:349}}",
	"sort/rating-then-pairwise":  "{Ranked:[brownie batter cookies and cream chocolate fudge brownie chocolate hazelnut swirl dark chocolate orange triple chocolate mocha almond fudge rocky road chocolate chip cookie dough butter pecan salted caramel mint chocolate chip tiramisu green tea pistachio vanilla bean lemon sorbet raspberry ripple strawberry cheesecake peach cobbler] Missing:0 Hallucinated:0 Usage:{PromptTokens:2319 CompletionTokens:265 Calls:46}}",
}
