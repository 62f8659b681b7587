package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// paperTableRows runs Tables 1–4 and ablations A1–A9 with the configs and
// arguments of the TestTable*Shape and TestAblation* tests and renders
// every row with %+v, one line each, so floats print at full precision.
func paperTableRows(t *testing.T) []string {
	t.Helper()
	var lines []string
	add := func(name string, rows any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v := reflect.ValueOf(rows)
		for i := 0; i < v.Len(); i++ {
			lines = append(lines, fmt.Sprintf("%s %+v", name, v.Index(i).Interface()))
		}
	}
	c := ctx()
	t1, err := Table1(c, DefaultTable1Config())
	add("T1", t1, err)
	t2, err := Table2(c, DefaultTable2Config())
	add("T2", t2, err)
	t3, err := Table3(c, smallTable3Config())
	add("T3", t3, err)
	t4, err := Table4(c, DefaultTable4Config())
	add("T4", t4, err)
	a1, err := AblationBatchSize(c, "sim-gpt-3.5-turbo", 40, 1, []int{4, 10, 20})
	add("A1", a1, err)
	a2, err := AblationQuality(c, "sim-cheap", 5)
	add("A2", a2, err)
	a3, err := AblationPlanner(c, "sim-gpt-3.5-turbo")
	add("A3", a3, err)
	a4, err := AblationRepair(c, 12)
	add("A4", a4, err)
	a5, err := AblationFilter(c, "sim-cheap", 7)
	add("A5", a5, err)
	a6, err := AblationCompareBatch(c, "sim-gpt-3.5-turbo", []int{1, 5, 19})
	add("A6", a6, err)
	a7, err := AblationEvidence(c, "sim-gpt-3.5-turbo",
		dataset.CitationConfig{Entities: 200, Pairs: 700, PositiveFrac: 0.25, Seed: 3})
	add("A7", a7, err)
	a8, err := AblationCascade(c, "sim-cheap", "sim-gpt-4")
	add("A8", a8, err)
	a9, err := AblationTemplates(c, []string{"sim-gpt-3.5-turbo", "sim-claude"})
	add("A9", a9, err)
	return lines
}

// TestPaperTablesPinned pins every row of Tables 1–4 and ablations A1–A9
// exactly, where the shape tests only hold them to bands. A diff here
// means an operator's numbers moved — rebase the rows only with an
// explanation.
func TestPaperTablesPinned(t *testing.T) {
	got := paperTableRows(t)
	if strings.Join(got, "\n") == strings.Join(wantPaperTables, "\n") {
		return
	}
	for i := 0; i < max(len(got), len(wantPaperTables)); i++ {
		g, w := "<none>", "<none>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantPaperTables) {
			w = wantPaperTables[i]
		}
		if g != w {
			t.Errorf("row %d\n got  %s\n want %s", i, g, w)
		}
	}
}

var wantPaperTables = []string{
	"T1 {Method:Sorting in one prompt KendallTau:0.5263157894736842 PromptTokens:175 CompletionTokens:147}",
	"T1 {Method:Coarse-grained ratings KendallTau:0.5684210526315789 PromptTokens:914 CompletionTokens:70}",
	"T1 {Method:Fine-grained comparisons KendallTau:0.7473684210526316 PromptTokens:10146 CompletionTokens:1813}",
	"T2 {Trial:1 Method:Sorting in one prompt Score:0.9010101010101011 Missing:7 Hallucinated:1}",
	"T2 {Trial:1 Method:Sort then insert Score:0.9991919191919194 Missing:0 Hallucinated:0}",
	"T2 {Trial:2 Method:Sorting in one prompt Score:0.9612121212121214 Missing:4 Hallucinated:0}",
	"T2 {Trial:2 Method:Sort then insert Score:1.0000000000000002 Missing:0 Hallucinated:0}",
	"T2 {Trial:3 Method:Sorting in one prompt Score:0.9204040404040406 Missing:6 Hallucinated:0}",
	"T2 {Trial:3 Method:Sort then insert Score:0.9991919191919194 Missing:0 Hallucinated:0}",
	"T3 {Neighbors:0 F1:0.6900584795321637 Recall:0.5462962962962963 Precision:0.9365079365079365 LLMComparisons:900}",
	"T3 {Neighbors:1 F1:0.75 Recall:0.625 Precision:0.9375 LLMComparisons:3118}",
	"T3 {Neighbors:2 F1:0.75 Recall:0.625 Precision:0.9375 LLMComparisons:6593}",
	"T4 {Strategy:Naive k-NN RestAcc:0.7441860465116279 BuyAcc:0.7692307692307693 RestTokens:0 BuyTokens:0 RestCalls:0 BuyCalls:0}",
	"T4 {Strategy:Hybrid (no examples) RestAcc:0.813953488372093 BuyAcc:0.9076923076923077 RestTokens:4174 BuyTokens:2476 RestCalls:56 BuyCalls:28}",
	"T4 {Strategy:LLM-only (no examples) RestAcc:0.6511627906976745 BuyAcc:0.8153846153846154 RestTokens:6461 BuyTokens:5792 RestCalls:86 BuyCalls:65}",
	"T4 {Strategy:Hybrid (3 examples) RestAcc:0.9069767441860465 BuyAcc:0.9076923076923077 RestTokens:11054 BuyTokens:6889 RestCalls:56 BuyCalls:28}",
	"T4 {Strategy:LLM-only (3 examples) RestAcc:0.872093023255814 BuyAcc:0.9230769230769231 RestTokens:17128 BuyTokens:16176 RestCalls:86 BuyCalls:65}",
	"A1 {BatchSize:4 PairF1:0.8235294117647058 Tokens:3384}",
	"A1 {BatchSize:10 PairF1:0.8571428571428571 Tokens:2479}",
	"A1 {BatchSize:20 PairF1:0.8235294117647058 Tokens:2108}",
	"A2 {Policy:single ask Accuracy:0.95 Asks:20}",
	"A2 {Policy:majority of 5 Accuracy:1 Asks:100}",
	"A2 {Policy:sequential margin-2 Accuracy:1 Asks:49}",
	"A2 {Policy:5-model panel + EM Accuracy:1 Asks:100}",
	"A3 {TargetAccuracy:0.6 BudgetDollars:0.0005 Chosen:one-prompt Reason:no strategy fits the budget; cheapest overall}",
	"A3 {TargetAccuracy:0.6 BudgetDollars:1 Chosen:one-prompt Reason:cheapest strategy meeting accuracy 0.60 within budget}",
	"A3 {TargetAccuracy:0.8 BudgetDollars:0.0005 Chosen:one-prompt Reason:no strategy fits the budget; cheapest overall}",
	"A3 {TargetAccuracy:0.8 BudgetDollars:1 Chosen:pairwise Reason:cheapest strategy meeting accuracy 0.80 within budget}",
	"A3 {TargetAccuracy:0.95 BudgetDollars:1 Chosen:pairwise Reason:no strategy meets the accuracy target; most accurate within budget}",
	"A4 {Model:sim-gpt-4 CopelandTau:0.9696969696969695 RepairedTau:0.909090909090909 CopelandViolations:1 RepairedViolations:2}",
	"A4 {Model:sim-gpt-3.5-turbo CopelandTau:0.818181818181818 RepairedTau:0.8484848484848483 CopelandViolations:2 RepairedViolations:3}",
	"A4 {Model:sim-cheap CopelandTau:0.8484848484848483 RepairedTau:0.606060606060606 CopelandViolations:2 RepairedViolations:4}",
	"A5 {Policy:per-item Accuracy:0.95 Asks:20 Tokens:758}",
	"A5 {Policy:majority of 7 Accuracy:1 Asks:140 Tokens:5416}",
	"A5 {Policy:sequential margin-2 Accuracy:1 Asks:50 Tokens:1874}",
	"A6 {PairsPerPrompt:1 KendallTau:0.6914285714285715 PromptTokens:5588}",
	"A6 {PairsPerPrompt:5 KendallTau:0.7447619047619048 PromptTokens:3238}",
	"A6 {PairsPerPrompt:19 KendallTau:0.5847619047619048 PromptTokens:2711}",
	"A7 {Strategy:direct (baseline) F1:0.6859205776173285 Recall:0.5428571428571428 Precision:0.9313725490196079 FlippedYes:0 FlippedNo:0}",
	"A7 {Strategy:transitive (yes-only) F1:0.7183098591549296 Recall:0.5828571428571429 Precision:0.9357798165137615 FlippedYes:7 FlippedNo:0}",
	"A7 {Strategy:evidence (both ways) F1:0.7092198581560284 Recall:0.5714285714285714 Precision:0.9345794392523364 FlippedYes:7 FlippedNo:2}",
	"A8 {Policy:cheap only Accuracy:0.95 CheapCalls:20 StrongCalls:0 Dollars:0.00015160000000000003}",
	"A8 {Policy:strong only Accuracy:1 CheapCalls:0 StrongCalls:20 Dollars:0.024}",
	"A8 {Policy:cascade Accuracy:1 CheapCalls:60 StrongCalls:5 Dollars:0.0058826}",
	"A9 {Model:sim-gpt-3.5-turbo Variant:variant-1 Accuracy:0.6888888888888889 TokensUsed:2644}",
	"A9 {Model:sim-gpt-3.5-turbo Variant:variant-0 Accuracy:0.6888888888888889 TokensUsed:2797}",
	"A9 {Model:sim-gpt-3.5-turbo Variant:variant-2 Accuracy:0.6888888888888889 TokensUsed:2777}",
	"A9 {Model:sim-gpt-3.5-turbo Variant:variant-0+cot Accuracy:0.8222222222222222 TokensUsed:7595}",
	"A9 {Model:sim-gpt-3.5-turbo Variant:variant-2+cot Accuracy:0.6888888888888889 TokensUsed:7629}",
	"A9 {Model:sim-gpt-3.5-turbo Variant:variant-1+cot Accuracy:0.8 TokensUsed:7618}",
	"A9 {Model:sim-claude Variant:variant-1 Accuracy:0.7777777777777778 TokensUsed:2576}",
	"A9 {Model:sim-claude Variant:variant-0 Accuracy:0.7555555555555555 TokensUsed:2976}",
	"A9 {Model:sim-claude Variant:variant-2 Accuracy:0.6444444444444445 TokensUsed:2944}",
	"A9 {Model:sim-claude Variant:variant-2+cot Accuracy:0.6666666666666666 TokensUsed:7412}",
	"A9 {Model:sim-claude Variant:variant-1+cot Accuracy:0.7777777777777778 TokensUsed:7370}",
	"A9 {Model:sim-claude Variant:variant-0+cot Accuracy:0.8 TokensUsed:7905}",
}
