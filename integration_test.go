package declprompt

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/llm/httpapi"
	"repro/internal/llm/sim"
	"repro/internal/metrics"
)

// TestEndToEndSortOverHTTP runs a complete declarative workload through
// the public facade against a real HTTP server: facade engine -> OpenAI
// wire protocol -> simulated model, asserting the result matches the
// in-process run bit for bit.
func TestEndToEndSortOverHTTP(t *testing.T) {
	registry := llm.NewRegistry()
	registry.Register(sim.NewNamed("sim-claude-2"))
	srv := httptest.NewServer(httpapi.NewServer(registry, embed.Default()).Handler())
	defer srv.Close()

	words := dataset.RandomWords(30, 3)
	req := SortRequest{
		Items:     words,
		Criterion: "alphabetical order",
		Strategy:  SortHybridInsert,
	}
	remote := NewEngine(NewHTTPModel(srv.URL, "sim-claude-2"), WithParallelism(4))
	local := NewEngine(NewSimModel("sim-claude-2"), WithParallelism(4))

	ctx := context.Background()
	remoteRes, err := remote.Sort(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	localRes, err := local.Sort(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remoteRes.Ranked, localRes.Ranked) {
		t.Fatal("HTTP and in-process executions diverge")
	}
	if remoteRes.Missing != 0 {
		t.Fatalf("hybrid insert left %d missing", remoteRes.Missing)
	}
	want := append([]string(nil), words...)
	sort.Strings(want)
	tau, err := metrics.KendallTauRanks(want, remoteRes.Ranked)
	if err != nil {
		t.Fatal(err)
	}
	if tau < 0.95 {
		t.Fatalf("tau = %.3f over HTTP", tau)
	}
}

// TestEndToEndBudgetedImputation runs the Table 4 hybrid through the
// facade under a budget and checks the accounting adds up.
func TestEndToEndBudgetedImputation(t *testing.T) {
	budget := NewBudget(0.50, 0, 0)
	engine := NewEngine(NewSimModel("sim-claude"), WithBudget(budget), WithParallelism(8))
	data := dataset.GenerateRestaurants(150, 40, 2)

	res, err := engine.Impute(context.Background(), ImputeRequest{
		Train:       data.Train,
		Queries:     data.Test,
		TargetField: data.TargetField,
		Strategy:    ImputeHybrid,
		Examples:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LLMCalls+res.KNNDecided != len(data.Test) {
		t.Fatalf("coverage mismatch: %d + %d != %d", res.LLMCalls, res.KNNDecided, len(data.Test))
	}
	spent, dollars := budget.Spent()
	if spent.Calls == 0 || dollars <= 0 {
		t.Fatal("budget recorded nothing")
	}
	if spent.Total() != res.Usage.Total() {
		t.Fatalf("budget tokens (%d) disagree with result usage (%d)", spent.Total(), res.Usage.Total())
	}
	gold := data.Gold()
	correct := 0
	for i, v := range res.Values {
		if strings.EqualFold(strings.TrimSpace(v), gold[i]) {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(gold)); frac < 0.7 {
		t.Fatalf("hybrid accuracy = %.3f, want > 0.7", frac)
	}
}

// TestEndToEndTinyBudgetFailsCleanly confirms budget exhaustion surfaces
// as ErrBudgetExhausted through the facade, not as a hang or partial
// success.
func TestEndToEndTinyBudgetFailsCleanly(t *testing.T) {
	engine := NewEngine(NewSimModel("sim-gpt-3.5-turbo"),
		WithBudget(NewBudget(0, 50, 0)), // 50 tokens: nothing fits
		WithParallelism(2),
	)
	_, err := engine.Sort(context.Background(), SortRequest{
		Items:     dataset.FlavorNames(),
		Criterion: "how chocolatey they are",
		Strategy:  SortPairwise,
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
}

// TestEndToEndModelFailurePropagates injects transient model failures
// and confirms they surface as errors (the engine retries parses, not
// infrastructure faults — those belong to the transport layer, which the
// HTTP client covers).
func TestEndToEndModelFailurePropagates(t *testing.T) {
	// Every second upstream call fails (a burst window of one call in two).
	flaky := llm.WithFaults(NewSimModel("sim-gpt-3.5-turbo"), llm.FaultPlan{BurstEvery: 2, BurstLen: 1})
	engine := NewEngine(flaky, WithParallelism(1))
	_, err := engine.Sort(context.Background(), SortRequest{
		Items:     dataset.FlavorNames()[:6],
		Criterion: "how chocolatey they are",
		Strategy:  SortPairwise,
	})
	if !errors.Is(err, llm.ErrTransient) {
		t.Fatalf("want injected failure to propagate, got %v", err)
	}
	if st := flaky.Stats(); st.Burst == 0 {
		t.Fatalf("fault stats = %+v, want burst failures injected", st)
	}
}

// TestFacadeReExports pins the facade surface: constants and helpers must
// round-trip to the internal values.
func TestFacadeReExports(t *testing.T) {
	if SortPairwise != "pairwise" || ImputeHybrid != "hybrid" || ResolveTransitive != "transitive" {
		t.Fatal("strategy constants drifted")
	}
	if PriceFor("sim-gpt-4").InputPer1K <= PriceFor("sim-gpt-3.5-turbo").InputPer1K {
		t.Fatal("price table drifted")
	}
	if CountTokens("hello world") == 0 {
		t.Fatal("CountTokens broken")
	}
	ix := NewEmbeddingIndex()
	ix.Add("a", "some text")
	if ix.Len() != 1 {
		t.Fatal("NewEmbeddingIndex broken")
	}
}

// TestEndToEndJoinWithTransitivity joins two noisy record sets through
// the facade, asserting the transitive strategy matches the nested loop
// at lower cost.
func TestEndToEndJoinWithTransitivity(t *testing.T) {
	corpus := dataset.GenerateCitations(dataset.CitationConfig{
		Entities: 40, Pairs: 10, PositiveFrac: 0.3, Seed: 5,
	})
	// Split cluster members across the two sides.
	var left, right []Entity
	seen := map[int]int{}
	for _, c := range corpus.Records {
		seen[c.Entity]++
		e := Entity{ID: c.ID, Text: c.Text()}
		if seen[c.Entity]%2 == 1 {
			left = append(left, e)
		} else {
			right = append(right, e)
		}
	}
	engine := NewEngine(NewSimModel("sim-gpt-4"), WithParallelism(8))
	ctx := context.Background()
	nested, err := engine.Join(ctx, JoinRequest{Left: left, Right: right, Strategy: JoinNestedLoop})
	if err != nil {
		t.Fatal(err)
	}
	trans, err := engine.Join(ctx, JoinRequest{Left: left, Right: right, Strategy: JoinTransitive, CandidateDistance: 1.05})
	if err != nil {
		t.Fatal(err)
	}
	if trans.LLMComparisons >= nested.LLMComparisons {
		t.Fatalf("transitive comparisons (%d) should undercut nested loop (%d)",
			trans.LLMComparisons, nested.LLMComparisons)
	}
	// Precision check against entity ground truth.
	entityOf := map[string]int{}
	for _, c := range corpus.Records {
		entityOf[c.ID] = c.Entity
	}
	for _, m := range trans.Matches {
		if entityOf[m.LeftID] != entityOf[m.RightID] {
			t.Fatalf("false join %v", m)
		}
	}
}

// TestEndToEndFind runs the Find primitive through the facade.
func TestEndToEndFind(t *testing.T) {
	engine := NewEngine(NewSimModel("sim-gpt-4"), WithParallelism(8))
	res, err := engine.Find(context.Background(), FindRequest{
		Items:       dataset.FlavorNames(),
		Description: "it is a chocolatey flavor",
		Limit:       3,
		Strategy:    FindEmbedFirst,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 3 {
		t.Fatalf("matches = %v", res.Matches)
	}
	if res.Checked >= len(dataset.FlavorNames()) {
		t.Fatalf("embed-first checked everything (%d)", res.Checked)
	}
}
