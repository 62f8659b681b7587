package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/prompt"
)

// pinPrompt is one prompt of the pinned corpus, named after the template
// it exercises.
type pinPrompt struct {
	name, prompt string
}

// pinCorpus returns prompts covering every template recognise knows, a
// batch envelope that skips sections, and a prompt it does not know.
// Record texts come from the dataset generators the experiments use, plus
// a few hand-written ones with accents, a 4-byte rune and invalid UTF-8,
// so trigram perception is exercised beyond ASCII.
func pinCorpus() []pinPrompt {
	const choc = "how chocolatey they are"
	flavors := dataset.FlavorNames()
	words := dataset.RandomWords(40, 3)

	cites := dataset.GenerateCitations(dataset.CitationConfig{Entities: 40, Pairs: 40, PositiveFrac: 0.3, Seed: 5})
	citeText := func(i int) string {
		c := cites.Records[i]
		return fmt.Sprintf("%s. %s. %s %s", c.Authors, c.Title, c.Venue, c.Year)
	}
	var citeRecs []string
	for i := 0; i < 10; i++ {
		citeRecs = append(citeRecs, citeText(i))
	}

	rest := dataset.GenerateRestaurants(8, 4, 11)
	var shots []prompt.Example
	for _, r := range rest.Train[:3] {
		v, _ := r.Get(rest.TargetField)
		shots = append(shots, prompt.Example{Input: r.WithoutField(rest.TargetField).String(), Output: v})
	}
	query := rest.Test[0].WithoutField(rest.TargetField).String()
	name, _ := rest.Test[1].Get("name")
	buy := dataset.GenerateBuy(4, 4, 11)
	product := buy.Test[0].WithoutField(buy.TargetField).String()
	cuisines := []string{"diner", "cafe", "grill", "bistro", "kitchen", "house"}
	casual := "the restaurant sounds like a casual neighbourhood place"

	var pairs []prompt.PairItem
	for i := 0; i+1 < 12; i += 2 {
		pairs = append(pairs, prompt.PairItem{A: flavors[i], B: flavors[i+1]})
	}
	var subs []string
	for i := 0; i < 24; i++ {
		subs = append(subs, prompt.FilterItem(flavors[i%len(flavors)], "it is a chocolatey flavor"))
	}

	ps := []pinPrompt{
		{"sort", prompt.SortList(flavors, choc)},
		{"sort-lex-long", prompt.SortList(words, "alphabetical order")},
		{"sort-numeric", prompt.SortList([]string{"3.5", "-2", "17", "0.25", "9"}, "numeric value")},
	}
	for v := 0; v < prompt.CompareTemplateCount; v++ {
		for _, cot := range []bool{false, true} {
			ps = append(ps, pinPrompt{
				fmt.Sprintf("compare-v%d-cot=%v", v, cot),
				prompt.ComparePairVariant(v, flavors[2], flavors[5], choc, cot),
			})
		}
	}
	ps = append(ps,
		pinPrompt{"compare-lex", prompt.ComparePair("apricot", "apple", "alphabetical order")},
		pinPrompt{"compare-batch", prompt.CompareBatch(pairs, choc)},
		pinPrompt{"rate", prompt.RateItem(flavors[7], choc, 7)},
		pinPrompt{"rate-unknown", prompt.RateItem("gravel", "how shiny it is", 5)},
		pinPrompt{"match", prompt.MatchPair(citeText(cites.Pairs[0].A), citeText(cites.Pairs[0].B))},
		pinPrompt{"match-unicode", prompt.MatchPair("Café Zürich 🍫 Müller, Ünïcode", "Cafe Zurich 🍫 Muller, Unicode")},
		pinPrompt{"match-short", prompt.MatchPair("ab", "AB")},
		pinPrompt{"match-invalid-utf8", prompt.MatchPair("caf\xe9 \xff\xfe bar", "caf\xe9 \xff bar")},
		pinPrompt{"impute", prompt.Impute(query, rest.TargetField, nil)},
		pinPrompt{"impute-examples", prompt.Impute(query, rest.TargetField, shots)},
		pinPrompt{"impute-product", prompt.Impute(product, buy.TargetField, nil)},
		pinPrompt{"filter", prompt.FilterItem(name, casual)},
		pinPrompt{"filter-known", prompt.FilterItem(flavors[4], "it is a chocolatey flavor")},
		pinPrompt{"count", prompt.CountBatch(flavors, "it is a chocolatey flavor")},
		pinPrompt{"group", prompt.GroupRecords(citeRecs)},
		pinPrompt{"verify", prompt.Verify(prompt.FilterItem(flavors[4], "it is a chocolatey flavor"), "Yes")},
		pinPrompt{"categorize", prompt.Categorize(name, cuisines)},
		pinPrompt{"categorize-unicode", prompt.Categorize("Crème brûlée Café 🍮", []string{"café", "crème", "pâtisserie"})},
		pinPrompt{"discover", prompt.DiscoverCategories(citeRecs, 4)},
		pinPrompt{"envelope", prompt.TaskBatch(subs)},
		pinPrompt{"unknown", "Write me a poem about databases."},
	)
	return ps
}

// pinRequests expands the corpus into the requests the pins cover: every
// prompt at temperature 0, at temperature 0.7 under two seeds, and under
// a MaxTokens cap.
func pinRequests() []llm.Request {
	var reqs []llm.Request
	for _, p := range pinCorpus() {
		reqs = append(reqs,
			llm.Request{Prompt: p.prompt},
			llm.Request{Prompt: p.prompt, Temperature: 0.7, Seed: 1},
			llm.Request{Prompt: p.prompt, Temperature: 0.7, Seed: 2},
			llm.Request{Prompt: p.prompt, MaxTokens: 8},
		)
	}
	return reqs
}

// pinAnswer renders one response the way the digest hashes it.
func pinAnswer(t testing.TB, o *Oracle, req llm.Request) string {
	resp, err := o.Complete(context.Background(), req)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	return fmt.Sprintf("%s\x00%d %d %d\n", resp.Text, resp.Usage.PromptTokens, resp.Usage.CompletionTokens, resp.Usage.Calls)
}

// oracleAnswersDigest is the SHA-256 of every pinned answer, text and
// usage, in corpus order. It changes only if a simulated answer changes,
// which would move every figure the experiments and benchmarks report.
const oracleAnswersDigest = "94ea193f7407b3c5db5e75c4aa4a91492578ecdd994ba16458d1d18fcfcc2ed1"

// TestOracleAnswersPinned holds every simulated answer byte for byte: a
// change to the oracle's internals (its noise source, its similarity
// perception, its recognisers) must leave this digest as it is.
func TestOracleAnswersPinned(t *testing.T) {
	o := NewNamed("sim-gpt-3.5-turbo")
	h := sha256.New()
	for _, req := range pinRequests() {
		h.Write([]byte(pinAnswer(t, o, req)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != oracleAnswersDigest {
		t.Fatalf("oracle answers digest = %s, want %s", got, oracleAnswersDigest)
	}
}

// TestPinCorpusCoversTemplates keeps the pinned corpus honest: every
// prompt but the unknown one is recognised, every task kind appears, and
// the envelope really skips a section at temperature 0.
func TestPinCorpusCoversTemplates(t *testing.T) {
	seen := map[taskKind]bool{}
	for _, p := range pinCorpus() {
		if subs, ok := prompt.ReadTaskBatch(p.prompt); ok {
			resp := complete(t, NewNamed("sim-gpt-3.5-turbo"), p.prompt)
			if got := strings.Count(resp.Text, "### Task "); got >= len(subs) {
				t.Errorf("envelope answered %d of %d sections; the corpus needs one that skips", got, len(subs))
			}
			continue
		}
		k := recognise(p.prompt).kind
		if k == taskUnknown && p.name != "unknown" {
			t.Errorf("%s: prompt not recognised", p.name)
		}
		seen[k] = true
	}
	for k := taskUnknown; k <= taskDiscover; k++ {
		if !seen[k] {
			t.Errorf("task kind %d missing from the pinned corpus", k)
		}
	}
}

// TestOracleConcurrentMatchesSerial answers the pinned requests from 16
// goroutines at once and expects the serial answers: pooled scratch state
// must never leak between concurrent calls.
func TestOracleConcurrentMatchesSerial(t *testing.T) {
	o := NewNamed("sim-gpt-3.5-turbo")
	reqs := pinRequests()
	want := make([]string, len(reqs))
	for i, req := range reqs {
		want[i] = pinAnswer(t, o, req)
	}
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range reqs {
				i := (k + w*7) % len(reqs) // each worker starts elsewhere
				resp, err := o.Complete(context.Background(), reqs[i])
				if err != nil {
					errs <- err.Error()
					return
				}
				got := fmt.Sprintf("%s\x00%d %d %d\n", resp.Text, resp.Usage.PromptTokens, resp.Usage.CompletionTokens, resp.Usage.Calls)
				if got != want[i] {
					errs <- fmt.Sprintf("worker %d, request %d: got %q, want %q", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
