package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/consistency"
	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/quality"
	"repro/internal/token"
	"repro/internal/workflow"
)

// SortStrategy selects how the Sort operator decomposes the objective.
type SortStrategy string

// Sort strategies, ordered roughly from cheapest/least accurate to most
// expensive/most accurate (Section 3.1 and 3.2 of the paper).
const (
	// SortOnePrompt puts every item in a single prompt and asks for the
	// full ordering — the paper's baseline. Cheap; blurs the middle of the
	// list, and on long lists omits and hallucinates items.
	SortOnePrompt SortStrategy = "one-prompt"
	// SortRating asks for a 1..scale rating per item (O(n) calls) and
	// sorts by rating, ties broken by input order.
	SortRating SortStrategy = "rating"
	// SortPairwise compares every pair (O(n^2) calls) and ranks by wins
	// (Copeland count), ties broken by input order — the paper's
	// fine-grained strategy.
	SortPairwise SortStrategy = "pairwise"
	// SortPairwiseRepaired is SortPairwise followed by minimum-feedback
	// repair of the comparison graph (Section 3.3) instead of raw win
	// counts.
	SortPairwiseRepaired SortStrategy = "pairwise-repaired"
	// SortHybridInsert is the coarse-to-fine strategy of Section 3.2:
	// one-prompt sort, drop hallucinations, then reinsert each missing
	// item via order-debiased pairwise comparisons at the
	// alignment-maximising position.
	SortHybridInsert SortStrategy = "hybrid-insert"
	// SortRatingThenPairwise buckets items by rating, then refines each
	// bucket with pairwise comparisons (Khan-style coarse→fine): near
	// pairwise accuracy at a fraction of the comparisons.
	SortRatingThenPairwise SortStrategy = "rating-then-pairwise"
)

// SortRequest asks for items ranked from most to least by the criterion.
type SortRequest struct {
	// Items are the data items to rank. They must be non-empty and
	// pairwise distinct.
	Items []string
	// Criterion is the ranking dimension in natural language, e.g. "how
	// chocolatey they are" or "alphabetical order".
	Criterion string
	// Strategy selects the decomposition; default SortOnePrompt.
	Strategy SortStrategy
	// RatingScale is the rating task's scale (default 7).
	RatingScale int
	// CompareBatch packs this many comparisons into each prompt for the
	// pairwise strategies (default 1, one comparison per prompt). Bigger
	// batches cut token overhead at an accuracy cost — the Section 4
	// batch-size lever.
	CompareBatch int
	// TemplateVariant selects one of prompt.CompareTemplateCount phrasings
	// for comparison tasks (default 0). Models are phrasing-sensitive;
	// PlanCompareTemplate profiles the variants.
	TemplateVariant int
	// ChainOfThought appends a think-step-by-step instruction to
	// comparison tasks: usually more accurate, always more completion
	// tokens (Section 4).
	ChainOfThought bool
}

// SortResult is the outcome of a Sort call.
type SortResult struct {
	// Ranked lists the input items the model returned, best first, with
	// hallucinations removed and duplicates collapsed. Items the model
	// omitted are absent (see Missing).
	Ranked []string
	// Missing counts input items absent from Ranked.
	Missing int
	// Hallucinated counts response items that were not in the input.
	Hallucinated int
	// Usage is the total token spend of the operation (cache hits free).
	Usage token.Usage
}

// Sort ranks items by the criterion under the requested strategy.
func (e *Engine) Sort(ctx context.Context, req SortRequest) (SortResult, error) {
	if len(req.Items) == 0 {
		return SortResult{}, badRequestf("no items to sort")
	}
	seen := make(map[string]bool, len(req.Items))
	for _, it := range req.Items {
		if seen[it] {
			return SortResult{}, badRequestf("duplicate item %q", it)
		}
		seen[it] = true
	}
	if req.RatingScale == 0 {
		req.RatingScale = 7
	}
	if req.Strategy == "" {
		req.Strategy = SortOnePrompt
	}
	s := e.newSession()
	var (
		res SortResult
		err error
	)
	switch req.Strategy {
	case SortOnePrompt:
		res, err = e.sortOnePrompt(ctx, s, req)
	case SortRating:
		res, err = e.sortRating(ctx, s, req)
	case SortPairwise:
		res, err = e.sortPairwise(ctx, s, req, false)
	case SortPairwiseRepaired:
		res, err = e.sortPairwise(ctx, s, req, true)
	case SortHybridInsert:
		res, err = e.sortHybridInsert(ctx, s, req)
	case SortRatingThenPairwise:
		res, err = e.sortRatingThenPairwise(ctx, s, req)
	default:
		return SortResult{}, badRequestf("unknown sort strategy %q", req.Strategy)
	}
	res.Usage = s.usage()
	return res, err
}

// auditList reconciles a parsed model list against the input items:
// unknown entries count as hallucinations, repeats collapse, omissions
// are counted.
func auditList(input, parsed []string) SortResult {
	known := make(map[string]bool, len(input))
	for _, it := range input {
		known[it] = true
	}
	var res SortResult
	got := make(map[string]bool, len(parsed))
	for _, p := range parsed {
		p = strings.TrimSpace(p)
		switch {
		case !known[p]:
			res.Hallucinated++
		case got[p]:
			// Collapse duplicates silently; the first occurrence stands.
		default:
			got[p] = true
			res.Ranked = append(res.Ranked, p)
		}
	}
	res.Missing = len(input) - len(res.Ranked)
	return res
}

func (e *Engine) sortOnePrompt(ctx context.Context, s *session, req SortRequest) (SortResult, error) {
	parsed, err := quality.AskWithRetry(ctx, s.model, prompt.SortList(req.Items, req.Criterion),
		func(text string) ([]string, error) {
			items := prompt.ParseList(text)
			if len(items) == 0 {
				return nil, prompt.ErrUnparseable
			}
			return items, nil
		}, parseRetries)
	if err != nil {
		return SortResult{}, fmt.Errorf("one-prompt sort: %w", err)
	}
	return auditList(req.Items, parsed), nil
}

// rateOnce asks one rating task.
func (e *Engine) rateOnce(ctx context.Context, s *session, item, criterion string, scale int) (int, error) {
	buf := getPromptBuf()
	defer buf.release()
	buf.prompt = prompt.AppendRateItem(buf.prompt[:0], item, criterion, scale)
	return quality.AskBytesWithRetry(ctx, s.model, buf.prompt,
		func(text string) (int, error) { return prompt.ParseRating(text, scale) }, parseRetries)
}

// rateAll rates every item with the engine's parallelism.
func (e *Engine) rateAll(ctx context.Context, s *session, items []string, criterion string, scale int) ([]int, error) {
	return workflow.Map(ctx, len(items), e.parallelism, func(ctx context.Context, i int) (int, error) {
		return e.rateOnce(ctx, s, items[i], criterion, scale)
	})
}

func (e *Engine) sortRating(ctx context.Context, s *session, req SortRequest) (SortResult, error) {
	ratings, err := e.rateAll(ctx, s, req.Items, req.Criterion, req.RatingScale)
	if err != nil {
		return SortResult{}, fmt.Errorf("rating sort: %w", err)
	}
	return SortResult{Ranked: rankByRating(req.Items, ratings)}, nil
}

// rankByRating orders items by rating, highest first, equal ratings in
// input order.
func rankByRating(items []string, ratings []int) []string {
	type rated struct {
		item   string
		rating int
		pos    int
	}
	rs := make([]rated, len(items))
	for i, it := range items {
		rs[i] = rated{item: it, rating: ratings[i], pos: i}
	}
	slices.SortFunc(rs, func(a, b rated) int {
		if c := cmp.Compare(b.rating, a.rating); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.item
	}
	return out
}

// compareOnce asks one pairwise comparison and reports whether a ranks
// higher than b, under the given template variant and chain-of-thought
// setting.
func compareOnce(ctx context.Context, model llm.Model, a, b, criterion string, variant int, cot bool) (bool, error) {
	choice, err := quality.AskWithRetry(ctx, model, prompt.ComparePairVariant(variant, a, b, criterion, cot),
		prompt.ParseChoice, parseRetries)
	if err != nil {
		return false, err
	}
	return choice == "A", nil
}

// tournament asks every pair of items once, in allPairs order, with the
// engine's parallelism, under the given template variant and
// chain-of-thought setting, and records the answers.
func (e *Engine) tournament(ctx context.Context, s *session, items []string, criterion string, variant int, cot bool) (*consistency.Tournament, error) {
	pairs := allPairs(len(items))
	aWins, err := workflow.Map(ctx, len(pairs), e.parallelism, func(ctx context.Context, k int) (bool, error) {
		return compareOnce(ctx, s.model, items[pairs[k][0]], items[pairs[k][1]], criterion, variant, cot)
	})
	if err != nil {
		return nil, err
	}
	return recordPairs(items, pairs, aWins), nil
}

// recordPairs returns a tournament over items holding one answer per pair:
// aWins[k] reports whether items[pairs[k][0]] beat items[pairs[k][1]].
func recordPairs(items []string, pairs [][2]int, aWins []bool) *consistency.Tournament {
	t := consistency.NewTournament(items)
	for k, p := range pairs {
		if aWins[k] {
			t.Record(items[p[0]], items[p[1]])
		} else {
			t.Record(items[p[1]], items[p[0]])
		}
	}
	return t
}

func (e *Engine) sortPairwise(ctx context.Context, s *session, req SortRequest, repair bool) (SortResult, error) {
	t, err := e.sortTournament(ctx, s, req)
	if err != nil {
		return SortResult{}, err
	}
	if repair {
		return SortResult{Ranked: t.RepairOrder()}, nil
	}
	return SortResult{Ranked: t.CopelandOrder()}, nil
}

// sortTournament is the tournament over the request's items, with
// CompareBatch pairs packed into each prompt when it is above 1; the pairs
// a batch leaves unanswered are then asked alone, one at a time in pair
// order.
func (e *Engine) sortTournament(ctx context.Context, s *session, req SortRequest) (*consistency.Tournament, error) {
	if req.CompareBatch <= 1 {
		t, err := e.tournament(ctx, s, req.Items, req.Criterion, req.TemplateVariant, req.ChainOfThought)
		if err != nil {
			return nil, fmt.Errorf("pairwise sort: %w", err)
		}
		return t, nil
	}
	pairs := allPairs(len(req.Items))
	chunks := slices.Collect(slices.Chunk(pairs, req.CompareBatch))
	// Each chunk's answers by position within it: "A", "B", or absent.
	choices, err := workflow.Map(ctx, len(chunks), e.parallelism, func(ctx context.Context, c int) (map[int]string, error) {
		items := make([]prompt.PairItem, len(chunks[c]))
		for i, p := range chunks[c] {
			items[i] = prompt.PairItem{A: req.Items[p[0]], B: req.Items[p[1]]}
		}
		return quality.AskWithRetry(ctx, s.model, prompt.CompareBatch(items, req.Criterion),
			func(text string) (map[int]string, error) { return prompt.ParseChoices(text, len(items)) },
			parseRetries)
	})
	if err != nil {
		return nil, fmt.Errorf("batched pairwise sort: %w", err)
	}
	aWins := make([]bool, len(pairs))
	for k, p := range pairs {
		switch choices[k/req.CompareBatch][k%req.CompareBatch] {
		case "A":
			aWins[k] = true
		case "B":
		default:
			if aWins[k], err = compareOnce(ctx, s.model, req.Items[p[0]], req.Items[p[1]], req.Criterion, req.TemplateVariant, req.ChainOfThought); err != nil {
				return nil, fmt.Errorf("batched pairwise fallback: %w", err)
			}
		}
	}
	return recordPairs(req.Items, pairs, aWins), nil
}

// sortHybridInsert implements the paper's sort-then-insert hybrid: a
// coarse one-prompt sort, hallucination stripping, then for every missing
// item two order-swapped comparisons against each ranked item (cancelling
// position bias), inserted at the alignment-maximising index.
func (e *Engine) sortHybridInsert(ctx context.Context, s *session, req SortRequest) (SortResult, error) {
	coarse, err := e.sortOnePrompt(ctx, s, req)
	if err != nil {
		return SortResult{}, err
	}
	ranked := coarse.Ranked
	inRanked := make(map[string]bool, len(ranked))
	for _, it := range ranked {
		inRanked[it] = true
	}
	var missing []string
	for _, it := range req.Items {
		if !inRanked[it] {
			missing = append(missing, it)
		}
	}
	for _, item := range missing {
		// Two comparisons per ranked element: item listed first, then
		// second, cancelling the model's position bias.
		higher, err := workflow.Map(ctx, 2*len(ranked), e.parallelism, func(ctx context.Context, k int) (bool, error) {
			other := ranked[k/2]
			if k%2 == 0 {
				return compareOnce(ctx, s.model, item, other, req.Criterion, req.TemplateVariant, req.ChainOfThought)
			}
			otherHigher, err := compareOnce(ctx, s.model, other, item, req.Criterion, req.TemplateVariant, req.ChainOfThought)
			return !otherHigher, err
		})
		if err != nil {
			return coarse, fmt.Errorf("hybrid insert of %q: %w", item, err)
		}
		comps := make([]consistency.Comparison, 0, len(higher))
		for k, h := range higher {
			comps = append(comps, consistency.Comparison{
				ListIndex: k / 2,
				// "item ranks higher than ranked[idx]" means the item
				// precedes that position.
				Less: h,
			})
		}
		pos := consistency.AlignmentInsert(len(ranked), comps)
		ranked = consistency.InsertAt(ranked, item, pos)
	}
	return SortResult{
		Ranked:       ranked,
		Missing:      0,
		Hallucinated: coarse.Hallucinated,
	}, nil
}

// sortRatingThenPairwise is the Khan-style hybrid: coarse ratings bucket
// the items, fine pairwise comparisons order each bucket.
func (e *Engine) sortRatingThenPairwise(ctx context.Context, s *session, req SortRequest) (SortResult, error) {
	ratings, err := e.rateAll(ctx, s, req.Items, req.Criterion, req.RatingScale)
	if err != nil {
		return SortResult{}, fmt.Errorf("rating sort: %w", err)
	}
	// Bucket by rating, each bucket in input order: the order rating sort
	// ranks equal ratings in.
	buckets := make(map[int][]string)
	for i, it := range req.Items {
		buckets[ratings[i]] = append(buckets[ratings[i]], it)
	}
	var out []string
	for r := req.RatingScale; r >= 1; r-- {
		bucket := buckets[r]
		if len(bucket) <= 1 {
			out = append(out, bucket...)
			continue
		}
		sub, err := e.sortPairwise(ctx, s, SortRequest{
			Items:       bucket,
			Criterion:   req.Criterion,
			RatingScale: req.RatingScale,
		}, true)
		if err != nil {
			return SortResult{}, fmt.Errorf("rating-then-pairwise bucket %d: %w", r, err)
		}
		out = append(out, sub.Ranked...)
	}
	return SortResult{Ranked: out}, nil
}
