package core

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/embed"
	"repro/internal/prompt"
	"repro/internal/quality"
	"repro/internal/token"
	"repro/internal/workflow"
)

// FindStrategy selects how items matching a description are located.
type FindStrategy string

// Find strategies. Find is the paper's "find" primitive: locate the
// items in a collection that satisfy a natural-language description,
// returning up to Limit of them.
const (
	// FindScan asks the model about every item — exact modulo per-item
	// noise, O(n) calls.
	FindScan FindStrategy = "scan"
	// FindEmbedFirst ranks items by embedding similarity to the
	// description and asks the model only about the most promising
	// candidates until Limit matches are confirmed or the candidate pool
	// (CandidateFactor × Limit) is exhausted — the Section 3.4 non-LLM
	// prefilter applied to search.
	FindEmbedFirst FindStrategy = "embed-first"
)

// FindRequest asks for items satisfying a description.
type FindRequest struct {
	// Items are the collection to search.
	Items []string
	// Description is the predicate in natural language (it is shown to
	// the model verbatim as a filter condition).
	Description string
	// Limit caps the number of matches returned (default: no cap).
	Limit int
	// Strategy selects the decomposition; default FindEmbedFirst.
	Strategy FindStrategy
	// CandidateFactor bounds the FindEmbedFirst pool at
	// CandidateFactor × Limit candidates (default 4).
	CandidateFactor int
}

// FindResult is the outcome of Find.
type FindResult struct {
	// Matches lists matching items in input order (FindScan) or
	// descending embedding-confidence order (FindEmbedFirst).
	Matches []string
	// Checked counts items the model actually examined.
	Checked int
	// Usage is the total token spend.
	Usage token.Usage
}

// Find locates items satisfying the description.
func (e *Engine) Find(ctx context.Context, req FindRequest) (FindResult, error) {
	if len(req.Items) == 0 {
		return FindResult{}, badRequestf("no items to search")
	}
	if req.Description == "" {
		return FindResult{}, badRequestf("empty description")
	}
	if req.Strategy == "" {
		req.Strategy = FindEmbedFirst
	}
	if req.Limit <= 0 || req.Limit > len(req.Items) {
		req.Limit = len(req.Items)
	}
	if req.CandidateFactor <= 0 {
		req.CandidateFactor = 4
	}
	s := e.newSession()
	check := func(ctx context.Context, item string) (bool, error) {
		return quality.AskWithRetry(ctx, s.model, prompt.FilterItem(item, req.Description),
			prompt.ParseYesNo, parseRetries)
	}
	var res FindResult
	switch req.Strategy {
	case FindScan:
		answers, err := workflow.Map(ctx, len(req.Items), e.parallelism, func(ctx context.Context, i int) (bool, error) {
			return check(ctx, req.Items[i])
		})
		if err != nil {
			return FindResult{}, fmt.Errorf("find scan: %w", err)
		}
		res.Checked = len(req.Items)
		for i, a := range answers {
			if a && len(res.Matches) < req.Limit {
				res.Matches = append(res.Matches, req.Items[i])
			}
		}
	case FindEmbedFirst:
		// Rank candidates by embedding similarity to the description: the
		// items are indexed once (embedded in parallel) and the heap top-k
		// query returns the candidate pool closest-first, ties by input
		// order.
		items := make([]embed.Item, len(req.Items))
		for i, it := range req.Items {
			items[i] = embed.Item{ID: strconv.Itoa(i), Text: it}
		}
		ix := e.index(items)
		pool := req.CandidateFactor * req.Limit
		if pool > len(req.Items) {
			pool = len(req.Items)
		}
		// Sequential by design: stop as soon as Limit matches confirm.
		for _, nb := range ix.Nearest(req.Description, pool) {
			if len(res.Matches) >= req.Limit {
				break
			}
			idx, err := strconv.Atoi(nb.ID)
			if err != nil {
				continue
			}
			ok, err := check(ctx, req.Items[idx])
			if err != nil {
				return FindResult{}, fmt.Errorf("find embed-first: %w", err)
			}
			res.Checked++
			if ok {
				res.Matches = append(res.Matches, req.Items[idx])
			}
		}
	default:
		return FindResult{}, badRequestf("unknown find strategy %q", req.Strategy)
	}
	res.Usage = s.usage()
	return res, nil
}
