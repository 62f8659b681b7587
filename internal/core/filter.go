package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/prompt"
	"repro/internal/quality"
	"repro/internal/token"
	"repro/internal/workflow"
)

// FilterStrategy selects how per-item predicate checks are answered.
type FilterStrategy string

// Filter strategies (the paper's filter primitive plus the Section 3.5
// quality-control policies).
const (
	// FilterPerItem asks the model once per item.
	FilterPerItem FilterStrategy = "per-item"
	// FilterMajority samples each item Votes times at temperature and
	// takes the majority — fixed-cost self-consistency.
	FilterMajority FilterStrategy = "majority"
	// FilterSequential uses a CrowdScreen-style policy: sample until one
	// answer leads by Margin or MaxAsks is reached — adaptive cost,
	// spending only on contested items.
	FilterSequential FilterStrategy = "sequential"
)

// FilterRequest asks which items satisfy a predicate.
type FilterRequest struct {
	// Items are the data items to test.
	Items []string
	// Predicate is the condition in natural language.
	Predicate string
	// Strategy selects the policy; default FilterPerItem.
	Strategy FilterStrategy
	// Votes is the sample count for FilterMajority (default 5).
	Votes int
	// MaxAsks and Margin parameterise FilterSequential (defaults 7, 2).
	MaxAsks int
	Margin  int
	// Temperature for repeated sampling (default 0.7).
	Temperature float64
}

// FilterResult is the outcome of Filter.
type FilterResult struct {
	// Keep holds one decision per item, index-aligned.
	Keep []bool
	// Asks counts total model samples issued.
	Asks int
	// Usage is the total token spend.
	Usage token.Usage
}

// FilterAnswer is one item's decision from a PreparedFilter.
type FilterAnswer struct {
	// Keep reports whether the item satisfies the predicate.
	Keep bool
	// Asks counts the model samples the decision took.
	Asks int
}

// PreparedFilter is the per-item form of Filter: the request is
// validated and the session built once, then Ask decides one item at a
// time. Filter itself is PrepareFilter plus a bounded fan-out over Ask, so
// a caller that receives items one by one (the streaming executor) runs
// exactly the unit tasks a whole-table call would. Safe for concurrent use.
type PreparedFilter struct {
	e   *Engine
	s   *session
	req FilterRequest
}

// PrepareFilter validates req (Items is ignored) and returns its per-item
// form.
func (e *Engine) PrepareFilter(req FilterRequest) (*PreparedFilter, error) {
	if req.Predicate == "" {
		return nil, badRequestf("empty predicate")
	}
	if req.Strategy == "" {
		req.Strategy = FilterPerItem
	}
	if req.Votes == 0 {
		req.Votes = 5
	}
	if req.MaxAsks == 0 {
		req.MaxAsks = 7
	}
	if req.Margin == 0 {
		req.Margin = 2
	}
	if req.Temperature == 0 {
		req.Temperature = 0.7
	}
	switch req.Strategy {
	case FilterPerItem, FilterMajority, FilterSequential:
	default:
		return nil, badRequestf("unknown filter strategy %q", req.Strategy)
	}
	return &PreparedFilter{e: e, s: e.newSession(), req: req}, nil
}

// Batched reports whether AskGroup packs its items' asks: under
// WithBatching, for the per-item strategy. The sampling strategies re-roll
// with per-ask seeds, which would never share an envelope.
func (f *PreparedFilter) Batched() bool {
	return f.e.batch > 1 && f.req.Strategy == FilterPerItem
}

// AskGroup decides a group of items — what Ask returns for each — with
// the group's cache misses in one envelope, and reports each decision
// through answer, from any goroutine; it returns once every one has been
// reported. Use it when Batched.
func (f *PreparedFilter) AskGroup(ctx context.Context, items []string, answer func(i int, a FilterAnswer, err error)) {
	askGroup(ctx, f.s.model, len(items), func(dst []byte, i int) []byte {
		return prompt.AppendFilterItem(dst, items[i], f.req.Predicate)
	}, prompt.ParseYesNo, func(i int, keep bool, err error) {
		answer(i, FilterAnswer{Keep: keep, Asks: 1}, err)
	})
}

// Ask tests one item against the predicate.
func (f *PreparedFilter) Ask(ctx context.Context, item string) (FilterAnswer, error) {
	buf := getPromptBuf()
	defer buf.release()
	buf.prompt = prompt.AppendFilterItem(buf.prompt[:0], item, f.req.Predicate)
	var (
		ans FilterAnswer
		err error
	)
	switch f.req.Strategy {
	case FilterPerItem:
		ans.Keep, err = quality.AskBytesWithRetry(ctx, f.s.model, buf.prompt, prompt.ParseYesNo, parseRetries)
		ans.Asks = 1
	case FilterMajority:
		var yes, no int
		ans.Keep, yes, no, err = quality.MajorityYesNo(ctx, f.s.model, string(buf.prompt), f.req.Votes, f.req.Temperature)
		ans.Asks = yes + no
	case FilterSequential:
		ans.Keep, ans.Asks, err = quality.SequentialYesNo(ctx, f.s.model, string(buf.prompt), f.req.MaxAsks, f.req.Margin, f.req.Temperature)
	}
	return ans, err
}

// Filter tests every item against the predicate.
func (e *Engine) Filter(ctx context.Context, req FilterRequest) (FilterResult, error) {
	if len(req.Items) == 0 {
		return FilterResult{}, badRequestf("no items to filter")
	}
	f, err := e.PrepareFilter(req)
	if err != nil {
		return FilterResult{}, err
	}
	answers, err := mapAsks(ctx, e, req.Items, f.Batched(), f.Ask, f.AskGroup)
	if err != nil {
		return FilterResult{}, fmt.Errorf("filter: %w", err)
	}
	res := FilterResult{Keep: make([]bool, len(req.Items))}
	for i, a := range answers {
		res.Keep[i] = a.Keep
		res.Asks += a.Asks
	}
	res.Usage = f.s.usage()
	return res, nil
}

// CountStrategy selects how the Count operator estimates.
type CountStrategy string

// Count strategies (Marcus et al.'s counting task types, Section 3.1).
const (
	// CountPerItem checks every item individually — exact modulo
	// per-item noise, O(n) calls.
	CountPerItem CountStrategy = "per-item"
	// CountEyeball shows the model whole batches and asks for a
	// percentage estimate — O(n / batch) calls, noisier.
	CountEyeball CountStrategy = "eyeball"
)

// CountRequest asks how many items satisfy a predicate.
type CountRequest struct {
	Items     []string
	Predicate string
	// Strategy selects the decomposition; default CountEyeball.
	Strategy CountStrategy
	// BatchSize is items per eyeball prompt (default 20).
	BatchSize int
}

// CountResult is the outcome of Count.
type CountResult struct {
	// Count is the estimated number of items satisfying the predicate.
	Count int
	// Fraction is Count / len(Items).
	Fraction float64
	// Usage is the total token spend.
	Usage token.Usage
}

// Count estimates how many items satisfy the predicate.
func (e *Engine) Count(ctx context.Context, req CountRequest) (CountResult, error) {
	if len(req.Items) == 0 {
		return CountResult{}, badRequestf("no items to count")
	}
	if req.Predicate == "" {
		return CountResult{}, badRequestf("empty predicate")
	}
	if req.Strategy == "" {
		req.Strategy = CountEyeball
	}
	if req.BatchSize < 0 {
		return CountResult{}, badRequestf("negative batch size")
	}
	if req.BatchSize == 0 {
		req.BatchSize = 20
	}
	s := e.newSession()
	switch req.Strategy {
	case CountPerItem:
		fr, err := e.Filter(ctx, FilterRequest{Items: req.Items, Predicate: req.Predicate, Strategy: FilterPerItem})
		if err != nil {
			return CountResult{}, err
		}
		n := 0
		for _, k := range fr.Keep {
			if k {
				n++
			}
		}
		return CountResult{
			Count:    n,
			Fraction: float64(n) / float64(len(req.Items)),
			Usage:    fr.Usage,
		}, nil
	case CountEyeball:
		batches := slices.Collect(slices.Chunk(req.Items, req.BatchSize))
		fracs, err := workflow.Map(ctx, len(batches), e.parallelism, func(ctx context.Context, i int) (float64, error) {
			f, err := quality.AskWithRetry(ctx, s.model, prompt.CountBatch(batches[i], req.Predicate),
				prompt.ParsePercent, parseRetries)
			if err != nil {
				return 0, err
			}
			// Each batch's fraction enters the total rounded to six
			// decimals, as %f prints it.
			return strconv.ParseFloat(strconv.FormatFloat(f, 'f', 6, 64), 64)
		})
		if err != nil {
			return CountResult{}, fmt.Errorf("eyeball count: %w", err)
		}
		total := 0.0
		for i, f := range fracs {
			total += f * float64(len(batches[i]))
		}
		frac := total / float64(len(req.Items))
		return CountResult{
			Count:    int(math.Round(total)),
			Fraction: frac,
			Usage:    s.usage(),
		}, nil
	default:
		return CountResult{}, badRequestf("unknown count strategy %q", req.Strategy)
	}
}
