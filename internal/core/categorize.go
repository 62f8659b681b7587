package core

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/prompt"
	"repro/internal/quality"
	"repro/internal/token"
)

// CategorizeStrategy selects how items are assigned to categories.
type CategorizeStrategy string

// Categorize strategies (Jain et al.'s two-stage clustering, Section 3.2).
const (
	// CategorizeDirect assigns each item to one of the given categories.
	CategorizeDirect CategorizeStrategy = "direct"
	// CategorizeTwoPhase first asks the model to propose a category
	// scheme from a sample, then assigns every item to the discovered
	// scheme — for when no category set is known upfront.
	CategorizeTwoPhase CategorizeStrategy = "two-phase"
)

// CategorizeRequest asks for a category per item.
type CategorizeRequest struct {
	Items []string
	// Categories is the closed category set (required for
	// CategorizeDirect; ignored by CategorizeTwoPhase).
	Categories []string
	// Strategy selects the decomposition; default CategorizeDirect.
	Strategy CategorizeStrategy
	// SampleSize is the discovery sample for CategorizeTwoPhase
	// (default 10).
	SampleSize int
	// MaxCategories caps the discovered scheme (default 5).
	MaxCategories int
	// Seed drives the discovery sample selection.
	Seed int64
}

// CategorizeResult is the outcome of Categorize.
type CategorizeResult struct {
	// Assignments holds one category per item, index-aligned.
	Assignments []string
	// Categories is the category set used (given or discovered).
	Categories []string
	// Usage is the total token spend.
	Usage token.Usage
}

// Categorize assigns every item to a category.
func (e *Engine) Categorize(ctx context.Context, req CategorizeRequest) (CategorizeResult, error) {
	if len(req.Items) == 0 {
		return CategorizeResult{}, badRequestf("no items to categorize")
	}
	if req.Strategy == "" {
		req.Strategy = CategorizeDirect
	}
	if req.SampleSize == 0 {
		req.SampleSize = 10
	}
	if req.MaxCategories == 0 {
		req.MaxCategories = 5
	}
	// The assignment fan-out issues one homogeneous unit task per item;
	// the lone discovery call of the two-phase strategy just rides through
	// as a batch of one.
	s := e.newBatchedSession()
	categories := req.Categories
	if req.Strategy == CategorizeTwoPhase {
		sample := dataset.Sample(req.Items, req.SampleSize, req.Seed)
		discovered, err := quality.AskWithRetry(ctx, s.model,
			prompt.DiscoverCategories(sample, req.MaxCategories),
			func(text string) ([]string, error) {
				cats := prompt.ParseList(text)
				if len(cats) == 0 {
					return nil, prompt.ErrUnparseable
				}
				return cats, nil
			}, e.retries)
		if err != nil {
			return CategorizeResult{}, fmt.Errorf("category discovery: %w", err)
		}
		categories = discovered
	} else if req.Strategy != CategorizeDirect {
		return CategorizeResult{}, badRequestf("unknown categorize strategy %q", req.Strategy)
	}
	if len(categories) == 0 {
		return CategorizeResult{}, badRequestf("no categories to assign to")
	}
	c := &PreparedCategorize{e: e, s: s, categories: categories}
	assignments, err := e.mapIdx(ctx, len(req.Items), func(ctx context.Context, i int) (string, error) {
		return c.Ask(ctx, req.Items[i])
	})
	if err != nil {
		return CategorizeResult{}, fmt.Errorf("categorize: %w", err)
	}
	return CategorizeResult{
		Assignments: assignments,
		Categories:  categories,
		Usage:       s.usage(),
	}, nil
}

// PreparedCategorize is the per-item form of direct categorization: the
// session is built once and Ask assigns one item to the closed category
// set. Categorize itself runs its assignment fan-out through Ask. Safe
// for concurrent use.
type PreparedCategorize struct {
	e          *Engine
	s          *session
	categories []string
}

// PrepareCategorize returns the per-item form of CategorizeDirect over
// the given closed category set.
func (e *Engine) PrepareCategorize(categories []string) (*PreparedCategorize, error) {
	if len(categories) == 0 {
		return nil, badRequestf("no categories to assign to")
	}
	return &PreparedCategorize{e: e, s: e.newBatchedSession(), categories: categories}, nil
}

// Ask assigns one item to a category.
func (c *PreparedCategorize) Ask(ctx context.Context, item string) (string, error) {
	return quality.AskWithRetry(ctx, c.s.model, prompt.Categorize(item, c.categories),
		func(text string) (string, error) {
			v, err := prompt.ParseValue(text)
			if err != nil {
				return "", err
			}
			// Snap to the closest legal category; reject junk so the
			// retry loop re-asks.
			for _, cat := range c.categories {
				if v == cat {
					return cat, nil
				}
			}
			return "", fmt.Errorf("%q not in category set: %w", v, prompt.ErrUnparseable)
		}, c.e.retries)
}
