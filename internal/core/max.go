package core

import (
	"context"
	"fmt"

	"repro/internal/token"
)

// MaxStrategy selects how the maximum item is found.
type MaxStrategy string

// Max strategies (Guo et al. / Khan, Section 3.2).
const (
	// MaxTournament compares all pairs and returns the repaired-order
	// winner — O(n^2) calls, highest confidence.
	MaxTournament MaxStrategy = "tournament"
	// MaxRatingThenTournament rates every item (O(n) cheap tasks), keeps
	// the top-rated bucket, and runs the tournament only inside it — the
	// coarse→fine hybrid with near-tournament accuracy at far lower cost.
	MaxRatingThenTournament MaxStrategy = "rating-then-tournament"
)

// MaxRequest asks for the single item ranking highest by the criterion.
type MaxRequest struct {
	Items     []string
	Criterion string
	// Strategy selects the decomposition; default MaxRatingThenTournament.
	Strategy MaxStrategy
	// RatingScale for the coarse phase (default 7).
	RatingScale int
}

// MaxResult is the outcome of Max.
type MaxResult struct {
	// Item is the consensus maximum.
	Item string
	// Finalists are the items that reached the fine phase.
	Finalists []string
	// Usage is the total token spend.
	Usage token.Usage
}

// Max finds the item ranking highest by the criterion.
func (e *Engine) Max(ctx context.Context, req MaxRequest) (MaxResult, error) {
	if len(req.Items) == 0 {
		return MaxResult{}, badRequestf("no items")
	}
	if req.Strategy == "" {
		req.Strategy = MaxRatingThenTournament
	}
	if req.RatingScale == 0 {
		req.RatingScale = 7
	}
	if len(req.Items) == 1 {
		return MaxResult{Item: req.Items[0], Finalists: req.Items}, nil
	}
	s := e.newSession()
	switch req.Strategy {
	case MaxTournament:
		winner, err := e.tournamentWinner(ctx, s, req.Items, req.Criterion)
		if err != nil {
			return MaxResult{}, err
		}
		return MaxResult{Item: winner, Finalists: req.Items, Usage: s.usage()}, nil
	case MaxRatingThenTournament:
		// Coarse phase: rate everything; keep the top non-empty bucket
		// plus the bucket below it (ratings are noisy; a one-bucket slip
		// must not eliminate the true max).
		vals, err := e.rateAll(ctx, s, req.Items, req.Criterion, req.RatingScale)
		if err != nil {
			return MaxResult{}, fmt.Errorf("max rating phase: %w", err)
		}
		best := 0
		for _, v := range vals {
			if v > best {
				best = v
			}
		}
		var finalists []string
		for i, it := range req.Items {
			if vals[i] >= best-1 {
				finalists = append(finalists, it)
			}
		}
		if len(finalists) == 1 {
			return MaxResult{Item: finalists[0], Finalists: finalists, Usage: s.usage()}, nil
		}
		winner, err := e.tournamentWinner(ctx, s, finalists, req.Criterion)
		if err != nil {
			return MaxResult{}, err
		}
		return MaxResult{Item: winner, Finalists: finalists, Usage: s.usage()}, nil
	default:
		return MaxResult{}, badRequestf("unknown max strategy %q", req.Strategy)
	}
}

func (e *Engine) tournamentWinner(ctx context.Context, s *session, items []string, criterion string) (string, error) {
	t, err := e.tournament(ctx, s, items, criterion, 0, false)
	if err != nil {
		return "", fmt.Errorf("tournament: %w", err)
	}
	return t.MaxItem(), nil
}
