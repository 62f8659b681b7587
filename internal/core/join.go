package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/consistency"
	"repro/internal/token"
	"repro/internal/workflow"
)

// JoinStrategy selects how a fuzzy join is executed.
type JoinStrategy string

// Join strategies (Wang et al.'s transitivity-sequenced joins, Section
// 3.3).
const (
	// JoinNestedLoop asks the model about every left×right pair.
	JoinNestedLoop JoinStrategy = "nested-loop"
	// JoinTransitive orders candidate pairs by embedding similarity and
	// skips any comparison already implied by the positive transitive
	// closure of earlier answers, with an embedding cutoff discarding
	// hopeless pairs for free.
	JoinTransitive JoinStrategy = "transitive"
)

// JoinRequest asks for the matching pairs between two record sets.
type JoinRequest struct {
	Left, Right []Entity
	// Strategy selects the decomposition; default JoinTransitive.
	Strategy JoinStrategy
	// CandidateDistance is the embedding L2 distance beyond which a pair
	// is not even considered (default 1.1, effectively everything for
	// normalised n-gram embeddings).
	CandidateDistance float64
}

// JoinPair is one matched (left, right) pair in a JoinResult.
type JoinPair struct {
	LeftID, RightID string
}

// JoinResult is the outcome of Join.
type JoinResult struct {
	// Matches lists the matched ID pairs, ordered by left then right ID.
	Matches []JoinPair
	// LLMComparisons counts match questions sent to the model.
	LLMComparisons int
	// SkippedByTransitivity counts pairs decided by closure for free.
	SkippedByTransitivity int
	// SkippedByDistance counts pairs discarded by the embedding cutoff.
	SkippedByDistance int
	// Usage is the total token spend.
	Usage token.Usage
}

// Join fuzzy-joins Left and Right on entity identity.
func (e *Engine) Join(ctx context.Context, req JoinRequest) (JoinResult, error) {
	if len(req.Left) == 0 || len(req.Right) == 0 {
		return JoinResult{}, badRequestf("join needs records on both sides")
	}
	if req.Strategy == "" {
		req.Strategy = JoinTransitive
	}
	if req.CandidateDistance == 0 {
		req.CandidateDistance = 1.1
	}
	ids := make(map[string]bool, len(req.Left)+len(req.Right))
	for _, r := range append(append([]Entity{}, req.Left...), req.Right...) {
		if ids[r.ID] {
			return JoinResult{}, badRequestf("duplicate entity ID %q across join inputs", r.ID)
		}
		ids[r.ID] = true
	}
	s := e.newSession()
	var res JoinResult
	var err error
	switch req.Strategy {
	case JoinNestedLoop:
		res, err = e.joinNestedLoop(ctx, s, req)
	case JoinTransitive:
		res, err = e.joinTransitive(ctx, s, req)
	default:
		return JoinResult{}, badRequestf("unknown join strategy %q", req.Strategy)
	}
	if err != nil {
		return JoinResult{}, err
	}
	sort.Slice(res.Matches, func(i, j int) bool {
		if res.Matches[i].LeftID != res.Matches[j].LeftID {
			return res.Matches[i].LeftID < res.Matches[j].LeftID
		}
		return res.Matches[i].RightID < res.Matches[j].RightID
	})
	res.Usage = s.usage()
	return res, nil
}

func (e *Engine) joinNestedLoop(ctx context.Context, s *session, req JoinRequest) (JoinResult, error) {
	j := &PreparedJoin{e: e, s: s, right: req.Right}
	answers, err := workflow.Map(ctx, len(req.Left), e.parallelism, func(ctx context.Context, l int) (JoinAnswer, error) {
		return j.Ask(ctx, req.Left[l])
	})
	if err != nil {
		return JoinResult{}, fmt.Errorf("nested-loop join: %w", err)
	}
	var res JoinResult
	for _, a := range answers {
		res.Matches = append(res.Matches, a.Matches...)
		res.LLMComparisons += a.Comparisons
	}
	return res, nil
}

// JoinAnswer is one left record's outcome from a PreparedJoin.
type JoinAnswer struct {
	// Matches lists the left record's matched pairs in right-side order.
	Matches []JoinPair
	// Comparisons counts the match questions sent to the model.
	Comparisons int
}

// PreparedJoin is the per-record form of the nested-loop join: the right
// side and the session are fixed once, then Ask matches one left record
// against every right record. Join's nested-loop strategy is a bounded
// fan-out over Ask, so overlap is per left record. Safe for concurrent use.
type PreparedJoin struct {
	e     *Engine
	s     *session
	right []Entity
}

// PrepareJoin returns the per-record form of JoinNestedLoop against the
// given right side.
func (e *Engine) PrepareJoin(right []Entity) (*PreparedJoin, error) {
	if len(right) == 0 {
		return nil, badRequestf("join needs records on both sides")
	}
	return &PreparedJoin{e: e, s: e.newSession(), right: right}, nil
}

// Ask matches one left record against the whole right side, one
// comparison at a time; callers overlap left records, not pairs.
func (j *PreparedJoin) Ask(ctx context.Context, left Entity) (JoinAnswer, error) {
	for _, r := range j.right {
		if r.ID == left.ID {
			return JoinAnswer{}, badRequestf("duplicate entity ID %q across join inputs", left.ID)
		}
	}
	ans := JoinAnswer{Comparisons: len(j.right)}
	for r := range j.right {
		yes, err := j.e.matchOnce(ctx, j.s, left, j.right[r])
		if err != nil {
			return JoinAnswer{}, err
		}
		if yes {
			ans.Matches = append(ans.Matches, JoinPair{LeftID: left.ID, RightID: j.right[r].ID})
		}
	}
	return ans, nil
}

// joinTransitive sequences candidate comparisons from most to least
// similar so that positive transitive closure forms early and later
// comparisons can be skipped — Wang et al.'s cost reduction. Sequential
// by design: each answer informs whether the next question is needed.
func (e *Engine) joinTransitive(ctx context.Context, s *session, req JoinRequest) (JoinResult, error) {
	type cand struct {
		l, r int
		dist float64
	}
	// Index the right side once (embedded in parallel); each left record
	// is embedded once by its radius query. The partition pruning bound
	// keeps Within exact, so candidate generation matches the old full
	// L×R scan while skipping partitions beyond the cutoff.
	rightIDs := corpusIDs(len(req.Right))
	rix := e.indexEntities(req.Right, rightIDs)
	var res JoinResult
	var cands []cand
	for l := range req.Left {
		nbrs := rix.Within(req.Left[l].Text, req.CandidateDistance)
		res.SkippedByDistance += len(req.Right) - len(nbrs)
		for _, nb := range nbrs {
			cands = append(cands, cand{l, nb.Pos, nb.Distance}) // the right row: it is indexed in order
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		if cands[i].l != cands[j].l {
			return cands[i].l < cands[j].l
		}
		return cands[i].r < cands[j].r
	})
	graph := consistency.NewMatchGraph()
	for _, c := range cands {
		lid, rid := req.Left[c.l].ID, req.Right[c.r].ID
		if graph.Connected(lid, rid) {
			res.SkippedByTransitivity++
			res.Matches = append(res.Matches, JoinPair{LeftID: lid, RightID: rid})
			continue
		}
		yes, err := e.matchOnce(ctx, s, req.Left[c.l], req.Right[c.r])
		if err != nil {
			return JoinResult{}, fmt.Errorf("transitive join: %w", err)
		}
		res.LLMComparisons++
		if yes {
			graph.AddMatch(lid, rid)
			res.Matches = append(res.Matches, JoinPair{LeftID: lid, RightID: rid})
		}
	}
	return res, nil
}
