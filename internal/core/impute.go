package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/prompt"
	"repro/internal/quality"
	"repro/internal/token"
	"repro/internal/workflow"
)

// ImputeStrategy selects how missing values are filled.
type ImputeStrategy string

// Impute strategies (Section 3.4 of the paper).
const (
	// ImputeKNN imputes from the mode of the k nearest training records'
	// target values — the pure non-LLM proxy. Free.
	ImputeKNN ImputeStrategy = "knn"
	// ImputeLLM asks the model for every record, optionally with few-shot
	// examples drawn from the record's nearest training neighbours.
	ImputeLLM ImputeStrategy = "llm"
	// ImputeHybrid uses the k-NN value when all k neighbours agree and
	// asks the model only for the contested remainder — the paper's
	// hybrid, which matches LLM accuracy at roughly half the cost.
	ImputeHybrid ImputeStrategy = "hybrid"
)

// ImputeRequest asks for a missing attribute of each query record.
type ImputeRequest struct {
	// Train records carry ground-truth target values; they feed k-NN and
	// few-shot examples.
	Train []dataset.Record
	// Queries are the records to impute. Any existing target value is
	// ignored (and never shown to the model).
	Queries []dataset.Record
	// TargetField is the attribute to fill.
	TargetField string
	// Strategy selects the decomposition; default ImputeHybrid.
	Strategy ImputeStrategy
	// Neighbors is k for the k-NN component (default 3).
	Neighbors int
	// Examples is the number of few-shot examples per LLM prompt
	// (default 0: zero-shot).
	Examples int
}

// ImputeResult is the outcome of Impute.
type ImputeResult struct {
	// Values holds one imputed value per query, index-aligned.
	Values []string
	// LLMCalls counts queries that reached the model.
	LLMCalls int
	// KNNDecided counts queries answered by unanimous k-NN (hybrid) or by
	// k-NN mode (knn strategy).
	KNNDecided int
	// Usage is the total token spend.
	Usage token.Usage
}

// ImputeAnswer is one query record's outcome from a PreparedImpute.
type ImputeAnswer struct {
	// Value is the imputed target value.
	Value string
	// ByLLM reports whether the model was asked (false: k-NN decided).
	ByLLM bool
}

// PreparedImpute is the per-record form of Impute under a fixed strategy:
// the training table is rendered and indexed, the target map built and
// the session opened once, then Ask imputes one query record at a time.
// Impute itself is PrepareImpute plus a bounded fan-out over Ask. Safe for
// concurrent use.
type PreparedImpute struct {
	e   *Engine
	s   *session
	req ImputeRequest

	// ix, targets and trainText (each training record's rendering without
	// the target, by ID) serve the k-NN vote and the few-shot example pool;
	// they stay nil when no query ever reads a neighbour (kMax == 0: the
	// llm strategy zero-shot, or no training table).
	ix        *embed.Index
	targets   map[string]string
	trainText map[string]string
	kMax      int
}

// PrepareImpute validates req (Queries is ignored) and returns its
// per-record form.
func (e *Engine) PrepareImpute(req ImputeRequest) (*PreparedImpute, error) {
	if req.TargetField == "" {
		return nil, badRequestf("missing target field")
	}
	if req.Strategy == "" {
		req.Strategy = ImputeHybrid
	}
	if req.Neighbors == 0 {
		req.Neighbors = 3
	}
	switch req.Strategy {
	case ImputeKNN, ImputeLLM, ImputeHybrid:
	default:
		return nil, badRequestf("unknown impute strategy %q", req.Strategy)
	}
	if req.Strategy != ImputeLLM && len(req.Train) == 0 {
		return nil, badRequestf("strategy %q needs training records", req.Strategy)
	}
	if (req.Examples > 0) && len(req.Train) < req.Examples {
		return nil, badRequestf("%d examples requested but only %d training records", req.Examples, len(req.Train))
	}
	// One top-k query per record, wide enough for both the k-NN vote and
	// the few-shot example pool. The llm strategy never votes, so without
	// examples it needs no neighbours — and then no index either.
	p := &PreparedImpute{e: e, req: req, kMax: req.Examples}
	if req.Strategy != ImputeLLM && req.Neighbors > p.kMax {
		p.kMax = req.Neighbors
	}
	if len(req.Train) == 0 {
		p.kMax = 0
	}

	// Index training records by their serialization without the target —
	// the same view the model gets, so neighbours reflect queryable
	// evidence only. The corpus is embedded in parallel, or reused outright
	// when an index registry already holds it (e.g. planner profiling runs
	// over the same training set).
	var trainItems []embed.Item
	if p.kMax > 0 {
		p.targets = make(map[string]string, len(req.Train))
		p.trainText = make(map[string]string, len(req.Train))
		trainItems = make([]embed.Item, 0, len(req.Train))
	}
	for _, r := range req.Train {
		v, ok := r.Get(req.TargetField)
		if !ok {
			return nil, badRequestf("training record %q lacks target %q", r.ID, req.TargetField)
		}
		if p.kMax == 0 {
			continue
		}
		text := r.WithoutField(req.TargetField).String()
		trainItems = append(trainItems, embed.Item{ID: r.ID, Text: text})
		p.targets[r.ID] = v
		p.trainText[r.ID] = text
	}
	if p.kMax > 0 {
		p.ix = e.index(trainItems)
	}
	// Imputation prompts are homogeneous per-record unit tasks (the knn
	// strategy issues none, so the wrapper is inert there).
	p.s = e.newBatchedSession()
	return p, nil
}

// Ask imputes the target field of one query record. Any existing target
// value is ignored (and never shown to the model).
func (p *PreparedImpute) Ask(ctx context.Context, q dataset.Record) (ImputeAnswer, error) {
	// The query is serialized and embedded exactly once.
	serialized := q.WithoutField(p.req.TargetField).String()
	var nn []embed.Neighbor
	if p.kMax > 0 {
		nn = p.ix.Nearest(serialized, p.kMax)
	}
	if p.req.Strategy != ImputeLLM {
		vote := nn
		if len(vote) > p.req.Neighbors {
			vote = vote[:p.req.Neighbors]
		}
		votes := make(map[string]int)
		var order []string
		for _, nb := range vote {
			v := p.targets[nb.ID]
			if votes[v] == 0 {
				order = append(order, v)
			}
			votes[v]++
		}
		best, bestN := "", 0
		for _, v := range order { // first-seen tie-break: nearest wins
			if votes[v] > bestN {
				best, bestN = v, votes[v]
			}
		}
		if p.req.Strategy == ImputeKNN || (len(vote) > 0 && bestN == len(vote)) {
			return ImputeAnswer{Value: best}, nil
		}
	}
	var examples []prompt.Example
	if p.req.Examples > 0 {
		// Few-shot examples: the query's nearest training neighbours,
		// shown with their gold target (the paper's k'-neighbour
		// examples) — a prefix of the single per-query k-NN result.
		if len(nn) > p.req.Examples {
			nn = nn[:p.req.Examples]
		}
		for _, nb := range nn {
			examples = append(examples, prompt.Example{
				Input:  p.trainText[nb.ID],
				Output: p.targets[nb.ID],
			})
		}
	}
	v, err := quality.AskWithRetry(ctx, p.s.model, prompt.Impute(serialized, p.req.TargetField, examples),
		prompt.ParseValue, p.e.retries)
	return ImputeAnswer{Value: v, ByLLM: true}, err
}

// Impute fills the target field of every query record.
func (e *Engine) Impute(ctx context.Context, req ImputeRequest) (ImputeResult, error) {
	if len(req.Queries) == 0 {
		return ImputeResult{}, badRequestf("no queries to impute")
	}
	p, err := e.PrepareImpute(req)
	if err != nil {
		return ImputeResult{}, err
	}
	answers, err := workflow.Map(ctx, len(req.Queries), e.parallelism, func(ctx context.Context, i int) (ImputeAnswer, error) {
		return p.Ask(ctx, req.Queries[i])
	})
	if err != nil {
		return ImputeResult{}, fmt.Errorf("%s impute: %w", p.req.Strategy, err)
	}
	res := ImputeResult{Values: make([]string, len(answers))}
	for i, a := range answers {
		res.Values[i] = a.Value
		if a.ByLLM {
			res.LLMCalls++
		} else {
			res.KNNDecided++
		}
	}
	res.Usage = p.s.usage()
	return res, nil
}

// NearestTrainValues returns the k nearest training target values for a
// query — exposed for diagnostics and the planner's feature probes.
func NearestTrainValues(em embed.Embedder, train []dataset.Record, query dataset.Record, targetField string, k int) []string {
	ix := embed.NewIndex(em)
	targets := make(map[string]string, len(train))
	items := make([]embed.Item, 0, len(train))
	for _, r := range train {
		v, _ := r.Get(targetField)
		items = append(items, embed.Item{ID: r.ID, Text: r.WithoutField(targetField).String()})
		targets[r.ID] = v
	}
	ix.AddAll(items)
	nn := ix.Nearest(query.WithoutField(targetField).String(), k)
	out := make([]string, 0, len(nn))
	for _, nb := range nn {
		out = append(out, targets[nb.ID])
	}
	sort.Strings(out)
	return out
}
