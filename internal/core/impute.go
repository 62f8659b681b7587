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
// the training table is indexed (or its index found) and the session
// opened once, then Ask imputes one query record at a time. Impute itself
// is PrepareImpute plus a bounded fan-out over Ask. Safe for concurrent
// use.
type PreparedImpute struct {
	e   *Engine
	s   *session
	req ImputeRequest

	// ix serves the k-NN vote and the few-shot example pool; it stays nil
	// when no query ever reads a neighbour (kMax == 0: the llm strategy
	// zero-shot, or no training table). A neighbour's target value and text
	// are read from its row of req.Train, which is the neighbour's position
	// in ix — except under duplicate ids, where rows maps a position to the
	// last row carrying that id (the row whose vector the index kept).
	ix   *embed.Index
	rows []int32
	kMax int
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
	if req.Neighbors < 0 || req.Examples < 0 {
		return nil, badRequestf("negative neighbour or example count")
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
	if len(req.Train) < req.Examples {
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

	// One pass over the training table checks every record carries the
	// target and, when a registry may already hold this table's index,
	// hashes it into the key the index is filed under.
	var key *embed.KeyWriter
	if p.kMax > 0 && e.registry != nil {
		key = embed.NewKeyWriter()
		key.String(req.TargetField)
	}
	for _, r := range req.Train {
		if _, ok := r.Get(req.TargetField); !ok {
			return nil, badRequestf("training record %q lacks target %q", r.ID, req.TargetField)
		}
		if key != nil {
			key.String(r.ID)
			key.Int(len(r.Fields))
			for _, f := range r.Fields {
				key.String(f.Name)
				key.String(f.Value)
			}
		}
	}
	if p.kMax > 0 {
		// Training records are indexed by their serialization without the
		// target — the same view the model gets, so neighbours reflect
		// queryable evidence only. The corpus is embedded in parallel, or
		// not rendered at all when an index registry already holds it (an
		// earlier job over the same table, planner profiling runs).
		render := func() []embed.Item {
			items := make([]embed.Item, len(req.Train))
			for i, r := range req.Train {
				items[i] = embed.Item{ID: r.ID, Text: p.serialize(r)}
			}
			return items
		}
		if key != nil {
			p.ix = e.registry.IndexFrom(e.embedder, key.Sum(), e.ixOpts, render)
		} else {
			p.ix = e.index(render())
		}
		if p.ix.Len() != len(req.Train) { // duplicate ids: the last row wins
			p.rows = make([]int32, p.ix.Len())
			for i, r := range req.Train {
				pos, _ := p.ix.Position(r.ID)
				p.rows[pos] = int32(i)
			}
		}
	}
	// Imputation prompts are homogeneous per-record unit tasks (the knn
	// strategy issues none, so the wrapper is inert there).
	p.s = e.newBatchedSession()
	return p, nil
}

// serialize renders a record the way the model and the index see it:
// without the target field.
func (p *PreparedImpute) serialize(r dataset.Record) string {
	return r.WithoutField(p.req.TargetField).String()
}

// trainRow returns the training record a neighbour stands for.
func (p *PreparedImpute) trainRow(nb embed.Neighbor) dataset.Record {
	pos, _ := p.ix.Position(nb.ID)
	if p.rows != nil {
		pos = int(p.rows[pos])
	}
	return p.req.Train[pos]
}

// Ask imputes the target field of one query record. Any existing target
// value is ignored (and never shown to the model).
func (p *PreparedImpute) Ask(ctx context.Context, q dataset.Record) (ImputeAnswer, error) {
	// The query is serialized and embedded exactly once.
	serialized := p.serialize(q)
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
			v, _ := p.trainRow(nb).Get(p.req.TargetField)
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
			r := p.trainRow(nb)
			v, _ := r.Get(p.req.TargetField)
			examples = append(examples, prompt.Example{Input: p.serialize(r), Output: v})
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
