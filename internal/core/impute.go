package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

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
	// TrainKey, when set, is a collision-resistant key of Train's content
	// — a server's SHA-256 of the table's bytes. PrepareImpute then files
	// the training index under it instead of hashing every training row.
	// Zero, the default, hashes the rows.
	TrainKey embed.SourceKey
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
// opened once, then Ask imputes one query record at a time and AskGroup a
// group of them with one k-NN pass. Impute itself is PrepareImpute, the
// grouped k-NN pass, and a bounded fan-out over the asks the vote leaves.
// Safe for concurrent use.
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

	// Every training record must carry the target. One pass checks that
	// and, when a registry may already hold this table's index and the
	// caller named the table by no key of its own, hashes it into the key
	// the index is filed under. A table the caller named is checked only
	// when its index is rendered: the registry keeps a source-keyed slot
	// only for a render that passed, and the name is a hash of the table's
	// exact bytes, so a table whose slot exists has passed already.
	var key *embed.KeyWriter
	named := false
	if p.kMax > 0 && e.registry != nil {
		key = embed.NewKeyWriter()
		if named = req.TrainKey != (embed.SourceKey{}); named {
			// A leading zero keeps these keys apart from row hashes, which
			// begin with the length of a non-empty target.
			key.Int(0)
			key.String(req.TargetField)
			key.String(string(req.TrainKey[:]))
		} else {
			key.String(req.TargetField)
		}
	}
	if !named {
		for _, r := range req.Train {
			if err := p.checkTarget(r); err != nil {
				return nil, err
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
	}
	if p.kMax > 0 {
		// Training records are indexed by their serialization without the
		// target — the same view the model gets, so neighbours reflect
		// queryable evidence only. The corpus is embedded in parallel, or
		// not rendered at all when an index registry already holds it (an
		// earlier job over the same table, planner profiling runs). A
		// registry keeps an index as long as it lives, so the IDs are
		// copies: a record's strings may share one buffer with its whole
		// table (a server's decoded request does).
		render := func() ([]embed.Item, error) {
			items := make([]embed.Item, len(req.Train))
			for i, r := range req.Train {
				if named {
					if err := p.checkTarget(r); err != nil {
						return nil, err
					}
				}
				items[i] = embed.Item{ID: strings.Clone(r.ID), Text: p.serialize(r)}
			}
			return items, nil
		}
		if key != nil {
			ix, err := e.registry.IndexFrom(e.embedder, key.Sum(), e.ixOpts, render)
			if err != nil {
				return nil, err
			}
			p.ix = ix
		} else {
			items, _ := render() // unnamed: checked above
			p.ix = e.index(items)
		}
		if p.ix.Len() != len(req.Train) { // duplicate ids: the last row wins
			p.rows = make([]int32, p.ix.Len())
			for i, r := range req.Train {
				pos, _ := p.ix.Position(r.ID)
				p.rows[pos] = int32(i)
			}
		}
	}
	p.s = e.newSession()
	return p, nil
}

// checkTarget reports a training record that lacks the target.
func (p *PreparedImpute) checkTarget(r dataset.Record) error {
	if _, ok := r.Get(p.req.TargetField); !ok {
		return badRequestf("training record %q lacks target %q", r.ID, p.req.TargetField)
	}
	return nil
}

// UsesIndex reports whether a query reads its nearest training records —
// whether AskGroup has a k-NN pass for its group to share.
func (p *PreparedImpute) UsesIndex() bool { return p.kMax > 0 }

// serialize renders a record the way the model and the index see it:
// without the target field.
func (p *PreparedImpute) serialize(r dataset.Record) string {
	return r.WithoutField(p.req.TargetField).String()
}

// trainRow returns the training record a neighbour stands for.
func (p *PreparedImpute) trainRow(nb embed.Neighbor) dataset.Record {
	pos := nb.Pos
	if p.rows != nil {
		pos = int(p.rows[pos])
	}
	return p.req.Train[pos]
}

// Ask imputes the target field of one query record. Any existing target
// value is ignored (and never shown to the model).
func (p *PreparedImpute) Ask(ctx context.Context, q dataset.Record) (ImputeAnswer, error) {
	// The query is serialized and embedded exactly once.
	buf := p.render(q)
	defer buf.release()
	var nn []embed.Neighbor
	if p.kMax > 0 {
		nn = p.ix.Nearest(string(buf.record), p.kMax)
	}
	if v, ok := p.vote(nn); ok {
		return ImputeAnswer{Value: v}, nil
	}
	return p.askModel(ctx, buf, nn)
}

// AskGroup imputes a group of query records — what Ask returns for each —
// with one blocked k-NN pass for the whole group
// (embed.Index.NearestGroup). Each answer is reported through answer as
// soon as it is known: every one the vote decides at once, on the calling
// goroutine. Under WithBatching the records the vote leaves ask the model
// as one group, whose cache misses ride one envelope. Otherwise every one
// the model has already answered (a cache hit, workflow.HitsOnly) is
// reported at once too, and each other one when its ask returns; those
// asks run concurrently, one goroutine each, as separate Asks would.
// AskGroup returns once every answer has been reported. answer may be
// called from several goroutines at once.
func (p *PreparedImpute) AskGroup(ctx context.Context, qs []dataset.Record, answer func(i int, a ImputeAnswer, err error)) {
	bufs, nns := p.nearestGroup(qs)
	ask := func(i int) {
		a, err := p.askRendered(ctx, bufs[i])
		bufs[i].release()
		answer(i, a, err)
	}
	var (
		wg    sync.WaitGroup
		pctx  context.Context
		probe *workflow.HitProbe
		asked []int // batched: the queries the group asks
	)
	pending := -1 // the latest query the cache left; the last one asks on this goroutine
	for i := range qs {
		if v, ok := p.vote(nns[i]); ok {
			bufs[i].release()
			answer(i, ImputeAnswer{Value: v}, nil)
			continue
		}
		if p.e.batch > 1 {
			asked = append(asked, i)
			continue
		}
		if probe == nil {
			pctx, probe = workflow.HitsOnly(ctx)
		}
		bufs[i].prompt = p.appendAsk(bufs[i].prompt[:0], bufs[i].record, nns[i])
		if a, err := p.askRendered(pctx, bufs[i]); probe.Settle(ctx, err) {
			bufs[i].release()
			answer(i, a, err)
			continue
		}
		if pending >= 0 {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ask(i)
			}(pending)
		}
		pending = i
	}
	if len(asked) > 0 {
		askGroup(ctx, p.s.model, len(asked), func(dst []byte, k int) []byte {
			i := asked[k]
			defer bufs[i].release() // rendered: the query's buffer is done
			return p.appendAsk(dst, bufs[i].record, nns[i])
		}, prompt.ParseValue, func(k int, v string, err error) {
			answer(asked[k], ImputeAnswer{Value: v, ByLLM: true}, err)
		})
	}
	if pending >= 0 {
		ask(pending)
	}
	wg.Wait()
}

// render serializes a query into a pooled buffer the way the model and the
// index see it: without the target field.
func (p *PreparedImpute) render(q dataset.Record) *promptBuf {
	buf := getPromptBuf()
	buf.record = q.AppendWithout(buf.record[:0], p.req.TargetField)
	return buf
}

// nearestGroup renders each query and finds its kMax nearest training
// records, all in one NearestGroup call. The caller releases the buffers.
func (p *PreparedImpute) nearestGroup(qs []dataset.Record) ([]*promptBuf, [][]embed.Neighbor) {
	bufs := make([]*promptBuf, len(qs))
	texts := make([]string, len(qs))
	for i, q := range qs {
		bufs[i] = p.render(q)
		texts[i] = string(bufs[i].record)
	}
	if p.kMax == 0 {
		return bufs, make([][]embed.Neighbor, len(qs))
	}
	return bufs, p.ix.NearestGroup(texts, p.kMax)
}

// vote returns the k-NN value of a query its neighbours decide: every
// query under the knn strategy, and under hybrid one whose k nearest all
// agree. False leaves the query to the model.
func (p *PreparedImpute) vote(nn []embed.Neighbor) (string, bool) {
	if p.req.Strategy == ImputeLLM {
		return "", false
	}
	vote := nn
	if len(vote) > p.req.Neighbors {
		vote = vote[:p.req.Neighbors]
	}
	// Each value's count in the order first seen, on the stack while the
	// values fit in it: k is small, so a scan of the values so far beats a
	// map. Past that, a map finds a value's tally, so a large k costs O(k).
	type tally struct {
		v string
		n int
	}
	var (
		stack   [16]tally
		tallies = stack[:0]
		index   map[string]int // value → its tally, once the stack is full
	)
	for _, nb := range vote {
		v, _ := p.trainRow(nb).Get(p.req.TargetField)
		i, seen := 0, false
		if index != nil {
			i, seen = index[v]
		} else {
			for i < len(tallies) && tallies[i].v != v {
				i++
			}
			seen = i < len(tallies)
		}
		if !seen {
			i = len(tallies)
			tallies = append(tallies, tally{v: v})
			if index != nil {
				index[v] = i
			} else if len(tallies) == len(stack) {
				index = make(map[string]int, 2*len(stack))
				for j, t := range tallies {
					index[t.v] = j
				}
			}
		}
		tallies[i].n++
	}
	best, bestN := "", 0
	for _, t := range tallies { // first-seen tie-break: nearest wins
		if t.n > bestN {
			best, bestN = t.v, t.n
		}
	}
	return best, p.req.Strategy == ImputeKNN || (len(vote) > 0 && bestN == len(vote))
}

// askModel asks the model to impute the query serialized in buf.record,
// with few-shot examples drawn from its neighbours nn.
func (p *PreparedImpute) askModel(ctx context.Context, buf *promptBuf, nn []embed.Neighbor) (ImputeAnswer, error) {
	buf.prompt = p.appendAsk(buf.prompt[:0], buf.record, nn)
	return p.askRendered(ctx, buf)
}

// appendAsk appends to dst the imputation prompt for the serialized query
// record, with few-shot examples drawn from its neighbours nn.
func (p *PreparedImpute) appendAsk(dst, record []byte, nn []embed.Neighbor) []byte {
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
	return prompt.AppendImpute(dst, record, p.req.TargetField, examples)
}

// askRendered asks the model the imputation prompt in buf.prompt.
func (p *PreparedImpute) askRendered(ctx context.Context, buf *promptBuf) (ImputeAnswer, error) {
	v, err := quality.AskBytesWithRetry(ctx, p.s.model, buf.prompt, prompt.ParseValue, parseRetries)
	return ImputeAnswer{Value: v, ByLLM: true}, err
}

// Impute fills the target field of every query record: the k-NN pass
// first, embed.GroupWidth queries per blocked pass, then the asks the vote
// leaves, at most parallelism at a time and in query order, as before.
// Under WithBatching each aligned block of queries is one AskGroup.
func (e *Engine) Impute(ctx context.Context, req ImputeRequest) (ImputeResult, error) {
	if len(req.Queries) == 0 {
		return ImputeResult{}, badRequestf("no queries to impute")
	}
	p, err := e.PrepareImpute(req)
	if err != nil {
		return ImputeResult{}, err
	}
	n := len(req.Queries)
	if e.batch > 1 {
		return p.result(mapAsks(ctx, e, req.Queries, true, nil, p.AskGroup))
	}
	nns := make([][]embed.Neighbor, n)
	if p.kMax > 0 {
		groups := (n + embed.GroupWidth - 1) / embed.GroupWidth
		if _, err := workflow.Map(ctx, groups, e.parallelism, func(_ context.Context, g int) (struct{}, error) {
			lo, hi := g*embed.GroupWidth, min((g+1)*embed.GroupWidth, n)
			bufs, group := p.nearestGroup(req.Queries[lo:hi])
			for _, b := range bufs {
				b.release()
			}
			copy(nns[lo:hi], group)
			return struct{}{}, nil
		}); err != nil {
			return ImputeResult{}, fmt.Errorf("%s impute: %w", p.req.Strategy, err)
		}
	}
	return p.result(workflow.Map(ctx, n, e.parallelism, func(ctx context.Context, i int) (ImputeAnswer, error) {
		if v, ok := p.vote(nns[i]); ok {
			return ImputeAnswer{Value: v}, nil
		}
		buf := p.render(req.Queries[i])
		defer buf.release()
		return p.askModel(ctx, buf, nns[i])
	}))
}

// result folds the answers of Impute's fan-out into its result.
func (p *PreparedImpute) result(answers []ImputeAnswer, err error) (ImputeResult, error) {
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
