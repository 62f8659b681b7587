package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/consistency"
	"repro/internal/embed"
	"repro/internal/prompt"
	"repro/internal/quality"
	"repro/internal/token"
	"repro/internal/workflow"
)

// corpusIDs precomputes the string id of every corpus index once per
// request, keeping fmt.Sprintf out of the hot neighbour loops.
func corpusIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = strconv.Itoa(i)
	}
	return ids
}

// indexEntities builds a k-NN index over the corpus with one embedding
// pass (parallelised across CPUs), ids index-aligned with the corpus.
// With an index registry attached, the same corpus indexed by another
// stage or invocation is reused instead of re-embedded.
func (e *Engine) indexEntities(corpus []Entity, ids []string) *embed.Index {
	items := make([]embed.Item, len(corpus))
	for i, ent := range corpus {
		items[i] = embed.Item{ID: ids[i], Text: ent.Text}
	}
	return e.index(items)
}

// Entity is one record participating in entity resolution: an identifier
// plus the text the model sees.
type Entity struct {
	ID   string
	Text string
}

// ResolveStrategy selects how pairwise duplicate questions are answered.
type ResolveStrategy string

// Resolve strategies (Sections 3.3 and 3.4 of the paper).
const (
	// ResolveDirect asks the model one match question per pair — the
	// paper's Table 3 baseline. High precision, low recall.
	ResolveDirect ResolveStrategy = "direct"
	// ResolveTransitive augments each question with the k nearest
	// neighbours of both sides, compares all pairs within the
	// neighbourhood, and marks a pair as duplicate when any path of
	// "yes" judgements connects them (Section 3.3's internal-consistency
	// repair). Raises recall at a slight precision cost.
	ResolveTransitive ResolveStrategy = "transitive"
	// ResolveBlockedDirect short-circuits pairs whose embedding distance
	// exceeds a cutoff to "no" without an LLM call (Section 3.4's
	// non-LLM proxy), asking the model only about plausible pairs.
	ResolveBlockedDirect ResolveStrategy = "blocked-direct"
	// ResolveEvidence extends ResolveTransitive with the paper's stated
	// future work: flip BOTH "yes" and "no" answers when the surrounding
	// evidence is strong enough in the opposite direction. A direct "no"
	// becomes "yes" when a common neighbour links both sides; a direct
	// "yes" becomes "no" when several common neighbours agree with one
	// side but not the other and none supports the link.
	ResolveEvidence ResolveStrategy = "evidence"
)

// PairsRequest asks for match decisions over labelled record pairs drawn
// from a corpus.
type PairsRequest struct {
	// Corpus lists every record; neighbour augmentation searches it.
	Corpus []Entity
	// Pairs are (A, B) index pairs into Corpus to decide.
	Pairs [][2]int
	// Strategy selects the decomposition; default ResolveDirect.
	Strategy ResolveStrategy
	// Neighbors is the k of the k-NN augmentation (ResolveTransitive).
	Neighbors int
	// BlockDistance is the embedding L2 distance beyond which
	// ResolveBlockedDirect answers "no" for free (default 1.0).
	BlockDistance float64
}

// PairsResult is the outcome of ResolvePairs.
type PairsResult struct {
	// Match holds one decision per requested pair, index-aligned.
	Match []bool
	// LLMComparisons counts distinct match questions sent to the model.
	LLMComparisons int
	// FlippedByTransitivity counts pairs answered "no" directly but
	// promoted to "yes" by path evidence.
	FlippedByTransitivity int
	// FlippedToNo counts pairs answered "yes" directly but demoted by
	// contradicting evidence (ResolveEvidence only).
	FlippedToNo int
	// SkippedByBlocking counts pairs decided without the model.
	SkippedByBlocking int
	// Usage is the total token spend.
	Usage token.Usage
}

// ResolvePairs decides, for each requested pair, whether the two records
// refer to the same entity.
func (e *Engine) ResolvePairs(ctx context.Context, req PairsRequest) (PairsResult, error) {
	if len(req.Corpus) == 0 || len(req.Pairs) == 0 {
		return PairsResult{}, badRequestf("resolve needs a corpus and pairs")
	}
	for _, p := range req.Pairs {
		if p[0] < 0 || p[0] >= len(req.Corpus) || p[1] < 0 || p[1] >= len(req.Corpus) {
			return PairsResult{}, badRequestf("pair index out of range: %v", p)
		}
	}
	if req.Strategy == "" {
		req.Strategy = ResolveDirect
	}
	if req.Neighbors < 0 {
		return PairsResult{}, badRequestf("negative neighbour count")
	}
	if req.BlockDistance == 0 {
		req.BlockDistance = 1.0
	}
	s := e.newSession()
	var (
		res PairsResult
		err error
	)
	switch req.Strategy {
	case ResolveDirect:
		res, err = e.resolveDirect(ctx, s, req)
	case ResolveTransitive:
		res, err = e.resolveTransitive(ctx, s, req)
	case ResolveEvidence:
		res, err = e.resolveEvidence(ctx, s, req)
	case ResolveBlockedDirect:
		res, err = e.resolveBlocked(ctx, s, req)
	default:
		return PairsResult{}, badRequestf("unknown resolve strategy %q", req.Strategy)
	}
	res.Usage = s.usage()
	return res, err
}

// matchOnce asks a single duplicate question.
func (e *Engine) matchOnce(ctx context.Context, s *session, a, b Entity) (bool, error) {
	buf := getPromptBuf()
	defer buf.release()
	buf.prompt = prompt.AppendMatchPair(buf.prompt[:0], a.Text, b.Text)
	return quality.AskBytesWithRetry(ctx, s.model, buf.prompt, prompt.ParseYesNo, parseRetries)
}

// matchPairs asks one match question per pair of records, with the
// engine's parallelism, and returns the answers index-aligned.
func (e *Engine) matchPairs(ctx context.Context, s *session, records []Entity, pairs [][2]int) ([]bool, error) {
	return workflow.Map(ctx, len(pairs), e.parallelism, func(ctx context.Context, k int) (bool, error) {
		return e.matchOnce(ctx, s, records[pairs[k][0]], records[pairs[k][1]])
	})
}

func (e *Engine) resolveDirect(ctx context.Context, s *session, req PairsRequest) (PairsResult, error) {
	match, err := e.matchPairs(ctx, s, req.Corpus, req.Pairs)
	if err != nil {
		return PairsResult{}, fmt.Errorf("direct resolve: %w", err)
	}
	return PairsResult{Match: match, LLMComparisons: len(req.Pairs)}, nil
}

// resolveTransitive implements the Table 3 treatment: for each question
// pair, gather the k nearest corpus neighbours of both sides, ask the
// model about every pair within that neighbourhood (deduplicated
// globally — the cache makes repeats free and the count honest), build
// the global match graph, and answer each question by direct edge or by
// connectivity.
func (e *Engine) resolveTransitive(ctx context.Context, s *session, req PairsRequest) (PairsResult, error) {
	cmps, answers, err := e.neighbourhoodComparisons(ctx, s, req)
	if err != nil {
		return PairsResult{}, fmt.Errorf("transitive resolve: %w", err)
	}
	ids := corpusIDs(len(req.Corpus))
	graph := consistency.NewMatchGraph()
	direct := make(map[[2]int]bool, len(cmps))
	for i, c := range cmps {
		direct[c] = answers[i]
		graph.AddNode(ids[c[0]])
		graph.AddNode(ids[c[1]])
		if answers[i] {
			graph.AddMatch(ids[c[0]], ids[c[1]])
		}
	}
	res := PairsResult{Match: make([]bool, len(req.Pairs)), LLMComparisons: len(cmps)}
	for qi, p := range req.Pairs {
		a, b := p[0], p[1]
		if a > b {
			a, b = b, a
		}
		if direct[[2]int{a, b}] {
			res.Match[qi] = true
			continue
		}
		if graph.Connected(ids[a], ids[b]) {
			res.Match[qi] = true
			res.FlippedByTransitivity++
		}
	}
	return res, nil
}

func (e *Engine) resolveBlocked(ctx context.Context, s *session, req PairsRequest) (PairsResult, error) {
	ids := corpusIDs(len(req.Corpus))
	ix := e.indexEntities(req.Corpus, ids)
	res := PairsResult{Match: make([]bool, len(req.Pairs))}
	var (
		askIdx []int
		asked  [][2]int
	)
	for i, p := range req.Pairs {
		if d, ok := ix.DistanceByID(ids[p[0]], ids[p[1]]); ok && d > req.BlockDistance {
			res.SkippedByBlocking++ // decided "no" for free
			continue
		}
		askIdx, asked = append(askIdx, i), append(asked, p)
	}
	answers, err := e.matchPairs(ctx, s, req.Corpus, asked)
	if err != nil {
		return PairsResult{}, fmt.Errorf("blocked resolve: %w", err)
	}
	for k, yes := range answers {
		res.Match[askIdx[k]] = yes
	}
	res.LLMComparisons = len(asked)
	return res, nil
}

// DedupeStrategy selects how Dedupe partitions a record set.
type DedupeStrategy string

// Dedupe strategies.
const (
	// DedupePairwise compares all pairs and unions "yes" edges — the
	// fine-grained O(n^2) decomposition.
	DedupePairwise DedupeStrategy = "pairwise"
	// DedupeGroupBatch shows the model batches of records and asks it to
	// group duplicates (coarse task), merging group edges across
	// overlapping batches — cheap but sloppier.
	DedupeGroupBatch DedupeStrategy = "group-batch"
	// DedupeBlockedPairwise blocks by embedding first, then runs pairwise
	// comparisons only within blocks.
	DedupeBlockedPairwise DedupeStrategy = "blocked-pairwise"
)

// DedupeRequest asks for a full duplicate partition of Records.
type DedupeRequest struct {
	Records []Entity
	// Strategy selects the decomposition; default DedupePairwise.
	Strategy DedupeStrategy
	// BatchSize is the records per coarse grouping prompt (default 10).
	BatchSize int
	// BlockDistance is the embedding blocking radius (default 0.9).
	BlockDistance float64
}

// DedupeResult is the outcome of Dedupe.
type DedupeResult struct {
	// Groups partitions record IDs into duplicate sets.
	Groups [][]string
	// LLMComparisons counts match questions issued (pairwise modes).
	LLMComparisons int
	// Usage is the total token spend.
	Usage token.Usage
}

// Dedupe partitions the records into groups referring to the same
// real-world entity.
func (e *Engine) Dedupe(ctx context.Context, req DedupeRequest) (DedupeResult, error) {
	if len(req.Records) == 0 {
		return DedupeResult{}, badRequestf("no records to dedupe")
	}
	if req.Strategy == "" {
		req.Strategy = DedupePairwise
	}
	if req.BatchSize < 0 {
		return DedupeResult{}, badRequestf("negative batch size")
	}
	if req.BatchSize == 0 {
		req.BatchSize = 10
	}
	if req.BlockDistance == 0 {
		req.BlockDistance = 0.9
	}
	s := e.newSession()
	graph := consistency.NewMatchGraph()
	for _, r := range req.Records {
		graph.AddNode(r.ID)
	}
	var (
		comparisons int
		err         error
	)
	switch req.Strategy {
	case DedupePairwise:
		comparisons, err = e.dedupePairs(ctx, s, req.Records, graph, allPairs(len(req.Records)))
	case DedupeBlockedPairwise:
		ids := corpusIDs(len(req.Records))
		ix := e.indexEntities(req.Records, ids)
		var pairs [][2]int
		for _, block := range ix.Blocks(req.BlockDistance) {
			idxs := make([]int, len(block))
			for i, id := range block {
				idxs[i], _ = strconv.Atoi(id)
			}
			for i := 0; i < len(idxs); i++ {
				for j := i + 1; j < len(idxs); j++ {
					pairs = append(pairs, [2]int{idxs[i], idxs[j]})
				}
			}
		}
		comparisons, err = e.dedupePairs(ctx, s, req.Records, graph, pairs)
	case DedupeGroupBatch:
		err = e.dedupeGroupBatch(ctx, s, req, graph)
	default:
		return DedupeResult{}, badRequestf("unknown dedupe strategy %q", req.Strategy)
	}
	if err != nil {
		return DedupeResult{}, err
	}
	return DedupeResult{
		Groups:         graph.Components(),
		LLMComparisons: comparisons,
		Usage:          s.usage(),
	}, nil
}

func allPairs(n int) [][2]int {
	var out [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

func (e *Engine) dedupePairs(ctx context.Context, s *session, records []Entity, graph *consistency.MatchGraph, pairs [][2]int) (int, error) {
	answers, err := e.matchPairs(ctx, s, records, pairs)
	if err != nil {
		return 0, fmt.Errorf("pairwise dedupe: %w", err)
	}
	for k, yes := range answers {
		if yes {
			graph.AddMatch(records[pairs[k][0]].ID, records[pairs[k][1]].ID)
		}
	}
	return len(pairs), nil
}

// dedupeGroupBatch issues coarse grouping prompts over overlapping
// batches: consecutive batches share half their records so duplicate
// evidence can bridge batch boundaries (the task-sequencing concern of
// CrowdER that the paper cites).
func (e *Engine) dedupeGroupBatch(ctx context.Context, s *session, req DedupeRequest, graph *consistency.MatchGraph) error {
	n := len(req.Records)
	step := req.BatchSize / 2
	if step == 0 {
		step = 1
	}
	for start := 0; start < n; start += step {
		end := start + req.BatchSize
		if end > n {
			end = n
		}
		batch := req.Records[start:end]
		texts := make([]string, len(batch))
		for i, r := range batch {
			texts[i] = r.Text
		}
		groups, err := quality.AskWithRetry(ctx, s.model, prompt.GroupRecords(texts),
			func(text string) ([][]int, error) {
				g := prompt.ParseGroups(text, len(batch))
				if len(g) == 0 {
					return nil, prompt.ErrUnparseable
				}
				return g, nil
			}, parseRetries)
		if err != nil {
			return fmt.Errorf("group batch at %d: %w", start, err)
		}
		for _, g := range groups {
			for i := 1; i < len(g); i++ {
				graph.AddMatch(batch[g[0]].ID, batch[g[i]].ID)
			}
		}
		if end == n {
			break
		}
	}
	return nil
}

func dedupeInts(in []int) []int {
	seen := make(map[int]bool, len(in))
	out := in[:0]
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// resolveEvidence issues the same neighbourhood comparisons as
// resolveTransitive, then weighs local evidence both ways: for a
// questioned pair (A, B), the common neighbours C that were compared with
// both sides vote — yes(A,C) ∧ yes(C,B) supports the match, a split
// judgement opposes it. A direct "no" flips to "yes" on any support; a
// direct "yes" flips to "no" when at least two neighbours oppose and none
// supports (the "enough evidence in the opposite direction" rule the
// paper leaves as future work).
func (e *Engine) resolveEvidence(ctx context.Context, s *session, req PairsRequest) (PairsResult, error) {
	cmps, answers, err := e.neighbourhoodComparisons(ctx, s, req)
	if err != nil {
		return PairsResult{}, err
	}
	type cmp = [2]int
	yes := make(map[cmp]bool, len(cmps))
	// adjacency over issued comparisons: node -> compared nodes.
	compared := make(map[int]map[int]bool)
	record := func(a, b int, v bool) {
		if compared[a] == nil {
			compared[a] = make(map[int]bool)
		}
		compared[a][b] = true
	}
	for i, c := range cmps {
		v := answers[i]
		yes[cmp{c[0], c[1]}] = v
		record(c[0], c[1], v)
		record(c[1], c[0], v)
	}
	yesOf := func(a, b int) (bool, bool) {
		if a > b {
			a, b = b, a
		}
		v, ok := yes[cmp{a, b}]
		if !ok {
			return false, false
		}
		return v, true
	}
	res := PairsResult{Match: make([]bool, len(req.Pairs)), LLMComparisons: len(cmps)}
	for qi, p := range req.Pairs {
		a, b := p[0], p[1]
		direct, _ := yesOf(a, b)
		support, oppose := 0, 0
		for c := range compared[a] {
			if c == b || !compared[b][c] {
				continue
			}
			ac, ok1 := yesOf(a, c)
			cb, ok2 := yesOf(c, b)
			if !ok1 || !ok2 {
				continue
			}
			switch {
			case ac && cb:
				support++
			case ac != cb:
				oppose++
			}
		}
		switch {
		case !direct && support >= 1:
			res.Match[qi] = true
			res.FlippedByTransitivity++
		case direct && support == 0 && oppose >= 2:
			res.Match[qi] = false
			res.FlippedToNo++
		default:
			res.Match[qi] = direct
		}
	}
	return res, nil
}

// neighbourhoodComparisons collects and answers the union of k-NN
// neighbourhood comparisons for every questioned pair; shared by the
// transitive and evidence strategies. The corpus is embedded exactly
// once (indexed in parallel); neighbour queries reuse the stored vectors
// via NearestByID instead of re-embedding the query side.
func (e *Engine) neighbourhoodComparisons(ctx context.Context, s *session, req PairsRequest) ([][2]int, []bool, error) {
	ids := corpusIDs(len(req.Corpus))
	ix := e.indexEntities(req.Corpus, ids)
	nbrCache := make(map[int][]int)
	neighboursOf := func(side int) []int {
		if nbs, ok := nbrCache[side]; ok {
			return nbs
		}
		nbs := make([]int, 0, req.Neighbors)
		for _, nb := range ix.NearestByID(ids[side], req.Neighbors) {
			idx, err := strconv.Atoi(nb.ID)
			if err != nil {
				continue
			}
			nbs = append(nbs, idx)
		}
		nbrCache[side] = nbs
		return nbs
	}
	cmpSet := make(map[[2]int]bool)
	for _, p := range req.Pairs {
		members := []int{p[0], p[1]}
		for _, side := range p {
			members = append(members, neighboursOf(side)...)
		}
		members = dedupeInts(members)
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				a, b := members[i], members[j]
				if a > b {
					a, b = b, a
				}
				if a != b {
					cmpSet[[2]int{a, b}] = true
				}
			}
		}
	}
	cmps := make([][2]int, 0, len(cmpSet))
	for c := range cmpSet {
		cmps = append(cmps, c)
	}
	sort.Slice(cmps, func(i, j int) bool {
		if cmps[i][0] != cmps[j][0] {
			return cmps[i][0] < cmps[j][0]
		}
		return cmps[i][1] < cmps[j][1]
	})
	answers, err := e.matchPairs(ctx, s, req.Corpus, cmps)
	if err != nil {
		return nil, nil, fmt.Errorf("neighbourhood comparisons: %w", err)
	}
	return cmps, answers, nil
}
