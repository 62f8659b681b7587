// Package sim implements the simulated noisy-oracle LLM that stands in
// for the vendor models used in the paper's experiments, so everything
// reproduces deterministically, offline, and free (the substitution
// rationale is summarized in README.md).
//
// An Oracle receives a plain-text prompt, recognises which unit task the
// prompt encodes (the toolkit's templates from internal/prompt play the
// role of instructions a real model would read), consults its world model,
// and produces a plain-text response corrupted by calibrated error models:
//
//   - pairwise comparisons follow a Thurstone model — the probability of a
//     correct answer grows with the latent-score gap, so near-ties are
//     answered nearly at random, plus a position bias toward one answer;
//   - ratings quantise the latent score with Gaussian noise, producing the
//     coarse, tie-heavy signal the paper reports;
//   - single-prompt list sorts place keyword-salient items correctly and
//     blur the rest ("lost in the middle"), and on long lists omit and
//     hallucinate items at calibrated rates;
//   - entity matching thresholds a surface-similarity score, yielding the
//     high-precision / low-recall behaviour of Table 3;
//   - imputation answers from a knowledge base but drifts to its own
//     canonical formatting unless few-shot examples pin the format.
//
// All randomness is derived from a hash of (model name, prompt, request
// seed), so temperature-0 calls are bit-reproducible, repeated identical
// prompts return identical answers, and distinct prompts decorrelate —
// exactly the behaviour of a deterministic vendor endpoint.
//
// A call allocates little beyond its answer. Its noise source is a
// math/rand source taken from a pool and re-seeded with that hash; Seed
// re-initialises the whole generator state, so the stream is the one
// rand.NewSource(hash) gives and every answer is what a fresh source would
// produce (TestOracleAnswersPinned pins them). Similarity perception builds
// trigram sets as sorted packed keys in pooled scratch rather than maps.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/token"
)

// Config holds the error-model knobs of one simulated model. Zero values
// mean "no noise"; DefaultConfig returns the calibrated baseline.
type Config struct {
	// ComparisonSigma is the Thurstone noise of semantic pairwise
	// comparisons: P(correct) = Phi(|Δscore| / (sigma·√2)).
	ComparisonSigma float64
	// PositionBias shifts comparison answers toward "A" (positive) or "B"
	// (negative) regardless of content — the ordering bias the paper
	// cancels with order-swapped double prompts.
	PositionBias float64
	// AlphaCompareErr is the base error rate of alphabetical comparisons;
	// words sharing longer prefixes are proportionally harder.
	AlphaCompareErr float64
	// BatchBlurPerPair widens every noise source by this fraction per
	// additional pair packed into a batched comparison prompt — the
	// accuracy cost of batching that Section 4 flags.
	BatchBlurPerPair float64
	// BatchSkipPerPair is the probability, per additional pair, that the
	// model silently skips answering one pair of a batch.
	BatchSkipPerPair float64
	// RatingSigma is the Gaussian noise added to the latent score before
	// quantising to the rating scale.
	RatingSigma float64
	// SortSalientSigma blurs the perceived score of keyword-salient items
	// in single-prompt semantic sorts.
	SortSalientSigma float64
	// SortBlurSigma blurs every other item (the "seemingly random" rest).
	SortBlurSigma float64
	// OmissionAt100 is the per-item probability of dropping an item from a
	// 100-item list output; it scales linearly from 0 at 20 items.
	OmissionAt100 float64
	// HallucinationRate is the expected number of invented items per list
	// response.
	HallucinationRate float64
	// SwapRate is the probability of one adjacent transposition slipping
	// into an otherwise correct lexicographic list sort.
	SwapRate float64
	// MatchThreshold is the surface-similarity level at which the model
	// answers "Yes" to an entity-match question.
	MatchThreshold float64
	// MatchSigma is the logistic noise around the threshold.
	MatchSigma float64
	// GroupExtraSigma is added to MatchSigma for coarse batch grouping
	// tasks, which the paper expects to be sloppier than pair tasks.
	GroupExtraSigma float64
	// ImputeSkill is the probability of knowing an imputable fact.
	ImputeSkill float64
	// DescriptionSkill is the probability of inferring an imputation
	// answer from indirect evidence when the direct key is absent.
	DescriptionSkill float64
	// FormatAdherence is the probability of copying the output format of
	// few-shot examples instead of the model's own canonical form.
	FormatAdherence float64
	// FilterSigma is the logistic noise on predicate checks.
	FilterSigma float64
	// CountSigma is the Gaussian noise of coarse fraction estimates.
	CountSigma float64
	// CountBias is an additive bias on coarse estimates (eyeballing
	// undercounts when negative).
	CountBias float64
	// Verbosity is the probability of wrapping a short answer in prose,
	// exercising the defensive parsers.
	Verbosity float64
}

// DefaultConfig returns the calibrated error profile of the baseline
// simulated model (sim-gpt-3.5-turbo). The values were tuned so the
// paper's baseline rows land near their reported numbers; see
// EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{
		ComparisonSigma:   0.24,
		PositionBias:      0.06,
		AlphaCompareErr:   0.06,
		BatchBlurPerPair:  0.06,
		BatchSkipPerPair:  0.006,
		RatingSigma:       0.20,
		SortSalientSigma:  0.10,
		SortBlurSigma:     0.85,
		OmissionAt100:     0.055,
		HallucinationRate: 0.5,
		SwapRate:          0.3,
		MatchThreshold:    0.72,
		MatchSigma:        0.06,
		GroupExtraSigma:   0.05,
		ImputeSkill:       0.93,
		DescriptionSkill:  0.55,
		FormatAdherence:   0.96,
		FilterSigma:       0.12,
		CountSigma:        0.08,
		CountBias:         -0.03,
		Verbosity:         0.25,
	}
}

// Oracle is a simulated LLM. Construct with New; safe for concurrent use
// after construction (RegisterCriterion/RegisterPredicate are not safe to
// call concurrently with Complete).
type Oracle struct {
	name       string
	cfg        Config
	criteria   []Criterion
	predicates []Predicate
}

// New returns an oracle with the given model name and configuration,
// pre-loaded with the built-in world model (flavour chocolateyness,
// lexicographic order, numeric magnitude, restaurant and product
// knowledge).
func New(name string, cfg Config) *Oracle {
	o := &Oracle{name: name, cfg: cfg}
	o.criteria = builtinCriteria()
	o.predicates = builtinPredicates()
	return o
}

// NewNamed returns the named stock model. Recognised names:
//
//	sim-gpt-3.5-turbo — baseline profile (DefaultConfig)
//	sim-gpt-4         — low-noise, expensive profile
//	sim-claude        — baseline-quality profile used for imputation
//	sim-claude-2      — strong long-list profile used for Table 2
//	sim-cheap         — high-noise, low-cost profile
//
// Unknown names receive the baseline profile under the given name.
func NewNamed(name string) *Oracle {
	cfg := DefaultConfig()
	switch name {
	case "sim-gpt-4":
		cfg.ComparisonSigma = 0.08
		cfg.AlphaCompareErr = 0.02
		cfg.RatingSigma = 0.08
		cfg.SortBlurSigma = 0.35
		cfg.OmissionAt100 = 0.02
		cfg.MatchSigma = 0.04
		cfg.MatchThreshold = 0.55
		cfg.ImputeSkill = 0.97
	case "sim-claude":
		cfg.ImputeSkill = 0.95
		cfg.DescriptionSkill = 0.75
		cfg.FormatAdherence = 0.93
	case "sim-claude-2":
		cfg.AlphaCompareErr = 0.05
		cfg.OmissionAt100 = 0.055
		cfg.HallucinationRate = 0.4
		cfg.SwapRate = 0.12
	case "sim-cheap":
		cfg.ComparisonSigma = 0.45
		cfg.AlphaCompareErr = 0.18
		cfg.RatingSigma = 0.35
		cfg.SortBlurSigma = 1.2
		cfg.OmissionAt100 = 0.12
		cfg.MatchSigma = 0.15
		cfg.ImputeSkill = 0.70
		cfg.DescriptionSkill = 0.30
	}
	return New(name, cfg)
}

// Name implements llm.Model.
func (o *Oracle) Name() string { return o.name }

// Complete implements llm.Model: recognise the task encoded in the prompt,
// answer it through the error model, and account usage.
func (o *Oracle) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if err := ctx.Err(); err != nil {
		return llm.Response{}, fmt.Errorf("sim: %w", err)
	}
	var text string
	if subs, ok := prompt.ReadTaskBatch(req.Prompt); ok {
		text = o.answerEnvelope(req, subs)
	} else {
		rng := o.rng(req)
		text = o.answer(req.Prompt, rng, req.Temperature)
		rngPool.Put(rng)
	}
	if req.MaxTokens > 0 {
		text = token.TruncateToTokens(text, req.MaxTokens)
	}
	return llm.Response{
		Text:  text,
		Model: o.name,
		Usage: token.Usage{
			PromptTokens:     token.Count(req.Prompt),
			CompletionTokens: token.Count(text),
			Calls:            1,
		},
	}, nil
}

// rngPool holds the noise sources of finished calls. A source is re-seeded
// on every reuse, and Seed re-initialises its whole state, so a pooled
// source yields exactly the stream a fresh rand.NewSource(seed) would.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// rng derives the deterministic noise source for one request. At
// temperature 0 the request seed is ignored, so identical prompts always
// produce identical answers (vendor temperature-0 behaviour). The seed is
// the FNV-1a hash of name, NUL, prompt and, above temperature 0,
// "|seed=N". The caller returns the source to rngPool when done with it.
func (o *Oracle) rng(req llm.Request) *rand.Rand {
	h := fnv1a(fnvOffset64, o.name)
	h = fnv1a(h, "\x00")
	h = fnv1a(h, req.Prompt)
	if req.Temperature > 0 {
		var buf [32]byte
		h = fnv1a(h, strconv.AppendInt(append(buf[:0], "|seed="...), req.Seed, 10))
	}
	r := rngPool.Get().(*rand.Rand)
	r.Seed(int64(h))
	return r
}

// fnv1a continues the 64-bit FNV-1a hash h (as hash/fnv computes it) over
// s, without copying a string into a byte slice first.
func fnv1a[S ~string | ~[]byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// answerEnvelope answers a multi-task batch envelope section by section.
// Each embedded task gets the noise source its standalone prompt would
// get, so batched answers are bit-identical to unbatched ones — the model
// reads each task independently, exactly as the execution layer's
// batching contract assumes. The envelope-level rng drives only the skip
// noise: like real models on long batches, the oracle occasionally drops
// a section (BatchSkipPerPair per additional task), which exercises the
// envelope's solo-retry path without perturbing the surviving answers.
func (o *Oracle) answerEnvelope(req llm.Request, subs []string) string {
	envRng := o.rng(req)
	defer rngPool.Put(envRng)
	skipP := o.cfg.BatchSkipPerPair * float64(len(subs)-1)
	var b []byte
	for i, sub := range subs {
		if len(subs) > 1 && envRng.Float64() < skipP {
			continue
		}
		subReq := req
		subReq.Prompt = sub
		rng := o.rng(subReq)
		b = append(append(prompt.TaskLine.AppendCount(b, i+1), o.answer(sub, rng, req.Temperature)...), '\n')
		rngPool.Put(rng)
	}
	return string(b)
}

// answer dispatches on the recognised task. Unrecognised prompts receive
// a refusal, which downstream parsers surface as ErrUnparseable.
func (o *Oracle) answer(prompt string, rng *rand.Rand, temp float64) string {
	scale := 1 + 0.7*temp // temperature widens every noise source
	switch task := recognise(prompt); task.kind {
	case taskSortList:
		return o.answerSort(task, rng, scale)
	case taskCompare:
		return o.answerCompare(task, rng, scale)
	case taskCompareBatch:
		return o.answerCompareBatch(task, rng, scale)
	case taskRate:
		return o.answerRate(task, rng, scale)
	case taskMatch:
		return o.answerMatch(task, rng, scale)
	case taskImpute:
		return o.answerImpute(task, rng, scale)
	case taskFilter:
		return o.answerFilter(task, rng, scale)
	case taskCount:
		return o.answerCount(task, rng, scale)
	case taskGroup:
		return o.answerGroup(task, rng, scale)
	case taskVerify:
		return o.answerVerify(task, rng, temp)
	case taskCategorize:
		return o.answerCategorize(task, rng, scale)
	case taskDiscover:
		return o.answerDiscover(task)
	default:
		return "I'm sorry, I don't understand the request."
	}
}

// verbose optionally wraps a terse answer in prose, so response parsers
// are exercised the way real model output exercises them.
func (o *Oracle) verbose(rng *rand.Rand, terse, wordy string) string {
	if o.wordy(rng) {
		return wordy
	}
	return terse
}

// wordy draws whether this answer takes its wordy form, for an answer
// whose wordy form costs something to build.
func (o *Oracle) wordy(rng *rand.Rand) bool {
	return rng.Float64() < o.cfg.Verbosity
}

func normText(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}
