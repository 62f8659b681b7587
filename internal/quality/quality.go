// Package quality implements the quality-control toolbox of Section 3.5:
// accuracy estimation against a validation set, Dawid–Skene-style
// expectation–maximisation across models when no ground truth exists,
// majority voting / self-consistency, sequential ask-again policies
// (CrowdScreen-style), answer verification follow-ups, and parse-retry.
package quality

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/llm"
	"repro/internal/prompt"
)

// ErrNoAnswer reports that a quality-control procedure could not settle
// on an answer (e.g. every retry failed to parse).
var ErrNoAnswer = errors.New("quality: no usable answer")

// Labeled is one validation example for accuracy estimation.
type Labeled struct {
	// Input is the task input handed to the asker.
	Input string
	// Gold is the expected answer, compared case-sensitively after
	// trimming by EstimateAccuracy.
	Gold string
}

// Asker abstracts one unit task: given an input, produce an answer.
type Asker func(ctx context.Context, input string) (string, error)

// EstimateAccuracy runs the asker over a validation set and returns the
// fraction of answers equal to the gold label. Asker errors count as
// wrong answers (a production task would fail the same way) but the
// first error is also returned for diagnosis.
func EstimateAccuracy(ctx context.Context, ask Asker, validation []Labeled) (float64, error) {
	if len(validation) == 0 {
		return 0, fmt.Errorf("quality: empty validation set")
	}
	correct := 0
	var firstErr error
	for _, v := range validation {
		got, err := ask(ctx, v.Input)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if got == v.Gold {
			correct++
		}
	}
	return float64(correct) / float64(len(validation)), firstErr
}

// EMResult is the output of EMBinary.
type EMResult struct {
	// ModelAccuracy is the estimated per-model accuracy, index-aligned
	// with the vote matrix columns.
	ModelAccuracy []float64
	// PosteriorYes is the posterior probability that each task's true
	// answer is "yes".
	PosteriorYes []float64
	// Consensus is PosteriorYes thresholded at 0.5.
	Consensus []bool
	// Iterations is the number of EM rounds executed.
	Iterations int
}

// EMBinary runs one-coin Dawid–Skene expectation–maximisation over a
// votes matrix: votes[i][j] is model j's yes/no answer to task i. It
// estimates each model's (unknown, fixed) accuracy and the consensus
// answer per task, assuming models answer independently — the classic
// crowdsourcing quality-control setup the paper proposes reusing for
// LLMs. The matrix must be rectangular with at least one row and column.
func EMBinary(votes [][]bool, maxIter int, tol float64) (EMResult, error) {
	n := len(votes)
	if n == 0 {
		return EMResult{}, fmt.Errorf("quality: empty vote matrix")
	}
	m := len(votes[0])
	if m == 0 {
		return EMResult{}, fmt.Errorf("quality: vote matrix has no models")
	}
	for i, row := range votes {
		if len(row) != m {
			return EMResult{}, fmt.Errorf("quality: ragged vote matrix at row %d", i)
		}
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	if tol <= 0 {
		tol = 1e-6
	}

	// Initialise posteriors from a sharpened majority vote. A soft
	// initialisation leaves EM in a flat region where it can drift to a
	// local optimum that overtrusts a mediocre voter; anchoring near the
	// majority answer puts it in the basin of the consensus solution.
	post := make([]float64, n)
	for i, row := range votes {
		yes := 0
		for _, v := range row {
			if v {
				yes++
			}
		}
		switch {
		case 2*yes > m:
			post[i] = 0.9
		case 2*yes < m:
			post[i] = 0.1
		default:
			post[i] = 0.5
		}
	}
	acc := make([]float64, m)
	iter := 0
	for ; iter < maxIter; iter++ {
		// M step: model accuracy = expected agreement with posterior.
		maxDelta := 0.0
		for j := 0; j < m; j++ {
			agree := 0.0
			for i := 0; i < n; i++ {
				if votes[i][j] {
					agree += post[i]
				} else {
					agree += 1 - post[i]
				}
			}
			next := (agree + 1) / (float64(n) + 2) // Laplace smoothing
			if d := math.Abs(next - acc[j]); d > maxDelta {
				maxDelta = d
			}
			acc[j] = next
		}
		// E step: posterior per task from model accuracies, uniform prior.
		for i := 0; i < n; i++ {
			logYes, logNo := 0.0, 0.0
			for j := 0; j < m; j++ {
				a := clampProb(acc[j])
				if votes[i][j] {
					logYes += math.Log(a)
					logNo += math.Log(1 - a)
				} else {
					logYes += math.Log(1 - a)
					logNo += math.Log(a)
				}
			}
			// Normalise in log space.
			mx := math.Max(logYes, logNo)
			py := math.Exp(logYes - mx)
			pn := math.Exp(logNo - mx)
			post[i] = py / (py + pn)
		}
		if iter > 0 && maxDelta < tol {
			iter++
			break
		}
	}
	res := EMResult{ModelAccuracy: acc, PosteriorYes: post, Iterations: iter}
	res.Consensus = make([]bool, n)
	for i, p := range post {
		res.Consensus[i] = p >= 0.5
	}
	return res, nil
}

func clampProb(p float64) float64 {
	const eps = 1e-6
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

// MajorityYesNo samples the same yes/no prompt k times at the given
// temperature (distinct seeds) and returns the majority answer plus the
// vote split. Unparseable samples are skipped; if every sample is
// unparseable the result is ErrNoAnswer. This is the self-consistency
// pattern the paper cites (Wang et al.).
func MajorityYesNo(ctx context.Context, model llm.Model, promptText string, k int, temperature float64) (answer bool, yes, no int, err error) {
	if k <= 0 {
		return false, 0, 0, fmt.Errorf("quality: k must be positive")
	}
	for seed := 0; seed < k; seed++ {
		resp, cerr := model.Complete(ctx, llm.Request{
			Prompt:      promptText,
			Temperature: temperature,
			Seed:        int64(seed),
		})
		if cerr != nil {
			return false, yes, no, cerr
		}
		v, perr := prompt.ParseYesNo(resp.Text)
		if perr != nil {
			continue
		}
		if v {
			yes++
		} else {
			no++
		}
	}
	if yes+no == 0 {
		return false, 0, 0, fmt.Errorf("all %d samples unparseable: %w", k, ErrNoAnswer)
	}
	return yes > no, yes, no, nil
}

// SequentialYesNo implements a CrowdScreen-style sequential policy: keep
// sampling the prompt (rising seeds, the given temperature) until one
// answer leads by margin votes or maxAsks samples have been taken, then
// return the leader. It spends more on contested items and less on easy
// ones — the probabilistic ask-or-finalise idea of Section 3.5.
func SequentialYesNo(ctx context.Context, model llm.Model, promptText string, maxAsks, margin int, temperature float64) (answer bool, asks int, err error) {
	if maxAsks <= 0 || margin <= 0 {
		return false, 0, fmt.Errorf("quality: maxAsks and margin must be positive")
	}
	yes, no := 0, 0
	for seed := 0; seed < maxAsks; seed++ {
		resp, cerr := model.Complete(ctx, llm.Request{
			Prompt:      promptText,
			Temperature: temperature,
			Seed:        int64(seed),
		})
		if cerr != nil {
			return false, seed, cerr
		}
		v, perr := prompt.ParseYesNo(resp.Text)
		if perr != nil {
			continue
		}
		if v {
			yes++
		} else {
			no++
		}
		if yes-no >= margin || no-yes >= margin {
			return yes > no, seed + 1, nil
		}
	}
	if yes+no == 0 {
		return false, maxAsks, fmt.Errorf("all samples unparseable: %w", ErrNoAnswer)
	}
	return yes > no, maxAsks, nil
}

// AskWithRetry issues the prompt and parses the response, retrying with
// fresh seeds (at temperature 0.3 from the second attempt, so the model
// actually re-rolls) until the parser accepts or attempts are exhausted —
// the "check the output, then retry the query" loop the paper describes
// as today's main quality-control practice.
func AskWithRetry[T any](ctx context.Context, model llm.Model, promptText string, parse func(string) (T, error), attempts int) (T, error) {
	return askWithRetry(ctx, model, promptText, nil, parse, attempts)
}

// AskBytesWithRetry is AskWithRetry for a prompt rendered into a caller's
// buffer, which must stay unchanged until it returns. When the model
// implements llm.ByteCompleter the first attempt is asked from the bytes,
// so a cache hit makes no prompt string; otherwise, and before the first
// retry, the prompt is made a string once.
func AskBytesWithRetry[T any](ctx context.Context, model llm.Model, prompt []byte, parse func(string) (T, error), attempts int) (T, error) {
	return askWithRetry(ctx, model, "", prompt, parse, attempts)
}

// askWithRetry is the one retry loop behind both entrances: the prompt is
// promptText, or raw when raw is non-nil.
func askWithRetry[T any](ctx context.Context, model llm.Model, promptText string, raw []byte, parse func(string) (T, error), attempts int) (T, error) {
	var zero T
	if attempts <= 0 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		var req llm.Request
		if i > 0 {
			req.Temperature = 0.3
			req.Seed = int64(i)
		}
		var (
			resp llm.Response
			err  error
		)
		if bc, ok := model.(llm.ByteCompleter); ok && i == 0 && raw != nil {
			resp, err = bc.CompleteBytes(ctx, raw, req)
		} else {
			if raw != nil {
				promptText, raw = string(raw), nil
			}
			req.Prompt = promptText
			resp, err = model.Complete(ctx, req)
		}
		if err != nil {
			return zero, err
		}
		v, perr := parse(resp.Text)
		if perr == nil {
			return v, nil
		}
		lastErr = perr
	}
	return zero, fmt.Errorf("%d attempts failed (last: %v): %w", attempts, lastErr, ErrNoAnswer)
}

// VerifyAnswer asks the verifier model whether a previously produced
// answer to a question is correct (Section 3.5's verification pattern).
func VerifyAnswer(ctx context.Context, verifier llm.Model, question, answer string) (bool, error) {
	resp, err := verifier.Complete(ctx, llm.Request{Prompt: prompt.Verify(question, answer)})
	if err != nil {
		return false, err
	}
	ok, perr := prompt.ParseYesNo(resp.Text)
	if perr != nil {
		return false, fmt.Errorf("verifier response unparseable: %w", ErrNoAnswer)
	}
	return ok, nil
}

// PanelYesNo asks the same yes/no prompt to several models and returns
// the simple-majority answer with the split. Ties resolve to "no" (the
// conservative answer for match tasks). Models whose responses cannot be
// parsed abstain.
func PanelYesNo(ctx context.Context, models []llm.Model, promptText string) (answer bool, yes, no int, err error) {
	if len(models) == 0 {
		return false, 0, 0, fmt.Errorf("quality: empty panel")
	}
	for _, m := range models {
		resp, cerr := m.Complete(ctx, llm.Request{Prompt: promptText})
		if cerr != nil {
			return false, yes, no, cerr
		}
		v, perr := prompt.ParseYesNo(resp.Text)
		if perr != nil {
			continue
		}
		if v {
			yes++
		} else {
			no++
		}
	}
	if yes+no == 0 {
		return false, 0, 0, fmt.Errorf("entire panel unparseable: %w", ErrNoAnswer)
	}
	return yes > no, yes, no, nil
}

// CascadeYesNo implements the FrugalGPT-style model cascade the paper
// cites (Chen et al.): sample the cheap model cheapVotes times; when its
// votes are unanimous, return them without touching the strong model,
// otherwise escalate the question to the strong model and return its
// answer. The returned escalated flag reports which path decided.
func CascadeYesNo(ctx context.Context, cheap, strong llm.Model, promptText string, cheapVotes int, temperature float64) (answer, escalated bool, err error) {
	if cheapVotes <= 0 {
		return false, false, fmt.Errorf("quality: cheapVotes must be positive")
	}
	yes, no := 0, 0
	for seed := 0; seed < cheapVotes; seed++ {
		resp, cerr := cheap.Complete(ctx, llm.Request{
			Prompt:      promptText,
			Temperature: temperature,
			Seed:        int64(seed),
		})
		if cerr != nil {
			return false, false, cerr
		}
		v, perr := prompt.ParseYesNo(resp.Text)
		if perr != nil {
			continue // unparseable counts as disagreement evidence below
		}
		if v {
			yes++
		} else {
			no++
		}
	}
	if yes+no == cheapVotes && (yes == 0 || no == 0) {
		return yes > 0, false, nil
	}
	resp, cerr := strong.Complete(ctx, llm.Request{Prompt: promptText})
	if cerr != nil {
		return false, true, cerr
	}
	v, perr := prompt.ParseYesNo(resp.Text)
	if perr != nil {
		return false, true, fmt.Errorf("strong model unparseable: %w", ErrNoAnswer)
	}
	return v, true, nil
}
