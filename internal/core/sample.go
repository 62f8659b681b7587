package core

import (
	"context"

	"repro/internal/token"
)

// SelectivityEstimate is the outcome of EstimateSelectivity: the measured
// keep behaviour of a filter predicate on a deterministic sample.
type SelectivityEstimate struct {
	// Sampled and Kept count the probed items and how many passed.
	Sampled, Kept int
	// Fraction is Kept / Sampled, the raw measured selectivity.
	Fraction float64
	// Usage is the probe's token spend (cache hits are free, so re-probing
	// the same sample through a shared execution layer costs nothing).
	Usage token.Usage
}

// EstimateSelectivity measures a filter's keep fraction on a
// deterministic sample of at most sample items instead of trusting a spec
// hint — the cost-model entry point the pipeline optimizer uses to order
// hintless filters. The sample is evenly strided across the items, so the
// same inputs always probe the same records; run through an engine with a
// shared execution layer, the probe's unit tasks land in the same cache
// the real filter run reads, making the measurement nearly free overall.
func (e *Engine) EstimateSelectivity(ctx context.Context, req FilterRequest, sample int) (SelectivityEstimate, error) {
	if sample <= 0 {
		return SelectivityEstimate{}, badRequestf("sample size %d, need > 0", sample)
	}
	if len(req.Items) == 0 {
		return SelectivityEstimate{}, badRequestf("no items to probe")
	}
	probe := req
	probe.Items = strideSample(req.Items, sample)
	res, err := e.Filter(ctx, probe)
	if err != nil {
		return SelectivityEstimate{}, err
	}
	est := SelectivityEstimate{Sampled: len(probe.Items), Usage: res.Usage}
	for _, keep := range res.Keep {
		if keep {
			est.Kept++
		}
	}
	est.Fraction = float64(est.Kept) / float64(est.Sampled)
	return est, nil
}

// strideSample picks at most k items spread evenly across the slice —
// deterministic (no RNG), order-preserving, and covering the full range
// rather than a prefix, so generator artifacts at either end don't skew
// the estimate.
func strideSample(items []string, k int) []string {
	if len(items) <= k {
		return items
	}
	out := make([]string, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, items[i*len(items)/k])
	}
	return out
}
