package pipeline

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/workflow"
)

// ProbeOptions configures OptimizeProbed's selectivity measurement.
type ProbeOptions struct {
	// Sample caps the records probed per hintless filter (default 8).
	Sample int
}

// OptimizeProbed rewrites the spec like Optimize, but first replaces the
// 0.5 default selectivity of every hintless filter with a measured value:
// each such filter's predicate runs over a deterministic sample of the
// source table before pushdown ordering, so two hintless filters are
// ordered by how they actually behave rather than tying at the default.
//
// Probes execute through the config's machinery — the same execution
// layer, budget, and attribution ledger a subsequent Run with the same
// config uses. Pass a persistent cfg.Exec and cfg.Attribution: the cache
// is keyed on unit-task prompts (below it, batching re-groups freely), so
// the run re-serves every probed record's answer for free, and the
// probe's real upstream spend appears in the run report as its own
// workflow.StageProbe row, keeping the attribution total equal to the
// budget's spend.
//
// The returned trace logs, for every filter, whether its hint was trusted
// or what the probe measured, followed by the rewrites applied.
func OptimizeProbed(ctx context.Context, spec Spec, cfg ExecConfig, tables map[string][]dataset.Record, opts ProbeOptions) (Spec, []string, error) {
	specs, err := normalize(spec.Stages)
	if err != nil {
		return Spec{}, nil, err
	}
	source := tables["source"]
	if len(source) == 0 {
		return Spec{}, nil, fmt.Errorf("pipeline: probing needs a non-empty %q table", "source")
	}
	sample := opts.Sample
	if sample <= 0 {
		sample = 8
	}
	engine := cfg.runtime().engine
	pctx := workflow.TagStage(ctx, workflow.StageProbe)
	var log []string
	for i := range specs {
		f := specs[i]
		if f.Kind != KindFilter {
			continue
		}
		if f.Selectivity > 0 {
			log = append(log, fmt.Sprintf("probe: filter %q trusts its hint %.2f", f.Name, f.Selectivity))
			continue
		}
		if !probeable(specs, f) {
			log = append(log, fmt.Sprintf("probe: filter %q not probeable on the source table (an upstream stage writes what it reads); keeping the 0.50 default", f.Name))
			continue
		}
		// Stride-select the sample records before rendering: the indices
		// match core's strideSample exactly (i*len/k), so only the probed
		// records are serialized rather than the whole source table.
		est, err := engine.EstimateSelectivity(pctx, core.FilterRequest{
			Items:     renderAll(strideRecords(source, sample), f.Field),
			Predicate: f.Predicate,
			Strategy:  core.FilterStrategy(f.Strategy),
		}, sample)
		if err != nil {
			return Spec{}, nil, fmt.Errorf("pipeline: probing filter %q: %w", f.Name, err)
		}
		// Rule-of-succession smoothing keeps the estimate strictly inside
		// (0, 1): a sample that kept nothing must not claim selectivity 0
		// (reserved for "unset"), nor certainty the full table could
		// refute.
		measured := (float64(est.Kept) + 1) / (float64(est.Sampled) + 2)
		specs[i].Selectivity = measured
		log = append(log, fmt.Sprintf("probe: filter %q measured selectivity %.2f (kept %d of %d sampled; hintless default was 0.50)",
			f.Name, measured, est.Kept, est.Sampled))
	}
	specs, rewrites := pushdown(specs)
	out := spec
	out.Stages = specs
	return out, append(log, rewrites...), nil
}

// strideRecords picks at most k records spread evenly across the table,
// using the same i*len/k indices as core's string-level stride so the
// pre-selection changes nothing about which records get probed.
func strideRecords(recs []dataset.Record, k int) []dataset.Record {
	if len(recs) <= k {
		return recs
	}
	out := make([]dataset.Record, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, recs[i*len(recs)/k])
	}
	return out
}

// probeable reports whether the filter's rendered input on the source
// table is a faithful stand-in for its real input: no stage between the
// source and the filter may write the field the filter reads (nor any
// field at all, when the filter renders whole records). Stages that only
// drop or reorder records (other filters, dedupe, sort) merely bias the
// sample — the probe stays an estimate either way.
func probeable(specs []StageSpec, f StageSpec) bool {
	for cur := f.Input; cur != "source"; {
		s := specs[indexOf(specs, cur)]
		w := writes(s)
		if f.Field == "" && len(w) > 0 {
			return false
		}
		for _, field := range w {
			if field == f.Field {
				return false
			}
		}
		cur = s.Input
	}
	return true
}
