package experiments

import (
	"context"
	"fmt"
	"maps"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/workflow"
)

// RunNaive runs spec the way a user calling operators one by one would:
// each stage, in the spec's order, compiled and run alone as a one-stage
// pipeline on a fresh ExecConfig, with an execution layer and an index
// registry of its own and no batching. A stage reads its input stage's
// output as "source", and an earlier stage it names as its side input as
// a static table, beside the static tables. The runs share one
// attribution ledger and merge into one Result. Of cfg only Model,
// Parallelism and OnRecordError apply.
func RunNaive(ctx context.Context, spec pipeline.Spec, cfg pipeline.ExecConfig, tables map[string][]dataset.Record) (*pipeline.Result, error) {
	whole, err := pipeline.Compile(spec)
	if err != nil {
		return nil, err
	}
	attr := workflow.NewAttribution()
	merged := &pipeline.Result{Tables: make(map[string][]dataset.Record), Scalars: make(map[string]string)}
	for i, stage := range whole.Stages() {
		st, in := spec.Stages[i], stage.Input()
		own := maps.Clone(tables)
		if in != "source" {
			if st.Side == "source" {
				return nil, fmt.Errorf("naive run: stage %q reads source as a side table beside input %q", st.Name, in)
			}
			own["source"] = merged.Tables[in]
		}
		if side, ok := merged.Tables[st.Side]; ok {
			own[st.Side] = side
		}
		st.Input = "source"
		p, err := pipeline.Compile(pipeline.Spec{Stages: []pipeline.StageSpec{st}})
		if err != nil {
			return nil, err
		}
		res, err := p.Run(ctx, pipeline.ExecConfig{
			Model: cfg.Model, Attribution: attr, Parallelism: cfg.Parallelism,
			OnRecordError: cfg.OnRecordError,
		}, own)
		if err != nil {
			return nil, err
		}
		merged.Tables[st.Name] = res.Tables[st.Name]
		maps.Copy(merged.Scalars, res.Scalars)
		merged.Stages = append(merged.Stages, res.Stages[len(res.Stages)-1])
		merged.Skipped += res.Skipped
		merged.Quarantined += res.Quarantined
	}
	merged.Usage, merged.Cost = attr.Total()
	return merged, nil
}
