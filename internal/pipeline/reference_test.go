package pipeline

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/workflow"
)

// runReference is the byte-identity reference the executor is tested
// against, independent of the window: it runs each stage of p, in
// topological order, over its whole input table with core's table
// operators — a filter through Engine.Filter, every other stage through
// its Barrier Run, which calls Engine.Categorize, Impute, Join or the
// barrier operator — the way a whole-table executor would. A dynamic side
// table is the side stage's whole output. Of cfg it reads what
// ExecConfig.runtime reads (Model, Budget, Exec, Registry, Attribution,
// Parallelism, Batch) and TableKeys; it ignores Feed and OnRecordError,
// so a record error fails the run. The Result reports each
// stage's table, scalars, detail, In/Out and attributed usage.
func runReference(ctx context.Context, p *Pipeline, cfg ExecConfig, tables map[string][]dataset.Record) (*Result, error) {
	rt := cfg.runtime()
	state := &runState{scalars: make(map[string]string), details: make(map[string]string),
		skipped: make(map[string]int), quar: make(map[string]*quarantineInfo)}
	res := &Result{Tables: make(map[string][]dataset.Record, len(p.stages)), Scalars: state.scalars}
	outs := map[string][]dataset.Record{"source": tables["source"]}
	for i, st := range p.stages {
		spec := p.specs[i]
		env := &Env{Engine: rt.engine, Budget: rt.budget, Tables: tables, keys: cfg.TableKeys, run: state}
		if sideStage(p.specs, spec) >= 0 {
			env.overlaySide(spec.Side, outs[spec.Side])
		}
		in := outs[spec.Input]
		sctx := workflow.TagStage(ctx, st.Name())
		var table []dataset.Record
		var err error
		switch {
		case len(in) == 0:
			state.skipEmpty(st)
		case spec.Kind == KindFilter:
			table, err = referenceFilter(sctx, env, st.(filterStage), in)
		default:
			table, err = st.(Barrier).Run(sctx, env, in)
		}
		if err != nil {
			return nil, err
		}
		outs[st.Name()] = table
		res.Tables[st.Name()] = table
		res.Stages = append(res.Stages, StageReport{
			Name: st.Name(), Kind: st.Kind(), In: len(in), Out: len(table),
			Usage: rt.attr.Usage(st.Name()), Cost: rt.attr.Cost(st.Name()), Detail: state.details[st.Name()],
		})
	}
	res.Usage, res.Cost = rt.attr.Total()
	return res, nil
}

// referenceFilter runs a filter stage over its whole input table through
// Engine.Filter and keeps the records it passes, in input order.
func referenceFilter(ctx context.Context, env *Env, s filterStage, in []dataset.Record) ([]dataset.Record, error) {
	req := s.request()
	req.Items = renderAll(in, s.spec.Field)
	res, err := env.Engine.Filter(ctx, req)
	if err != nil {
		return nil, err
	}
	var out []dataset.Record
	for i, keep := range res.Keep {
		if keep {
			out = append(out, in[i])
		}
	}
	env.detail(s.Name(), filterDetail(len(out), len(in), res.Asks))
	return out, nil
}
