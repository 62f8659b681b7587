// Package pipeline composes the engine's operators into a declarative,
// optimized, budget-attributed DAG over dataset.Record tables — the layer
// between user intent and execution that the paper's thesis calls for.
//
// A Spec lists stages in the user's order; each stage wraps one core
// operator (filter, categorize, resolve, impute, join, sort, max, count)
// behind the common Stage interface and names the stage whose output it
// consumes ("source" for the root table). Compile validates the spec into
// a runnable Pipeline; Optimize rewrites the spec first — selectivity-
// aware filter pushdown ahead of quadratic resolve/join work, filters
// ordered most-selective-first — under explicit commutation rules, so the
// optimized plan returns the same temperature-0 results as the user's
// order while spending strictly less.
//
// Run executes the DAG as a streaming dataflow: stages exchange records
// over bounded channels, and a per-record stage (filter, direct
// categorize, fixed-strategy impute, nested-loop join) brings Parallelism
// in-flight slots to a shared count and runs a backlog on the width the
// idle streaming stages downstream of it leave, handing each record
// downstream the moment it finishes — upstream round trips overlap
// across records and stages, and sequence keys restore table order at
// collection — while barrier stages (sort/max/count, resolve,
// planner-driven impute) drain their input first. A join's right side or
// an impute's example pool may name an earlier stage instead of a static
// table; the executor materializes that stage's stream once and fans it
// out, while a streamable consumer holds its main input behind its
// window's start gate and streams the moment the side table lands.
// Every stage shares one engine (one execution layer, one embedding-index
// registry, one budget), and each stage's context is tagged so the shared
// budget breaks down into per-stage usage and dollar attribution.
//
// Optimize rewrites using spec hints alone; OptimizeProbed additionally
// measures each hintless filter's selectivity on a deterministic record
// sample before ordering (probe spend attributed under
// workflow.StageProbe). Filter order is fixed once the run starts.
//
// ExecConfig.Feed turns a run into a standing query: records arriving on
// the channel while the pipeline executes join the stream behind the
// static source table and are re-evaluated incrementally by the same
// streaming machinery, with results after full ingestion byte-identical
// to a batch run over the final record set. internal/scenario drives
// standing queries under multi-turn traffic. See docs/PIPELINE.md,
// docs/OPTIMIZER.md, and docs/SCENARIO.md.
package pipeline

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dataset"
)

// Stage kinds, one per wrapped core operator.
const (
	KindFilter     = "filter"
	KindCategorize = "categorize"
	KindResolve    = "resolve"
	KindImpute     = "impute"
	KindJoin       = "join"
	KindSort       = "sort"
	KindMax        = "max"
	KindCount      = "count"
)

// Spec is the JSON-serializable pipeline description.
type Spec struct {
	// Source optionally names a built-in dataset to run over (declctl's
	// spec files use it); programmatic callers usually pass tables to Run
	// directly and leave it empty.
	Source SourceSpec `json:"source,omitempty"`
	// Stages in user order. Every stage's Input must be "source" or the
	// name of an earlier stage, which makes the spec a DAG by construction.
	Stages []StageSpec `json:"stages"`
}

// StageSpec describes one operator stage. Exactly the fields relevant to
// the stage's Kind apply; the rest are ignored.
type StageSpec struct {
	// Name uniquely identifies the stage ("source" is reserved).
	Name string `json:"name"`
	// Kind selects the wrapped operator.
	Kind string `json:"kind"`
	// Input is the upstream table: "source" or an earlier stage's name.
	// Empty defaults to the previous stage (or "source" for the first).
	Input string `json:"input,omitempty"`
	// Field selects which record field renders as the operator's item
	// text; empty renders the whole record ("a1 is v1; a2 is v2; ...").
	Field string `json:"field,omitempty"`
	// Predicate is the natural-language condition (filter, count).
	Predicate string `json:"predicate,omitempty"`
	// Criterion is the ranking dimension (sort, max).
	Criterion string `json:"criterion,omitempty"`
	// Strategy picks the operator strategy by its core name; empty uses
	// the operator default. The special value "auto" on an impute stage
	// invokes the planner against the remaining whole-pipeline budget.
	Strategy string `json:"strategy,omitempty"`
	// Categories is the closed category set (categorize).
	Categories []string `json:"categories,omitempty"`
	// OutField is where categorize/join write their result (defaults
	// "category" and "match").
	OutField string `json:"out_field,omitempty"`
	// TargetField is the attribute to impute.
	TargetField string `json:"target_field,omitempty"`
	// Side names the side table (impute training records, default "train";
	// join right side, required). It may name either a static table passed
	// to Run or an earlier stage, whose output table the executor
	// materializes once and fans out to every side consumer.
	Side string `json:"side,omitempty"`
	// Neighbors is the k-NN width (impute).
	Neighbors int `json:"neighbors,omitempty"`
	// Examples is the few-shot example count (impute).
	Examples int `json:"examples,omitempty"`
	// TargetAccuracy is the planner's accuracy goal for strategy "auto"
	// (default 0.8).
	TargetAccuracy float64 `json:"target_accuracy,omitempty"`
	// InvariantFields declares record fields that true duplicates agree on
	// exactly (resolve). A filter reading such a field keeps or drops every
	// member of a duplicate group together, which is what licenses pushing
	// it ahead of the quadratic dedupe.
	InvariantFields []string `json:"invariant_fields,omitempty"`
	// Selectivity estimates the filter's keep fraction, strictly in
	// (0, 1]; the optimizer orders adjacent filters most-selective-first.
	// Zero means no hint: Optimize assumes 0.5, while OptimizeProbed
	// measures the real fraction on a record sample. Any other value
	// outside (0, 1] is rejected at Compile time.
	Selectivity float64 `json:"selectivity,omitempty"`
	// BlockDistance is the embedding blocking radius (resolve
	// blocked-pairwise; join candidate cutoff).
	BlockDistance float64 `json:"block_distance,omitempty"`
}

// Pipeline is a compiled, runnable stage DAG.
type Pipeline struct {
	stages []Stage
	specs  []StageSpec // normalized, index-aligned with stages
}

// Stages returns the compiled stages in execution (topological) order.
func (p *Pipeline) Stages() []Stage { return p.stages }

// Compile validates the spec and builds a runnable pipeline. It does not
// optimize; call Optimize on the spec first for the rewritten plan.
func Compile(spec Spec) (*Pipeline, error) {
	specs, err := normalize(spec.Stages)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{specs: specs}
	for _, s := range specs {
		st, err := buildStage(s)
		if err != nil {
			return nil, err
		}
		p.stages = append(p.stages, st)
	}
	return p, nil
}

// normalize fills default inputs, then validates names, kinds, edges, and
// kind-specific requirements. The returned slice is a copy.
func normalize(stages []StageSpec) ([]StageSpec, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("pipeline: no stages")
	}
	out := append([]StageSpec(nil), stages...)
	all := make(map[string]bool, len(out))
	for _, s := range out {
		all[s.Name] = true
	}
	seen := map[string]bool{"source": true}
	prev := "source"
	for i := range out {
		s := &out[i]
		if s.Name == "" || s.Name == "source" {
			return nil, fmt.Errorf("pipeline: stage %d needs a name other than %q", i, s.Name)
		}
		if strings.HasPrefix(s.Name, "__") {
			return nil, fmt.Errorf("pipeline: stage name %q is reserved (\"__\" prefixes label executor internals such as selectivity probes)", s.Name)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("pipeline: duplicate stage name %q", s.Name)
		}
		if s.Input == "" {
			s.Input = prev
		}
		if !seen[s.Input] {
			return nil, fmt.Errorf("pipeline: stage %q consumes %q, which is not source or an earlier stage", s.Name, s.Input)
		}
		if s.Side != "" && all[s.Side] && !seen[s.Side] {
			return nil, fmt.Errorf("pipeline: stage %q uses side %q, which names a stage that is not earlier in the spec (side inputs must be earlier stages or static tables)", s.Name, s.Side)
		}
		if err := validateKind(*s); err != nil {
			return nil, err
		}
		seen[s.Name] = true
		prev = s.Name
	}
	return out, nil
}

func validateKind(s StageSpec) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("pipeline: stage %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	switch s.Kind {
	case KindFilter, KindCount:
		if s.Predicate == "" {
			return bad("%s needs a predicate", s.Kind)
		}
	case KindSort, KindMax:
		if s.Criterion == "" {
			return bad("%s needs a criterion", s.Kind)
		}
	case KindCategorize:
		if len(s.Categories) == 0 && s.Strategy != "two-phase" {
			return bad("categorize needs categories (or strategy two-phase)")
		}
	case KindImpute:
		if s.TargetField == "" {
			return bad("impute needs a target_field")
		}
	case KindJoin:
		if s.Side == "" {
			return bad("join needs a side table name")
		}
	case KindResolve:
		// No required knobs; strategy defaults to pairwise.
	default:
		return bad("unknown kind %q", s.Kind)
	}
	// A selectivity hint of exactly 0 means "unset" (Optimize assumes 0.5;
	// OptimizeProbed measures). Anything else must be a real keep fraction:
	// the old check let NaN through — NaN compares false against every
	// bound — and the runtime default then silently swallowed it.
	switch {
	case s.Selectivity == 0:
	case s.Kind != KindFilter:
		return bad("selectivity %v: the hint only applies to filter stages", s.Selectivity)
	case math.IsNaN(s.Selectivity) || s.Selectivity < 0 || s.Selectivity > 1:
		return bad("selectivity %v outside (0, 1]; omit the field to let the optimizer assume 0.5 or measure it", s.Selectivity)
	}
	return nil
}

// consumers returns the names of stages consuming the named output,
// either as their main input or as a dynamic side table. Both uses need
// the stage's complete output, so both block filter pushdown across it.
func consumers(specs []StageSpec, name string) []string {
	var out []string
	for _, s := range specs {
		if s.Input == name || s.Side == name {
			out = append(out, s.Name)
		}
	}
	return out
}

// sideStage returns the index of the stage the spec's Side names, or -1
// when the side is a static table (or unset).
func sideStage(specs []StageSpec, s StageSpec) int {
	if s.Side == "" {
		return -1
	}
	return indexOf(specs, s.Side)
}

// SourceSpec names a built-in dataset for declctl spec files.
type SourceSpec struct {
	// Dataset is "flavors", "restaurants", or "buy".
	Dataset string `json:"dataset,omitempty"`
	// Records sizes the source table (dataset default when 0).
	Records int `json:"records,omitempty"`
	// Train sizes the "train" side table for the imputation datasets.
	Train int `json:"train,omitempty"`
	// Seed drives the deterministic generators.
	Seed int64 `json:"seed,omitempty"`
}

// Tables materializes the source (and any side tables) described by the
// spec: the main table under "source", training records under "train".
func (s SourceSpec) Tables() (map[string][]dataset.Record, error) {
	seed := s.Seed
	if seed == 0 {
		seed = 11
	}
	switch s.Dataset {
	case "flavors":
		names := dataset.FlavorNames()
		if s.Records > 0 && s.Records < len(names) {
			names = names[:s.Records]
		}
		recs := make([]dataset.Record, len(names))
		for i, n := range names {
			recs[i] = dataset.Record{
				ID:     fmt.Sprintf("flavor-%02d", i),
				Fields: []dataset.Field{{Name: "name", Value: n}},
			}
		}
		return map[string][]dataset.Record{"source": recs}, nil
	case "restaurants", "buy":
		records, train := s.Records, s.Train
		if records == 0 {
			records = 40
		}
		if train == 0 {
			train = 120
		}
		var ds *dataset.ImputationDataset
		if s.Dataset == "restaurants" {
			ds = dataset.GenerateRestaurants(train, records, seed)
		} else {
			ds = dataset.GenerateBuy(train, records, seed)
		}
		return map[string][]dataset.Record{"source": ds.Test, "train": ds.Train}, nil
	default:
		return nil, fmt.Errorf("pipeline: unknown source dataset %q", s.Dataset)
	}
}
