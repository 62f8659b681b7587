package pipeline

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/workflow"
)

// The adaptive streaming runtime (ExecConfig.Adaptive) tunes a running
// plan from live observations, in two coordinated pieces:
//
//   - side-input overlap: a streamable stage with a dynamic side input
//     buffers its main input in memory while the side stage
//     materializes, then streams — instead of draining first (execute.go);
//   - mid-run re-optimization: runs of adjacent commutable filter stages
//     execute as one segment whose internal order is revised between
//     records as observed keep rates refine the optimizer's probed or
//     hinted selectivity estimates (this file).
//
// Both leave temperature-0 results byte-identical to the fixed plan; they
// only change when work happens and how much of it there is.

// stageStats accumulates one stage's streaming timings; the stage
// goroutine owns it and flushes the total into the run's Attribution
// ledger when the stage finishes, where the run report reads it back.
type stageStats struct {
	stage string
	t     workflow.StageTiming
}

// close settles a stage that consumed records: whatever of the time since
// start was not spent starved for input (Wait) was Service, under one
// operator preparation.
func (s *stageStats) close(start time.Time, records int) {
	if records == 0 {
		return
	}
	s.t.Service += time.Since(start) - s.t.Wait
	s.t.Chunks++
	s.t.Records += records
}

func (s *stageStats) flush(attr *workflow.Attribution) {
	if s.t != (workflow.StageTiming{}) {
		attr.ObserveTiming(s.stage, s.t)
	}
}

// selectivityPriorWeight is how many pseudo-records the optimizer's
// estimate (a probe measurement or a spec hint) counts for when blended
// with live observations — the probe's default sample size, so a probed
// estimate and an equally sized observation weigh the same.
const selectivityPriorWeight = 8

// adaptiveSegments finds the maximal runs of ≥2 consecutive filter stages
// the adaptive executor may re-order mid-run: each link must be the sole
// consumer (main input or side table) of its predecessor — the same
// sole-consumer rule the static optimizer's pushdown uses — and every
// member is a filter, which commutes record-wise with any other filter
// (filters write no fields, and every filter policy decides per item, so
// the set surviving the run is order-independent at temperature 0).
// Returned segments index into the normalized spec slice.
func adaptiveSegments(specs []StageSpec) [][]int {
	var segments [][]int
	for i := 0; i < len(specs); i++ {
		if specs[i].Kind != KindFilter {
			continue
		}
		run := []int{i}
		for j := i + 1; j < len(specs); j++ {
			prev := specs[run[len(run)-1]]
			if specs[j].Kind != KindFilter || specs[j].Input != prev.Name {
				break
			}
			if cs := consumers(specs, prev.Name); len(cs) != 1 {
				break
			}
			run = append(run, j)
		}
		if len(run) >= 2 {
			segments = append(segments, run)
		}
		i = run[len(run)-1]
	}
	return segments
}

// segMember is one filter inside a running segment, with its live
// selectivity evidence.
type segMember struct {
	st   filterStage
	spec StageSpec
	out  *streamOut
	pf   *core.PreparedFilter

	seen, kept, asks int
}

// estimate blends the member's prior selectivity (probe measurement or
// spec hint; 0.5 when hintless) with what the segment has observed so far.
func (m *segMember) estimate() float64 {
	return core.RefineSelectivity(m.spec.Selectivity, selectivityPriorWeight, m.seen, m.kept)
}

// segmentOrder returns member indices sorted most-selective-first by the
// current estimates, stable on spec position so ties keep the user's (or
// the static optimizer's) order and the result is deterministic for a
// given evidence state.
func segmentOrder(members []*segMember) []int {
	order := make([]int, len(members))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return members[order[a]].estimate() < members[order[b]].estimate()
	})
	return order
}

// segPass is one record's trip through a segment: the order it ran under
// and the samples each member it reached spent. It passed every member it
// reached but the last, which kept it only when keptAll is set.
type segPass struct {
	order   []int
	asks    []int
	keptAll bool
}

// runSegment drives one commutable filter segment as a single streaming
// stage: every record flows through the member filters in the segment's
// current order, evidence accumulates per member as records finish, and
// the order may then be revised for records not yet started — a record in
// flight is never re-ordered, and the segment's final output is identical
// to any fixed order at temperature 0. Each member's operator calls run
// under its own stage tag, so per-stage attribution is preserved. The
// segment shares one window: starvation (Wait) is reported under the head
// member, time with records in flight (Service) under the tail.
func (p *Pipeline) runSegment(ctx context.Context, cancel context.CancelFunc, cfg ExecConfig, rt *execRuntime,
	state *runState, outs map[string]*streamOut, in <-chan seqRecord, idxs []int) {
	members := make([]*segMember, len(idxs))
	for i, j := range idxs {
		spec := p.specs[j]
		members[i] = &segMember{st: p.stages[j].(filterStage), spec: spec, out: outs[spec.Name]}
	}
	head, tail := members[0], members[len(members)-1]
	defer func() {
		for _, m := range members {
			m.out.finish()
		}
	}()
	up := outs[head.spec.Input]
	engine := rt.engineFor()
	env := &Env{width: cfg.window(), stats: &stageStats{stage: head.spec.Name}, run: state}

	var order atomic.Pointer[[]int] // read by each record's goroutine as it starts
	reorders := 0
	start := time.Now()
	consumed, err := window(ctx, env, in,
		func() error {
			for _, m := range members {
				pf, err := engine.PrepareFilter(m.st.request())
				if err != nil {
					return fmt.Errorf("stage %q: %w", m.spec.Name, err)
				}
				m.pf = pf
			}
			first := segmentOrder(members)
			order.Store(&first)
			return nil
		},
		func(ctx context.Context, r dataset.Record) (segPass, error) {
			pass := segPass{order: *order.Load()}
			for _, mi := range pass.order {
				m := members[mi]
				a, err := m.pf.Ask(workflow.TagStage(ctx, m.spec.Name), render(r, m.spec.Field))
				if err != nil {
					return pass, fmt.Errorf("stage %q: %w", m.spec.Name, err)
				}
				pass.asks = append(pass.asks, a.Asks)
				if !a.Keep {
					return pass, nil
				}
			}
			pass.keptAll = true
			return pass, nil
		},
		func(r seqRecord, pass segPass, err error) error {
			if err != nil {
				return err
			}
			for pos, asks := range pass.asks {
				m := members[pass.order[pos]]
				m.seen++
				m.asks += asks
				m.out.consumed++
				if pos == len(pass.asks)-1 && !pass.keptAll {
					break
				}
				m.kept++
				if m != tail {
					m.out.got.add(r)
				}
			}
			if pass.keptAll {
				if err := tail.out.emit(ctx, r); err != nil {
					return err
				}
			}
			// Revise the order for records not yet started from the refined
			// estimates.
			if next := segmentOrder(members); !slices.Equal(next, *order.Load()) {
				order.Store(&next)
				reorders++
			}
			return nil
		})
	if consumed > 0 {
		for _, m := range members {
			t := workflow.StageTiming{Records: m.seen, Chunks: min(m.seen, 1)}
			if m == head {
				t.Wait = env.stats.t.Wait
			}
			if m == tail {
				t.Service = time.Since(start) - env.stats.t.Wait
			}
			rt.attr.ObserveTiming(m.spec.Name, t)
		}
	}
	if err != nil {
		head.out.err = err
		if !cancellation(err) {
			cancel()
		}
		return
	}
	<-up.done
	if up.err != nil {
		head.out.err = up.err
		return
	}
	if consumed == 0 {
		state.mu.Lock()
		for _, m := range members {
			state.details[m.spec.Name] = detailSkippedEmpty
		}
		state.mu.Unlock()
		return
	}
	state.mu.Lock()
	defer state.mu.Unlock()
	for _, m := range members {
		state.details[m.spec.Name] = filterDetail(m.kept, m.seen, m.asks)
	}
	state.details[tail.spec.Name] += fmt.Sprintf("; adaptive segment of %d filters, order revised %d times", len(members), reorders)
}
