package scenario

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/pipeline"
	"repro/internal/resil"
	"repro/internal/server"
	"repro/internal/workflow"
)

// DefaultModelName is the sim oracle profile a harness without options
// runs against.
const DefaultModelName = "sim-gpt-3.5-turbo"

// Options configure a Harness.
type Options struct {
	// Model is the real-engine escape hatch: a non-nil model answers every
	// unit task instead of the deterministic sim oracle. Checkpoints that
	// pin exact counters or require batch identity generally only hold on
	// the sim engine; real-engine runs still evaluate them and report the
	// failures.
	Model llm.Model
	// ModelName picks the sim oracle profile when Model is nil (default
	// DefaultModelName).
	ModelName string
}

// Harness runs scenarios against one engine configuration.
type Harness struct{ opts Options }

// New returns a harness; the zero Options run the deterministic sim
// engine.
func New(opts Options) *Harness { return &Harness{opts: opts} }

// modelBox gives atomic.Value the one concrete type it requires even as
// the boxed model alternates between the base and a latency wrapper.
type modelBox struct{ m llm.Model }

// switchModel is the latency-injection point: a model whose delegate can
// be swapped atomically between turns while runs are in flight.
type switchModel struct{ cur atomic.Value }

func newSwitchModel(m llm.Model) *switchModel {
	s := &switchModel{}
	s.cur.Store(modelBox{m})
	return s
}

func (s *switchModel) install(m llm.Model) { s.cur.Store(modelBox{m}) }

func (s *switchModel) Name() string { return s.cur.Load().(modelBox).m.Name() }

func (s *switchModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	return s.cur.Load().(modelBox).m.Complete(ctx, req)
}

// session is one scenario run's persistent state: the engine stack and
// the accumulated source table. The execution layer, index registry, and
// attribution ledger live across turns — that persistence is what the
// warm-cache and burst scenarios measure.
type session struct {
	base     llm.Model
	sw       *switchModel
	resil    *resil.Model
	counting *llm.CountingModel
	exec     *workflow.ExecLayer
	registry *embed.Registry
	attr     *workflow.Attribution
	source   []dataset.Record
	engine   string
	// srv is the session's declserver core, built lazily by the first
	// server turn and reused by later ones — the long-running service
	// whose warm substrate spans tenant waves.
	srv *server.Server
}

// snapshot reads the cumulative counters: upstream truth from the
// counting model (below every cache), dollars from the attribution
// ledger, and cache/coalescer effects from the shared layer.
func (s *session) snapshot() Snapshot {
	total := s.counting.Total()
	_, cost := s.attr.Total()
	st := s.exec.Stats()
	snap := Snapshot{
		Calls: total.Calls, Tokens: total.Total(), Cost: cost,
		CacheSize: st.CacheSize, CacheHits: st.CacheHits,
		Coalesced: st.Coalesced, Batches: st.Batches,
		SharedHits: st.CacheHits + st.Coalesced,
	}
	if s.resil != nil {
		rs := s.resil.Stats()
		snap.Retries, snap.Hedges, snap.BreakerOpens = rs.Retries, rs.Hedges, rs.BreakerOpens
	}
	return snap
}

// tables assembles one run's table map: the session's accumulated source
// plus the scenario's static side tables.
func (s *session) tables(sc *Scenario) map[string][]dataset.Record {
	tables := make(map[string][]dataset.Record, len(sc.Tables)+1)
	for k, v := range sc.Tables {
		tables[k] = v
	}
	tables["source"] = s.source
	return tables
}

// execConfig binds the scenario's knobs to the session's engine stack.
func (s *session) execConfig(k ExecKnobs) pipeline.ExecConfig {
	return pipeline.ExecConfig{
		Model: s.counting, Exec: s.exec, Registry: s.registry, Attribution: s.attr,
		Batch: k.Batch, Parallelism: k.Parallelism, OnRecordError: k.OnRecordError,
	}
}

// newSession builds the engine stack: base model (sim oracle with the
// scenario's predicates, or the escape-hatch model), the latency/fault
// switch, the scenario's resilience wrapper when it sets a policy, and
// the upstream call counter — which is the model the pipeline engine
// sees, so cache hits and coalesced joins never reach it, and retried
// attempts (below the counter) never inflate it.
func (h *Harness) newSession(sc *Scenario) *session {
	base, engine := h.baseModel(sc)
	sw := newSwitchModel(base)
	s := &session{
		base: base, sw: sw,
		exec: workflow.NewExecLayer(), registry: embed.NewRegistry(),
		attr:   workflow.NewAttribution(),
		source: append([]dataset.Record(nil), sc.Source...),
		engine: engine,
	}
	var inner llm.Model = sw
	if sc.Resilience != nil {
		s.resil = resil.Wrap(sw, *sc.Resilience)
		inner = s.resil
	}
	s.counting = llm.NewCounting(inner)
	return s
}

// baseModel resolves the unwrapped engine: Options.Model, or a fresh sim
// oracle with the scenario's predicates registered. Fresh per call on the
// sim path, so reference (CompareBatch) runs never share mutable state
// with the session.
func (h *Harness) baseModel(sc *Scenario) (llm.Model, string) {
	if h.opts.Model != nil {
		return h.opts.Model, "real/" + h.opts.Model.Name()
	}
	name := h.opts.ModelName
	if name == "" {
		name = DefaultModelName
	}
	oracle := sim.NewNamed(name)
	for _, p := range sc.Predicates {
		oracle.RegisterPredicate(p)
	}
	return oracle, "sim/" + name
}

// Run executes the scenario turn by turn, evaluating each checkpoint
// after the turn it binds to. A turn error aborts the run; checkpoint
// failures do not — they are the scenario's verdict, reported in the
// Result with Passed false.
func (h *Harness) Run(ctx context.Context, sc *Scenario) (*Result, error) {
	if err := validate(sc); err != nil {
		return nil, err
	}
	s := h.newSession(sc)
	res := &Result{ScenarioID: sc.ID, Name: sc.Name, Engine: s.engine, Passed: true}
	start := time.Now()
	for _, turn := range sc.Turns {
		tr, err := h.runTurn(ctx, sc, s, turn)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: turn %q: %w", sc.ID, turn.Name, err)
		}
		res.Turns = append(res.Turns, tr)
		at := s.snapshot()
		for _, cp := range sc.Checkpoints {
			if cp.AfterTurn != turn.Name {
				continue
			}
			cr := evalCheckpoint(cp, at, tr)
			res.Checkpoints = append(res.Checkpoints, cr)
			if !cr.Pass {
				res.Passed = false
			}
		}
	}
	final := s.snapshot()
	res.TotalCalls, res.TotalTokens, res.TotalCost = final.Calls, final.Tokens, final.Cost
	res.SharedHits = final.SharedHits
	res.Wall = time.Since(start)
	u, _ := s.attr.Total()
	res.AttributedCalls, res.AttributedTokens = u.Calls, u.Total()
	return res, nil
}

// validate rejects malformed scenarios before any engine work: missing
// spec or turns, duplicate or unnamed turns, checkpoints bound to
// unknown turns, and turn kinds the harness does not know.
func validate(sc *Scenario) error {
	if sc.ID == "" {
		return fmt.Errorf("scenario: missing ID")
	}
	if len(sc.Turns) == 0 {
		return fmt.Errorf("scenario %s: no turns", sc.ID)
	}
	names := make(map[string]bool, len(sc.Turns))
	for i, t := range sc.Turns {
		if t.Name == "" {
			return fmt.Errorf("scenario %s: turn %d has no name", sc.ID, i)
		}
		if names[t.Name] {
			return fmt.Errorf("scenario %s: duplicate turn name %q", sc.ID, t.Name)
		}
		names[t.Name] = true
		switch t.Kind {
		case TurnIngest, TurnQuery, TurnBurst, TurnLatency, TurnIdle, TurnFaults:
		case TurnServer:
			if t.Server == nil || len(t.Server.Waves) == 0 {
				return fmt.Errorf("scenario %s: server turn %q has no waves", sc.ID, t.Name)
			}
		default:
			return fmt.Errorf("scenario %s: turn %q has unknown kind %q", sc.ID, t.Name, t.Kind)
		}
	}
	for _, cp := range sc.Checkpoints {
		if !names[cp.AfterTurn] {
			return fmt.Errorf("scenario %s: checkpoint %q binds to unknown turn %q", sc.ID, cp.Name, cp.AfterTurn)
		}
	}
	return nil
}

// runTurn executes one turn and measures its counter deltas and wall
// clock.
func (h *Harness) runTurn(ctx context.Context, sc *Scenario, s *session, turn Turn) (TurnResult, error) {
	before := s.snapshot()
	start := time.Now()
	tr := TurnResult{Turn: turn.Name, Kind: turn.Kind}

	switch turn.Kind {
	case TurnIngest:
		s.source = append(s.source, turn.Records...)

	case TurnLatency:
		if turn.Latency > 0 {
			s.sw.install(llm.WithLatency(s.base, turn.Latency))
		} else {
			s.sw.install(s.base)
		}

	case TurnFaults:
		if turn.Faults != nil && !turn.Faults.Zero() {
			s.sw.install(llm.WithFaults(s.base, *turn.Faults))
		} else {
			s.sw.install(s.base)
		}

	case TurnIdle:
		select {
		case <-time.After(turn.Pause):
		case <-ctx.Done():
			return tr, ctx.Err()
		}

	case TurnQuery:
		res, err := h.runQuery(ctx, sc, s, turn)
		switch {
		case err != nil && turn.AllowError && ctx.Err() == nil:
			// An expected outage: record it and keep the scenario alive so
			// later turns can demonstrate recovery. A cancelled context is
			// never "expected" — that still aborts.
			tr.Failed, tr.Error = true, err.Error()
		case err != nil:
			return tr, err
		default:
			h.describeRun(sc, turn, res, &tr)
			if turn.CompareBatch {
				identical, err := h.compareBatch(ctx, sc, s, turn, res)
				if err != nil {
					return tr, fmt.Errorf("batch reference: %w", err)
				}
				tr.Identical = &identical
			}
		}

	case TurnBurst:
		res, err := h.runBurst(ctx, sc, s, turn)
		if err != nil {
			return tr, err
		}
		h.describeRun(sc, turn, res, &tr)

	case TurnServer:
		if err := h.runServer(ctx, sc, s, turn, &tr); err != nil {
			return tr, err
		}
	}

	tr.Wall = time.Since(start)
	after := s.snapshot()
	tr.Calls = after.Calls - before.Calls
	tr.Tokens = after.Tokens - before.Tokens
	tr.Cost = after.Cost - before.Cost
	tr.SharedHits = after.SharedHits - before.SharedHits
	return tr, nil
}

// turnSpec resolves which pipeline a query/burst turn runs.
func turnSpec(sc *Scenario, turn Turn) pipeline.Spec {
	if turn.Spec != nil {
		return *turn.Spec
	}
	return sc.Spec
}

// describeRun fills the turn result's view of one pipeline run: the
// final stage's width, scalars, and per-stage details.
func (h *Harness) describeRun(sc *Scenario, turn Turn, res *pipeline.Result, tr *TurnResult) {
	spec := turnSpec(sc, turn)
	last := spec.Stages[len(spec.Stages)-1].Name
	tr.Rows = len(res.Tables[last])
	tr.Skipped, tr.Quarantined = res.Skipped, res.Quarantined
	if len(res.Scalars) > 0 {
		tr.Scalars = res.Scalars
	}
	details := make(map[string]string, len(res.Stages))
	for _, st := range res.Stages {
		if st.Detail != "" {
			details[st.Name] = st.Detail
		}
	}
	if len(details) > 0 {
		tr.Details = details
	}
}

// runQuery executes one pipeline run on the session engine. With Feed
// waves it runs as a standing query: a goroutine hands each wave to the
// executor over an unbuffered channel while the run is already consuming,
// and the fed records join the session table once the run succeeds.
func (h *Harness) runQuery(ctx context.Context, sc *Scenario, s *session, turn Turn) (*pipeline.Result, error) {
	p, err := pipeline.Compile(turnSpec(sc, turn))
	if err != nil {
		return nil, err
	}
	cfg := s.execConfig(sc.Exec)
	if len(turn.Feed) > 0 {
		feed := make(chan dataset.Record)
		go func() {
			defer close(feed)
			for _, wave := range turn.Feed {
				for _, r := range wave {
					select {
					case feed <- r:
					case <-ctx.Done():
						return
					}
				}
			}
		}()
		cfg.Feed = feed
	}
	res, err := p.Run(ctx, cfg, s.tables(sc))
	if err != nil {
		return nil, err
	}
	for _, wave := range turn.Feed {
		s.source = append(s.source, wave...)
	}
	return res, nil
}

// runBurst fires Repeat concurrent copies of the query at the shared
// engine. At temperature 0 every copy computes the same answer, so the
// run reports the first result; the interesting outcome is the counter
// movement — the cache and coalescer should absorb all but one copy's
// upstream calls.
func (h *Harness) runBurst(ctx context.Context, sc *Scenario, s *session, turn Turn) (*pipeline.Result, error) {
	n := turn.Repeat
	if n < 2 {
		n = 2
	}
	spec := turnSpec(sc, turn)
	results := make([]*pipeline.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := pipeline.Compile(spec)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = p.Run(ctx, s.execConfig(sc.Exec), s.tables(sc))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results[0], nil
}

// sessionServer returns the session's declserver core, building it on the
// first server turn: the service runs on the session's own engine stack —
// the counting model as its upstream (so the session snapshot stays the
// single source of truth for calls and tokens), the shared exec layer,
// registry, and the session ledger as the per-tenant attribution. Every
// job the server runs records into a fresh per-run stage ledger that is a
// child of the session ledger, so the session ledger receives each genuine
// upstream call exactly once, under its tenant label — which keeps the
// harness's attributed==total invariant intact for server scenarios.
func (s *session) sessionServer(sc *Scenario, load *ServerLoad) *server.Server {
	if s.srv != nil {
		return s.srv
	}
	tenants := make(map[string]server.TenantLimits, len(load.Waves))
	for _, w := range load.Waves {
		rate := w.Rate
		if rate <= 0 {
			// Effectively no refill: the burst alone decides admission, so
			// the rejected count is deterministic whatever the turn's wall
			// clock.
			rate = 1e-9
		}
		tenants[w.Tenant] = server.TenantLimits{Rate: rate, Burst: w.Burst}
	}
	s.srv = server.New(server.Config{
		Model:         s.counting,
		Exec:          s.exec,
		Registry:      s.registry,
		Ledger:        s.attr,
		MaxConcurrent: load.MaxConcurrent,
		MaxQueue:      load.MaxQueue,
		Tenants:       tenants,
		Batch:         sc.Exec.Batch,
		Parallelism:   sc.Exec.Parallelism,
	})
	return s.srv
}

// runServer drives one server turn: every wave's submissions fire
// concurrently at the session's declserver, each a synchronous submit of
// the turn's spec over the session tables. Admission refusals (throttled
// or over capacity) are counted, not fatal; any other failure aborts the
// turn. The turn result carries the refusal count, the ledger-balance
// verdict, and the first completed job's rows and scalars (temperature 0:
// all completed jobs agree).
func (h *Harness) runServer(ctx context.Context, sc *Scenario, s *session, turn Turn, tr *TurnResult) error {
	srv := s.sessionServer(sc, turn.Server)
	spec := turnSpec(sc, turn)
	tables := s.tables(sc)

	var total int
	for _, w := range turn.Server.Waves {
		total += w.Submissions
	}
	statuses := make([]*server.JobStatus, total)
	errs := make([]error, total)
	var wg sync.WaitGroup
	i := 0
	for _, w := range turn.Server.Waves {
		for k := 0; k < w.Submissions; k++ {
			wg.Add(1)
			go func(i int, tenant string) {
				defer wg.Done()
				statuses[i], errs[i] = srv.Submit(ctx, server.SubmitRequest{
					Tenant: tenant, Spec: spec, Tables: tables,
				})
			}(i, w.Tenant)
			i++
		}
	}
	wg.Wait()

	for i, err := range errs {
		switch {
		case err == nil:
			st := statuses[i]
			if st.State != server.JobDone || st.Result == nil {
				return fmt.Errorf("submission %d ended %s: %s", i, st.State, st.Error)
			}
			if tr.Rows == 0 {
				last := spec.Stages[len(spec.Stages)-1].Name
				tr.Rows = len(st.Result.Tables[last])
				if len(st.Result.Scalars) > 0 {
					tr.Scalars = st.Result.Scalars
				}
			}
		case errors.Is(err, server.ErrRateLimited), errors.Is(err, server.ErrBusy):
			tr.Rejected++
		default:
			return fmt.Errorf("submission %d: %w", i, err)
		}
	}
	_, _, ok := srv.Balanced()
	tr.Balanced = &ok
	return nil
}

// compareBatch re-runs the turn's spec over the session's final record
// set (static table plus everything fed) on a completely fresh engine —
// new model instance, empty cache, empty ledger, no latency — and
// reports whether the final table and scalars are byte-identical to the
// standing-query run. This is the harness-level restatement of the
// executor's standing-query guarantee.
func (h *Harness) compareBatch(ctx context.Context, sc *Scenario, s *session, turn Turn, got *pipeline.Result) (bool, error) {
	p, err := pipeline.Compile(turnSpec(sc, turn))
	if err != nil {
		return false, err
	}
	base, _ := h.baseModel(sc)
	cfg := s.execConfig(sc.Exec)
	cfg.Model, cfg.Exec, cfg.Registry, cfg.Attribution = base, nil, nil, nil
	ref, err := p.Run(ctx, cfg, s.tables(sc))
	if err != nil {
		return false, err
	}
	spec := turnSpec(sc, turn)
	last := spec.Stages[len(spec.Stages)-1].Name
	return reflect.DeepEqual(got.Tables[last], ref.Tables[last]) &&
		reflect.DeepEqual(got.Scalars, ref.Scalars), nil
}

// evalCheckpoint scores one checkpoint against the cumulative snapshot
// and its turn's result. Zero-valued bounds are skipped.
func evalCheckpoint(cp Checkpoint, at Snapshot, tr TurnResult) CheckpointResult {
	var fails []string
	add := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	}
	if cp.MinCalls > 0 && at.Calls < cp.MinCalls {
		add("cumulative calls %d below floor %d", at.Calls, cp.MinCalls)
	}
	if cp.MaxCalls > 0 && at.Calls > cp.MaxCalls {
		add("cumulative calls %d above ceiling %d", at.Calls, cp.MaxCalls)
	}
	if cp.MaxCost > 0 && at.Cost > cp.MaxCost {
		add("cumulative cost $%.4f above ceiling $%.4f", at.Cost, cp.MaxCost)
	}
	if cp.MinSharedHits > 0 && at.SharedHits < cp.MinSharedHits {
		add("shared hits %d below floor %d", at.SharedHits, cp.MinSharedHits)
	}
	if cp.FreeTurn && tr.Calls != 0 {
		add("turn spent %d upstream calls, want 0 (free turn)", tr.Calls)
	}
	if cp.MinTurnWall > 0 && tr.Wall < cp.MinTurnWall {
		add("turn wall %s below floor %s", tr.Wall, cp.MinTurnWall)
	}
	if cp.MaxTurnWall > 0 && tr.Wall > cp.MaxTurnWall {
		add("turn wall %s above ceiling %s", tr.Wall, cp.MaxTurnWall)
	}
	if cp.WantRows > 0 && tr.Rows != cp.WantRows {
		add("final table has %d rows, want %d", tr.Rows, cp.WantRows)
	}
	for _, stage := range sortedKeys(cp.WantScalars) {
		want := cp.WantScalars[stage]
		if got := tr.Scalars[stage]; got != want {
			add("scalar %q = %q, want %q", stage, got, want)
		}
	}
	if cp.RequireIdentical {
		switch {
		case tr.Identical == nil:
			add("turn ran no batch comparison (set Turn.CompareBatch)")
		case !*tr.Identical:
			add("standing-query results differ from the batch reference")
		}
	}
	if cp.RequireDetail != "" && !detailContains(tr.Details, cp.RequireDetail) {
		add("no stage detail contains %q (details: %v)", cp.RequireDetail, tr.Details)
	}
	if cp.WantRejected > 0 && tr.Rejected != cp.WantRejected {
		add("turn rejected %d submissions, want %d", tr.Rejected, cp.WantRejected)
	}
	if cp.RequireBalanced {
		switch {
		case tr.Balanced == nil:
			add("turn ran no ledger-balance check (not a server turn)")
		case !*tr.Balanced:
			add("per-tenant ledger does not sum to the upstream counter")
		}
	}
	if cp.WantRetries > 0 && at.Retries != cp.WantRetries {
		add("cumulative retries %d, want %d", at.Retries, cp.WantRetries)
	}
	if cp.MinBreakerOpens > 0 && at.BreakerOpens < cp.MinBreakerOpens {
		add("breaker opened %d times, below floor %d", at.BreakerOpens, cp.MinBreakerOpens)
	}
	if cp.WantQuarantined > 0 && tr.Quarantined != cp.WantQuarantined {
		add("turn quarantined %d records, want %d", tr.Quarantined, cp.WantQuarantined)
	}
	if cp.RequireNoDrops && (tr.Skipped != 0 || tr.Quarantined != 0) {
		add("turn dropped records (skipped %d, quarantined %d), want none", tr.Skipped, tr.Quarantined)
	}
	if cp.RequireFailed && !tr.Failed {
		add("turn succeeded, want an expected failure (set Turn.AllowError)")
	}
	return CheckpointResult{
		Checkpoint: cp.Name, Turn: cp.AfterTurn,
		Pass: len(fails) == 0, Failures: fails, At: at,
	}
}

func detailContains(details map[string]string, sub string) bool {
	for _, d := range details {
		if strings.Contains(d, sub) {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
