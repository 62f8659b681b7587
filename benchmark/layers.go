package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/llm/httpapi"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/prompt"
	"repro/internal/resil"
	"repro/internal/server"
	"repro/internal/token"
	"repro/internal/workflow"
)

// layerJobs is how many traced jobs are replayed in-process.
const layerJobs = 8

// layerPass holds what the traced pass measured beyond the window's
// counters: per-job in-process replays and the micro-passes.
type layerPass struct {
	// One value per replayed job.
	decodeMS, encodeMS, compileUS, optimizeUS  []float64
	runMS, runMaterializedMS, runAdaptiveMS    []float64
	serviceMS, waitMS, chunks, usPerAsk, embed []float64
	// micro maps a metric name to its micro-pass value.
	micro     map[string]float64
	spans     int
	selfShare map[string]float64
}

// perOp is the mean time of fn over iters calls, in nanoseconds and
// fractions of one: a metric of a few hundred nanoseconds keeps all its
// digits.
func perOp(iters int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(t0)) / float64(iters)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// measureLayers replays a sample of the traced jobs in-process on the
// bytes that were sent — decode, compile, run on the server's warm
// execution layer and registry, encode — times each step, runs the
// micro-passes, and links and writes the trace.
func measureLayers(st *stack, m *run, opt options) (*layerPass, error) {
	l := &layerPass{}
	replays := make(map[string]replayTimes)
	seen := make(map[int]bool)
	for _, s := range m.window.samples {
		k := s.index % len(st.in.sources)
		// A job that began and ended inside one traced slice has every one of
		// its spans on record.
		whole := m.tracedSlice(s.done) && m.sliceOf(s.due) == m.sliceOf(s.done)
		if !s.ok || !whole || seen[k] || len(replays) == layerJobs {
			continue
		}
		seen[k] = true
		rt, err := l.replay(st, s, opt.sz)
		if err != nil {
			return nil, fmt.Errorf("replaying job %s: %w", s.id, err)
		}
		replays[s.id] = rt
	}
	var err error
	if l.micro, err = microPasses(st, opt.sz); err != nil {
		return nil, err
	}

	spans := m.tracer.spans(st.w.open, m.window.to.at, replays)
	l.spans = len(spans)
	if err := writeTrace(filepath.Join(filepath.Dir(opt.out), "trace-"+st.w.name+".json"), spans); err != nil {
		return nil, err
	}
	// Self time is taken over the replayed jobs, whose trees are complete.
	var sampled []span
	wall := 0.0
	for _, s := range spans {
		if _, ok := replays[s.Job]; ok {
			sampled = append(sampled, s)
			if s.Name == spanJob {
				wall += s.End - s.Start
			}
		}
	}
	l.selfShare = make(map[string]float64)
	for name, self := range selfTimes(sampled) {
		l.selfShare[name] = self / wall
	}
	return l, nil
}

// replay re-runs one job in-process the way the server ran it, one step
// at a time. The cache is warm (the server has just answered the job), so
// run is the job's CPU path with every upstream wait removed.
func (l *layerPass) replay(st *stack, s sample, sz sizes) (replayTimes, error) {
	var rt replayTimes
	body := st.in.body(s.index, s.tenant)

	t0 := time.Now()
	req, err := decodeSubmit(body)
	if err != nil {
		return rt, err
	}
	rt.decode = time.Since(t0)

	var p *pipeline.Pipeline
	compile := perOp(sz.microIters, func() { p, err = pipeline.Compile(req.Spec) })
	rt.compile = time.Duration(compile)
	if err != nil {
		return rt, err
	}
	optimize := perOp(sz.microIters, func() { _, _, err = pipeline.Optimize(req.Spec) })
	if err != nil {
		return rt, err
	}

	ctx := workflow.TagTenant(context.Background(), s.tenant)
	cfg := pipeline.ExecConfig{Model: st.model, Exec: st.exec, Registry: st.reg}
	run := func(cfg pipeline.ExecConfig) (*pipeline.Result, time.Duration, int, error) {
		before := st.exec.Stats()
		t0 := time.Now()
		res, err := p.Run(ctx, cfg, req.Tables)
		d := time.Since(t0)
		after := st.exec.Stats()
		return res, d, after.CacheHits - before.CacheHits + after.Coalesced - before.Coalesced, err
	}
	res, d, asks, err := run(cfg)
	if err != nil {
		return rt, err
	}
	rt.run = d
	materialized, adaptive := cfg, cfg
	materialized.Materialized, adaptive.Adaptive = true, true
	_, dMat, _, err := run(materialized)
	if err != nil {
		return rt, err
	}
	_, dAda, _, err := run(adaptive)
	if err != nil {
		return rt, err
	}

	t0 = time.Now()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(server.JobStatus{ID: s.id, Tenant: s.tenant, State: server.JobDone, Result: server.JobResultOf(res)}); err != nil {
		return rt, err
	}
	rt.encode = time.Since(t0)
	rt.embed = embedCalls(st.reg, req, res)

	var timing workflow.StageTiming
	for _, sr := range res.Stages {
		timing = timing.Add(sr.Timing)
	}
	l.decodeMS = append(l.decodeMS, ms(rt.decode))
	l.encodeMS = append(l.encodeMS, ms(rt.encode))
	l.compileUS = append(l.compileUS, compile/1e3)
	l.optimizeUS = append(l.optimizeUS, optimize/1e3)
	l.runMS = append(l.runMS, ms(rt.run))
	l.runMaterializedMS = append(l.runMaterializedMS, ms(dMat))
	l.runAdaptiveMS = append(l.runAdaptiveMS, ms(dAda))
	l.serviceMS = append(l.serviceMS, ms(timing.Service))
	l.waitMS = append(l.waitMS, ms(timing.Wait))
	l.chunks = append(l.chunks, float64(timing.Chunks))
	l.usPerAsk = append(l.usPerAsk, us(rt.run)/float64(max(asks, 1)))
	l.embed = append(l.embed, ms(rt.embed))
	return rt, nil
}

// embedCalls re-issues, against the server's registry, the calls into the
// embed layer that one run of the job makes, and times them: per impute
// chunk one Registry.IndexWith over the train table (the content hash)
// and one Index.Nearest per record; per blocked-pairwise resolve one
// IndexWith over the stage's input and one Index.Blocks. Rendering the
// records to text is core's work and stays outside the clock.
func embedCalls(reg *embed.Registry, req server.SubmitRequest, res *pipeline.Result) time.Duration {
	em := embed.Default()
	var total time.Duration
	prev := "source"
	for i, s := range req.Spec.Stages {
		input := s.Input
		if input == "" {
			input = prev
		}
		prev = s.Name
		in := req.Tables[input]
		if input != "source" {
			in = res.Tables[input]
		}
		switch {
		case s.Kind == pipeline.KindImpute && len(in) > 0:
			side := s.Side
			if side == "" {
				side = "train"
			}
			train := req.Tables[side]
			items := make([]embed.Item, len(train))
			for n, r := range train {
				items[n] = embed.Item{ID: r.ID, Text: r.WithoutField(s.TargetField).String()}
			}
			queries := make([]string, len(in))
			for n, r := range in {
				queries[n] = r.WithoutField(s.TargetField).String()
			}
			k := max(s.Neighbors, s.Examples)
			if s.Neighbors == 0 {
				k = max(3, s.Examples)
			}
			t0 := time.Now()
			var ix *embed.Index
			for c := 0; c < max(res.Stages[i].Timing.Chunks, 1); c++ {
				ix = reg.IndexWith(em, items, embed.IndexOptions{})
			}
			for _, q := range queries {
				ix.Nearest(q, k)
			}
			total += time.Since(t0)
		case s.Kind == pipeline.KindResolve && s.Strategy == string(core.DedupeBlockedPairwise) && len(in) > 0:
			items := make([]embed.Item, len(in))
			for n, r := range in {
				text := r.String()
				if s.Field != "" {
					text, _ = r.Get(s.Field)
				}
				items[n] = embed.Item{ID: strconv.Itoa(n), Text: text}
			}
			distance := s.BlockDistance
			if distance == 0 {
				distance = 0.9
			}
			t0 := time.Now()
			reg.IndexWith(em, items, embed.IndexOptions{}).Blocks(distance)
			total += time.Since(t0)
		}
	}
	return total
}

// constantModel answers instantly with a fixed completion: the
// zero-latency, zero-work upstream the wrapper overheads are measured over.
var constantModel = llm.Func{ModelName: modelName, Fn: func(context.Context, llm.Request) (llm.Response, error) {
	return llm.Response{Text: "Yes", Model: modelName, Usage: token.Usage{PromptTokens: 8, CompletionTokens: 1, Calls: 1}}, nil
}}

// microPasses time calls into single layers' public functions on the
// workload's own generated records.
func microPasses(st *stack, sz sizes) (map[string]float64, error) {
	out := make(map[string]float64)
	ctx := context.Background()
	corpus := st.in.corpus
	const target = "city"
	items := make([]embed.Item, len(corpus))
	for i, r := range corpus {
		items[i] = embed.Item{ID: r.ID, Text: r.WithoutField(target).String()}
	}
	head := corpus[:min(64, len(corpus))]
	names := make([]string, len(head))
	prompts := make([]llm.Request, len(head))
	for i, r := range head {
		names[i], _ = r.Get("name")
		prompts[i] = llm.Request{Prompt: prompt.FilterItem(names[i], predCasual)}
	}
	each := func(m llm.Model, reqs []llm.Request) error {
		for _, req := range reqs {
			if _, err := m.Complete(ctx, req); err != nil {
				return err
			}
		}
		return nil
	}
	// timeEach is the mean time of one Complete over rounds passes, in
	// nanoseconds.
	timeEach := func(m llm.Model, reqs []llm.Request, rounds int) (float64, error) {
		var err error
		ns := perOp(rounds, func() {
			if e := each(m, reqs); e != nil {
				err = e
			}
		})
		return ns / float64(len(reqs)), err
	}

	// llm: the simulator's own cost per call, and a loopback round trip
	// through the OpenAI-style transport.
	oracle := st.up.inner
	d, err := timeEach(oracle, prompts, sz.microIters)
	if err != nil {
		return nil, err
	}
	out["llm.sim_us_per_call"] = d / 1e3
	if d, err = httpapiRoundTrip(oracle, prompts, sz.microIters); err != nil {
		return nil, err
	}
	out["llm.httpapi_roundtrip_us"] = d / 1e3

	// workflow: the hit path alone and under GOMAXPROCS-way contention,
	// and what a miss adds over the model's own time.
	layer := workflow.NewExecLayer()
	cached := layer.Wrap(oracle)
	if err := each(cached, prompts); err != nil {
		return nil, err
	}
	rounds := sz.microIters * 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if d, err = timeEach(cached, prompts, rounds); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	out["workflow.hit_ns"] = d
	out["workflow.hit_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(rounds*len(prompts))
	procs := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				each(cached, prompts) // every prompt hit a moment ago; an error would have surfaced there
			}
		}()
	}
	wg.Wait()
	out["workflow.hit_ns_contended"] = float64(time.Since(t0)) / float64(rounds*len(prompts))
	fresh := make([]llm.Request, 64*sz.microIters)
	for i := range fresh {
		fresh[i] = llm.Request{Prompt: fmt.Sprintf("miss probe %d of seed %d", i, st.up.seed)}
	}
	raw, err := timeEach(constantModel, fresh, 1)
	if err != nil {
		return nil, err
	}
	miss, err := timeEach(workflow.NewExecLayer().Wrap(constantModel), fresh, 1)
	if err != nil {
		return nil, err
	}
	out["workflow.miss_overhead_ns"] = miss - raw

	// resil: the retry wrapper on a call that never fails.
	wrapped := resil.Wrap(constantModel, retryPolicy)
	if d, err = timeEach(wrapped, fresh, 1); err != nil {
		return nil, err
	}
	out["resil.wrap_overhead_ns"] = d - raw

	// embed: one embedding, a full index build, a registry hit (the
	// content hash of the whole corpus), a top-5 scan, and the index file.
	em := embed.Default()
	texts := make([]string, len(head))
	for i, r := range head {
		texts[i] = r.WithoutField(target).String()
	}
	out["embed.embed_us"] = perOp(sz.microIters, func() {
		for _, t := range texts {
			em.Embed(t)
		}
	}) / 1e3 / float64(len(texts))
	t0 = time.Now()
	ix := embed.NewIndex(em)
	ix.AddAll(items)
	out["embed.index_build_ms"] = ms(time.Since(t0))
	st.reg.IndexWith(em, items, embed.IndexOptions{}) // present from here on
	out["embed.registry_hit_ms"] = perOp(max(sz.microIters/10, 3), func() { st.reg.IndexWith(em, items, embed.IndexOptions{}) }) / 1e6
	out["embed.nearest_us"] = perOp(max(sz.microIters/10, 3), func() {
		for _, t := range texts {
			ix.Nearest(t, 5)
		}
	}) / 1e3 / float64(len(texts))
	path := filepath.Join(st.dir, "micro.dpix")
	t0 = time.Now()
	if err := embed.SaveIndex(path, ix, em, items); err != nil {
		return nil, err
	}
	out["embed.index_save_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	if _, err := embed.LoadIndex(path, em, items, embed.IndexOptions{}); err != nil {
		return nil, err
	}
	out["embed.index_load_ms"] = ms(time.Since(t0))
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	out["embed.index_file_mb"] = float64(fi.Size()) / 1e6

	// core: Impute over 1, 8 and 64 records against the whole corpus gives
	// the per-invocation cost (re-rendering and re-hashing the train
	// table) as the intercept and the per-record cost as the slope.
	eng := core.New(oracle, core.WithExecutionLayer(workflow.NewExecLayer()), core.WithIndexRegistry(st.reg))
	impute := func(n int) (time.Duration, error) {
		req := core.ImputeRequest{Train: corpus, Queries: head[:n], TargetField: target, Strategy: core.ImputeHybrid, Neighbors: 5}
		if _, err := eng.Impute(ctx, req); err != nil { // answers whatever the model must, once
			return 0, err
		}
		times := make([]float64, 3)
		for i := range times {
			t0 := time.Now()
			if _, err := eng.Impute(ctx, req); err != nil {
				return 0, err
			}
			times[i] = float64(time.Since(t0))
		}
		return time.Duration(median(times)), nil
	}
	one, err := impute(1)
	if err != nil {
		return nil, err
	}
	many, err := impute(len(head))
	if err != nil {
		return nil, err
	}
	slope := float64(many-one) / float64(max(len(head)-1, 1))
	out["core.impute_per_record_us"] = slope / 1e3
	out["core.impute_fixed_ms"] = (float64(one) - slope) / 1e6
	filter := core.FilterRequest{Items: names, Predicate: predCasual}
	if _, err := eng.Filter(ctx, filter); err != nil {
		return nil, err
	}
	out["core.filter_us_per_record"] = perOp(sz.microIters, func() { _, err = eng.Filter(ctx, filter) }) / 1e3 / float64(len(names))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// httpapiRoundTrip is the mean time, in nanoseconds, of one completion
// through httpapi.Client to an in-process httpapi.Server on loopback.
func httpapiRoundTrip(m llm.Model, reqs []llm.Request, rounds int) (float64, error) {
	models := llm.NewRegistry()
	models.Register(m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: httpapi.NewServer(models, nil).Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	client := httpapi.NewClient("http://"+ln.Addr().String(), m.Name(), httpapi.ClientOptions{HTTPClient: hc})
	var callErr error
	d := perOp(rounds, func() {
		for _, req := range reqs {
			if _, err := client.Complete(context.Background(), req); err != nil {
				callErr = err
			}
		}
	}) / float64(len(reqs))
	hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && callErr == nil {
		callErr = err
	}
	<-served
	return d, callErr
}

// perLayer fills the per-layer metrics from the traced window's counter
// deltas, the replays, the micro-passes and the restart.
func (r *result) perLayer(st *stack, m *run, l *layerPass, rs restart, bad, goroutines int) {
	win := m.window
	c := delta(win)
	jobs := float64(max(c.jobs, 1))
	lat, failed := latencies(win.samples)
	r.Attempted += len(win.samples)
	r.Failed += failed

	n := len(l.runMS)
	r.set("server.decode_ms", median(l.decodeMS), n)
	r.set("server.encode_ms", median(l.encodeMS), n)
	var overhead []float64
	late := 0
	for _, s := range win.samples {
		if s.ok {
			overhead = append(overhead, ms(s.done.Sub(s.sent))-s.wallMS)
		}
		if !s.ok || s.latencyMS() > st.w.limitMS {
			late++
		}
	}
	r.set("server.overhead_ms", median(overhead), len(overhead))
	polls := float64(max(m.gate.n, 1))
	r.set("server.running_mean", float64(m.gate.running)/polls, m.gate.n)
	r.set("server.waiting_mean", float64(m.gate.waiting)/polls, m.gate.n)
	r.set("server.gate_util", float64(m.gate.running)/polls/4, m.gate.n)
	r.set("server.throttled", float64(c.throttled), 0)
	r.set("server.rejected_busy", float64(c.rejected), 0)
	r.set("server.drain_ms", ms(rs.drain), 1)
	r.set("server.new_warm_ms", ms(st.newWarm), 1)
	r.set("server.restart_ready_ms", ms(rs.ready), 1)
	r.set("server.restart_lost_share", float64(rs.calls)/float64(max(rs.asks, 1)), len(rs.samples))

	r.set("pipeline.compile_us", median(l.compileUS), n)
	r.set("pipeline.optimize_us", median(l.optimizeUS), n)
	r.set("pipeline.run_ms", median(l.runMS), n)
	r.set("pipeline.run_ms.materialized", median(l.runMaterializedMS), n)
	r.set("pipeline.run_ms.adaptive", median(l.runAdaptiveMS), n)
	r.set("pipeline.stage_service_ms", median(l.serviceMS), n)
	r.set("pipeline.stage_wait_ms", median(l.waitMS), n)
	r.set("pipeline.chunks_per_job", median(l.chunks), n)
	r.set("pipeline.us_per_unit_ask", median(l.usPerAsk), n)

	asks := float64(max(c.asks, 1))
	r.set("workflow.cache_hit_share", float64(c.hits)/asks, c.asks)
	r.set("workflow.coalesced_share", float64(c.coalesced)/asks, c.asks)
	r.set("workflow.duplicate_calls", float64(c.calls-c.cacheGrowth), 0)
	r.set("workflow.envelopes_per_job", float64(c.batches)/jobs, 0)
	r.set("workflow.log_flush_ms", ms(rs.flush), 1)
	r.set("workflow.log_flush_records", float64(rs.flushRecords), 0)
	r.set("workflow.log_bytes_per_entry", float64(rs.logBytes)/float64(max(rs.logRecords, 1)), rs.logRecords)
	r.set("workflow.log_replay_ms", ms(st.logReplay), 1)

	r.set("embed.share_of_run", median(l.embed)/median(l.runMS), n)
	r.set("embed.registry_builds_per_job", float64(c.builds)/jobs, 0)
	r.set("embed.registry_hits_per_job", float64(c.regHits)/jobs, 0)

	r.set("resil.retries_per_job", float64(c.retries)/jobs, 0)
	r.set("resil.hedges_per_job", float64(c.hedges)/jobs, 0)
	r.set("resil.breaker_opens", float64(c.opens), 0)

	r.set("llm.upstream_calls_per_job", float64(c.calls)/jobs, 0)
	r.set("llm.upstream_tokens_per_job", float64(c.tokens)/jobs, 0)
	wall := max(c.wallMS, 1)
	r.set("llm.upstream_inflight_mean", c.upBusy/wall, 0)
	r.set("llm.upstream_idle_share", max(0, 1-c.upCover/wall), 0)

	r.set("process.cpu_ms_per_job", c.cpu/jobs, 0)
	r.set("process.gc_pause_ms", float64(c.gcPauseNS)/1e6, 0)
	r.set("process.peak_rss_mb", peakRSSMB(), 0)
	r.set("process.mallocs_per_job", float64(c.mallocs)/jobs, 0)
	r.set("process.goroutines_end", float64(goroutines), 0)

	attempted := float64(max(len(win.samples), 1))
	r.set("loadgen.job_p95_ms", metrics.Percentile(lat, 95), len(lat))
	r.set("loadgen.late_share", float64(late)/attempted, len(win.samples))
	r.set("loadgen.failed_share", float64(failed)/attempted, len(win.samples))
	r.set("loadgen.mismatch_share", float64(bad)/float64(max(len(m.all)+len(rs.samples), 1)), len(m.all)+len(rs.samples))
	r.set("loadgen.backlog_end", float64(win.to.backlog), 0)

	var on, off []float64
	for _, s := range win.samples {
		if !s.ok {
			continue
		}
		at := s.done
		if st.w.open {
			at = s.due
		}
		if m.tracedSlice(at) {
			on = append(on, s.latencyMS())
		} else {
			off = append(off, s.latencyMS())
		}
	}
	r.set("trace.overhead_share", median(on)/median(off)-1, len(on))
	r.set("trace.spans", float64(l.spans), 0)

	for name, value := range l.micro {
		r.set(name, value, 0)
	}
	r.SelfShare = l.selfShare
}
