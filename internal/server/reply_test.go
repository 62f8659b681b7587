package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/token"
)

// encodeStatus is what the server wrote before the reply writer, and the
// reference it is held to.
func encodeStatus(st *JobStatus) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(st)
	return buf.Bytes(), err
}

// writeStatus runs the reply writer on st with res as its result.
func writeStatus(in *tableInterner, inputs []*internedTable, st *JobStatus, res *pipeline.Result) ([]byte, error) {
	w := replyWriter{tables: in, inputs: inputs}
	w.status(st, res)
	return w.b, w.err
}

// oddTables spells a source and a train table the way a tenant may and
// encoding/json never writes them: a lowercase "id", whitespace between
// tokens, the escape \u0026 for &, raw <, > and &, a raw U+2028, an
// invalid UTF-8 byte, and "Fields":null beside "Fields":[]. Decoding and
// rendering again gives other bytes, so a reply that copied the request's
// bytes would show.
func oddTables() string {
	esc := "\\" + "u0026"
	ls := "\xe2\x80\xa8"
	source := `[ {"id" : "a` + esc + `b", "Fields": [ {"Name":"kind","Value":"tool"}, {"Name":"name","Value":"<Fish> & ` + esc + ` Chips` + ls + `"} ] },
	{"ID":"b` + "\xff" + `","Fields":[{"Name":"kind","Value":"toy` + "\xfe" + `"},{"Name":"name","Value":"Caf` + "\xc3\xa9" + ` \"Q\""}]},
	{"ID":"c","Fields":null},
	{"ID":"d","Fields":[]},
	{"ID":"e","Fields":[{"Name":"kind","Value":"tool"},{"Name":"name","Value":"tab\there"}]},
	{"ID":"f","Fields":[{"Name":"kind","Value":"gadget"},{"Name":"name","Value":"Grill` + ls + `House"}]} ]`
	train := `[{"ID":"t1","Fields":[{"Name":"name","Value":"Fish & Chips"},{"Name":"city","Value":"Leeds"}]},
	{"ID":"t2","Fields":[{"Name":"name","Value":"Caf` + "\xc3\xa9" + `"},{"Name":"city","Value":"Paris <FR>"}]}]`
	return `{"source":` + source + `, "train" :` + train + `}`
}

// mixedSpec passes input records through (filter, sort, count) and makes
// new ones (categorize, impute).
func mixedSpec() string {
	spec, err := json.Marshal(pipeline.Spec{Stages: []pipeline.StageSpec{
		{Name: "keep", Kind: pipeline.KindFilter, Input: "source", Field: "kind", Predicate: "the kind is tool"},
		{Name: "order", Kind: pipeline.KindSort, Input: "keep", Criterion: "how tool-like it is", Strategy: "rating"},
		{Name: "tally", Kind: pipeline.KindCount, Input: "source", Field: "kind", Predicate: "the kind is tool", Strategy: "per-item"},
		{Name: "cat", Kind: pipeline.KindCategorize, Input: "source", Field: "name", Categories: []string{"diner", "cafe"}},
		{Name: "city", Kind: pipeline.KindImpute, Input: "source", TargetField: "city", Side: "train", Strategy: "knn"},
	}})
	if err != nil {
		panic(err)
	}
	return string(spec)
}

// TestReplyBytesMatchEncodingJSON pins the wire bytes: over HTTP, the raw
// body of a sync submit, of an async poll after done and of a cancel, on
// a table's first sight and warm, is exactly json.Encoder's (HTML
// escaping off) on the JobStatus the server reports for the job. The
// conformance tests decode replies and marshal them again, so they cannot
// see this.
func TestReplyBytesMatchEncodingJSON(t *testing.T) {
	body := func(async bool) []byte {
		b := `{"tenant":"t","spec":` + mixedSpec() + `,"tables":` + oddTables()
		if async {
			b += `,"async":true`
		}
		return []byte(b + `}`)
	}
	idOf := func(t *testing.T, code int, got []byte) string {
		t.Helper()
		var ws struct{ ID string }
		if err := json.Unmarshal(got, &ws); err != nil || code/100 != 2 {
			t.Fatalf("HTTP %d %s (decode: %v)", code, got, err)
		}
		return ws.ID
	}
	// check compares a reply for a job that has finished, and so reports
	// the same status to an in-process caller.
	check := func(t *testing.T, s *Server, code int, got []byte) string {
		t.Helper()
		id := idOf(t, code, got)
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := encodeStatus(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("reply bytes differ from encoding/json's:\ngot:  %q\nwant: %q", got, want)
		}
		return id
	}
	for _, warm := range []bool{false, true} {
		for _, how := range []string{"sync submit", "async poll", "cancel"} {
			t.Run(fmt.Sprintf("%s warm=%v", how, warm), func(t *testing.T) {
				s := New(Config{Model: testOracle()})
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()
				if warm {
					check(t, s, http.StatusOK, submitBody(t, ts, body(false)))
				}
				reusedBefore := s.Stats().ReplyBytesReused
				var id string
				switch how {
				case "sync submit":
					id = check(t, s, http.StatusOK, submitBody(t, ts, body(false)))
				case "async poll":
					code, got := post(t, ts, "/v1/pipelines", body(true))
					id = idOf(t, code, got)
					waitState(t, s, id, JobDone)
					code, got = do(t, ts, http.MethodGet, "/v1/jobs/"+id)
					check(t, s, code, got)
				case "cancel":
					id = check(t, s, http.StatusOK, submitBody(t, ts, body(false)))
					code, got := do(t, ts, http.MethodDelete, "/v1/jobs/"+id)
					check(t, s, code, got)
				}
				if st, _ := s.Job(id); st.State != JobDone {
					t.Fatalf("job %s is %s (%s), want done", id, st.State, st.Error)
				}
				stats := s.Stats()
				if reused := stats.ReplyBytesReused - reusedBefore; warm != (reused > 0) {
					t.Errorf("%d reply bytes copied from rendered tables; want some exactly when the tables are warm", reused)
				}
				if stats.ReplyBytes == 0 || stats.ReplyBytesReused > stats.ReplyBytes {
					t.Errorf("stats count %d reply bytes, %d reused", stats.ReplyBytes, stats.ReplyBytesReused)
				}
			})
		}
	}
}

// submitBody posts a sync submission and returns the raw reply.
func submitBody(t *testing.T, ts *httptest.Server, raw []byte) []byte {
	t.Helper()
	code, got := post(t, ts, "/v1/pipelines", raw)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d %s", code, got)
	}
	return got
}

// fuzzStatus builds a JobStatus, the result it reports and an interned
// input table from fuzz inputs; shape's bits choose nil against empty,
// omitempty zeros, the state and which tables pass the input's records
// through.
func fuzzStatus(a, b, c string, shape uint16, wall, cost float64) (*JobStatus, *pipeline.Result, *internedTable) {
	bit := func(i uint) bool { return shape&(1<<i) != 0 }
	var empty []dataset.Field
	if bit(0) {
		empty = []dataset.Field{}
	}
	input := []dataset.Record{
		{ID: a, Fields: []dataset.Field{{Name: b, Value: c}}},
		{ID: b, Fields: empty},
		{ID: c, Fields: []dataset.Field{{Name: a, Value: b}, {Name: c, Value: a}}},
	}
	tab := newInternedTable(tableKey{}, nil, input)
	states := []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCancelled, JobState(c)}
	st := &JobStatus{ID: a, Tenant: b, State: states[int(shape>>12)%len(states)], WallMS: wall}
	if bit(1) {
		st.Error = c
	}
	if bit(2) {
		return st, nil, tab
	}
	res := &pipeline.Result{Cost: cost, Usage: token.Usage{PromptTokens: int(shape >> 8), CompletionTokens: len(a)}}
	if !bit(3) {
		res.Tables = map[string][]dataset.Record{}
		if bit(4) {
			res.Tables[a] = input
		}
		if bit(5) {
			res.Tables[b] = []dataset.Record{input[2], {ID: a, Fields: []dataset.Field{{Name: c}}}, input[0], {ID: "x", Fields: input[0].Fields}}
		}
		if bit(6) {
			res.Tables[c] = nil
		}
		if bit(7) {
			res.Tables[c+"!"] = []dataset.Record{}
		}
	}
	if bit(8) {
		res.Scalars = map[string]string{}
		if bit(9) {
			res.Scalars[a], res.Scalars[c] = b, a
		}
	}
	if bit(10) {
		res.Stages = []pipeline.StageReport{}
		if bit(11) {
			res.Stages = append(res.Stages,
				pipeline.StageReport{Name: a, Kind: b, In: len(c), Out: -1, Cost: wall, Detail: c},
				pipeline.StageReport{Name: c, Usage: token.Usage{Calls: 3, PromptTokens: 5}, Cost: -cost})
		}
	}
	if bit(1) {
		res.Skipped, res.Quarantined = int(shape&7), len(b)
	}
	return st, res, tab
}

// FuzzReplyWriter is the reply writer's differential test against
// encoding/json: on any strings, nil and empty slices and maps, omitempty
// zeros and any floats — both sides of the 'f'/'e' switch at 1e-6 and
// 1e21, -0, NaN and the infinities — it writes exactly json.Encoder's
// bytes or fails with its error. Each status is written cold, with its
// passed-through records rendered into the interner, and again copying
// them.
func FuzzReplyWriter(f *testing.F) {
	ls := "\xe2\x80\xa8"
	strs := []string{"", "plain", `q"uote\back`, "<b>&amp;</b>", "ctl\x00\x01\x08\x0c\n\r\t\x1f\x7f", "bad\xff\xfeutf8", ls + "\xe2\x80\xa9", "caf\xc3\xa9 \xf0\x9f\x8d\xa6"}
	floats := []float64{0, math.Copysign(0, -1), 1e-6, 9.999999e-7, -1e-7, 1e21, 9.99999e20, -1e21, 0.1, 12.345, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i, fl := range floats {
		s := strs[i%len(strs)]
		f.Add(s, strs[(i+3)%len(strs)], strs[(i+5)%len(strs)], uint16(i*0x1357), fl, floats[(i+4)%len(floats)])
	}
	f.Add("a", "b", "c", uint16(0xffff), 1.5, 2.5)
	f.Add("a", "a", "a", uint16(0x2bfb), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, a, b, c string, shape uint16, wall, cost float64) {
		st, res, tab := fuzzStatus(a, b, c, shape, wall, cost)
		ref := *st
		if res != nil {
			ref.Result = JobResultOf(res)
		}
		want, wantErr := encodeStatus(&ref)
		in := newTableInterner()
		in.recency.PushFront(tab)
		in.byKey[tab.key] = in.recency.Front()
		for pass := 0; pass < 2; pass++ {
			got, err := writeStatus(in, []*internedTable{tab}, st, res)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("pass %d: writer error %v, encoding/json error %v", pass, err, wantErr)
			}
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("pass %d: writer and encoding/json differ:\ngot:  %q\nwant: %q", pass, got, want)
			}
		}
	})
}

// TestWriteJSONRendersBeforeSending pins that a reply encoding/json
// refuses goes out as a 500 with the server_error envelope, not as the
// intended status over a truncated body — for the generic writer and for
// a job reply — and that a refused job reply is not counted.
func TestWriteJSONRendersBeforeSending(t *testing.T) {
	check := func(t *testing.T, rec *httptest.ResponseRecorder) {
		t.Helper()
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusInternalServerError ||
			e.Error.Type != "server_error" || !strings.Contains(e.Error.Message, "unsupported value: NaN") {
			t.Fatalf("HTTP %d %q (decode: %v), want a 500 server_error envelope naming the NaN", rec.Code, rec.Body, err)
		}
		if n := rec.Header().Get("Content-Length"); n != fmt.Sprint(rec.Body.Len()) {
			t.Errorf("Content-Length %s for a %d-byte body", n, rec.Body.Len())
		}
	}
	t.Run("writeJSON", func(t *testing.T) {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
		check(t, rec)
	})
	t.Run("job reply", func(t *testing.T) {
		s := &Server{tables: newTableInterner()}
		j := &job{id: "j", tenant: "t", state: JobDone, result: &pipeline.Result{Cost: math.NaN()}}
		rec := httptest.NewRecorder()
		s.writeReply(rec, http.StatusOK, j)
		check(t, rec)
		if n := s.replyBytes.Load(); n != 0 {
			t.Errorf("a refused reply counted %d reply bytes", n)
		}
	})
}

// warmReplayBody is a warm-replay-shaped submission: n restaurants, which
// three filters, a sort and a count pass through and a categorize
// rewrites.
func warmReplayBody(t testing.TB, n int) []byte {
	t.Helper()
	ds := dataset.GenerateRestaurants(0, n, 7)
	raw, err := json.Marshal(SubmitRequest{
		Tenant: "t",
		Spec: pipeline.Spec{Stages: []pipeline.StageSpec{
			{Name: "casual", Kind: pipeline.KindFilter, Input: "source", Field: "name", Predicate: "the restaurant sounds like a casual neighbourhood place"},
			{Name: "seafood", Kind: pipeline.KindFilter, Input: "source", Field: "type", Predicate: "the restaurant serves seafood, steak, or pizza"},
			{Name: "street", Kind: pipeline.KindFilter, Input: "source", Field: "addr", Predicate: "the address is on a numbered street or avenue"},
			{Name: "kind", Kind: pipeline.KindCategorize, Input: "source", Field: "name", Categories: []string{"diner", "cafe", "grill", "bistro", "kitchen", "house"}},
			{Name: "fancy", Kind: pipeline.KindSort, Input: "source", Criterion: "how upscale the restaurant is", Strategy: "rating"},
			{Name: "share", Kind: pipeline.KindCount, Input: "source", Field: "name", Predicate: "the restaurant sounds like a casual neighbourhood place"},
		}},
		Tables: map[string][]dataset.Record{"source": ds.Test},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// warmJob runs body twice on s, so the second job's table is warm, and
// returns the second job.
func warmJob(t testing.TB, s *Server, body []byte) *job {
	t.Helper()
	var j *job
	for sight := 0; sight < 2; sight++ {
		req, tables, err := s.decodeSubmit(body)
		if err != nil {
			t.Fatal(err)
		}
		if j, err = s.submit(context.Background(), req, tables); err != nil {
			t.Fatal(err)
		}
		if st, _ := j.view(); st.State != JobDone {
			t.Fatalf("sight %d: job %s (%s)", sight, st.State, st.Error)
		}
	}
	if len(j.inputs) != 1 {
		t.Fatalf("the second sight holds %d warm tables, want the source", len(j.inputs))
	}
	return j
}

// TestWarmReplyAllocs pins the warm reply's cost: on a warm-replay-shaped
// job the reply allocates as often at 256 rows as at 64 — nothing per
// record — and copies at least 70 % of its bytes from the rendered table.
func TestWarmReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins skip under the race detector")
	}
	measure := func(n int) (allocs, share float64) {
		s := New(Config{Model: testOracle()})
		j := warmJob(t, s, warmReplayBody(t, n))
		buf, reused, err := s.appendReply(nil, j)
		if err != nil {
			t.Fatal(err)
		}
		st := j.status()
		if want, _ := encodeStatus(st); !bytes.Equal(buf, want) {
			t.Fatalf("%d rows: the reply differs from encoding/json's", n)
		}
		allocs = testing.AllocsPerRun(20, func() {
			if buf, _, err = s.appendReply(buf[:0], j); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, float64(reused) / float64(len(buf))
	}
	small, smallShare := measure(64)
	large, largeShare := measure(256)
	if small != large {
		t.Errorf("a warm reply allocates %.0f times at 64 rows and %.0f at 256; want the same", small, large)
	}
	for _, share := range []float64{smallShare, largeShare} {
		if share < 0.70 {
			t.Errorf("%.1f %% of a warm reply was copied from the rendered table, want at least 70 %%", 100*share)
		}
	}
	t.Logf("allocs %.0f/%.0f, reused %.1f %%/%.1f %% of the reply at 64/256 rows", small, large, 100*smallShare, 100*largeShare)
}

// TestRenderedTableEvictedUnderReaders races replies that publish and read
// one table's rendered records against an interner evicting that table,
// round after round with a new table: every reply must be encoding/json's
// bytes, the first rendering published is the one every reply copies,
// and the interner's count of held bytes must stay exact and within the
// bound. Run with -race.
func TestRenderedTableEvictedUnderReaders(t *testing.T) {
	bodyOf := func(i int) []byte {
		var recs strings.Builder
		for k := 0; k < 12; k++ {
			if k > 0 {
				recs.WriteByte(',')
			}
			fmt.Fprintf(&recs, `{"ID":"r%d-%d","Fields":[{"Name":"name","Value":"<place %d & %d>"}]}`, i, k, i, k)
		}
		return []byte(`{"tenant":"t","tables":{"source":[` + recs.String() + `]}}`)
	}
	s := &Server{tables: newTableInterner()}
	s.tables.bound = int64(3 * len(bodyOf(0)))
	for round := 0; round < 20; round++ {
		body := bodyOf(1000 + round)
		if _, _, err := s.decodeSubmit(body); err != nil {
			t.Fatal(err)
		}
		jobs := make([]*job, 4)
		for i := range jobs {
			req, tables, err := s.decodeSubmit(body)
			if err != nil || len(tables.warm) != 1 {
				t.Fatalf("round %d: a repeated table is not warm (err %v)", round, err)
			}
			src := req.Tables["source"]
			jobs[i] = &job{id: fmt.Sprint("job-", i), tenant: "t", state: JobDone, inputs: tables.warm,
				result: &pipeline.Result{Tables: map[string][]dataset.Record{"all": src, "some": {src[3], src[1]}}}}
		}
		var wg sync.WaitGroup
		outs := make([]*renderedTable, len(jobs))
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				want, _ := encodeStatus(j.status())
				for k := 0; k < 3; k++ {
					got, _, err := s.appendReply(nil, j)
					if err != nil || !bytes.Equal(got, want) {
						t.Errorf("round %d, job %d: reply %q (err %v), want %q", round, i, got, err, want)
						return
					}
				}
				outs[i] = j.inputs[0].out.Load()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				if _, _, err := s.decodeSubmit(bodyOf(round*10 + k)); err != nil {
					t.Error(err)
				}
			}
		}()
		wg.Wait()
		for i, out := range outs {
			if out != outs[0] || out == nil {
				t.Fatalf("round %d: job %d copied from rendering %p, job 0 from %p", round, i, out, outs[0])
			}
		}
		in := s.tables
		in.mu.Lock()
		if tab := jobs[0].inputs[0]; in.byKey[tab.key] != nil && in.byKey[tab.key].Value == tab {
			t.Fatalf("round %d: the churn did not evict the replies' table", round)
		}
		var held int64
		for el := in.recency.Front(); el != nil; el = el.Next() {
			tab := el.Value.(*internedTable)
			want := int64(len(tab.raw))
			if out := tab.out.Load(); out != nil {
				want += out.size()
			}
			if tab.held != want {
				t.Errorf("round %d: a table counts %d bytes, want %d", round, tab.held, want)
			}
			held += tab.held
		}
		if held != in.held || in.held > in.bound {
			t.Errorf("round %d: the interner counts %d bytes, its tables %d, bound %d", round, in.held, held, in.bound)
		}
		in.mu.Unlock()
	}
}
