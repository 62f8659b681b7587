package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

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

// sealedJob is a finished job whose reply is st with res as its result.
func sealedJob(st JobStatus, res *pipeline.Result, inputs []*internedTable) *job {
	return &job{id: st.ID, tenant: st.Tenant, state: st.State, inputs: inputs, reply: seal(&st, res, inputs)}
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
// through, and mix's which tables hold records derived from them, near
// misses of those, runs of them and permutations.
func fuzzStatus(a, b, c string, shape, mix uint16, wall, cost float64) (*JobStatus, *pipeline.Result, *internedTable) {
	bit := func(i uint) bool { return shape&(1<<i) != 0 }
	var empty []dataset.Field
	if bit(0) {
		empty = []dataset.Field{}
	}
	input := []dataset.Record{
		{ID: a, Fields: []dataset.Field{{Name: b, Value: c}}},
		{ID: b, Fields: empty},
		{ID: c, Fields: []dataset.Field{{Name: a, Value: b}, {Name: c, Value: a}}},
		{ID: c, Fields: []dataset.Field{{Name: b, Value: a}}},
		{ID: a, Fields: []dataset.Field{{Name: c, Value: c}, {Name: a, Value: a}, {Name: b, Value: b}}},
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
		derivedTables(res.Tables, input, a, b, c, mix)
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

// derivedTables adds to tables, as mix's bits choose, the input's records
// with fields appended and near misses of those, all of which the seal
// writes whole, in-order runs of the input, runs broken by a skipped
// record, and permutations.
func derivedTables(tables map[string][]dataset.Record, input []dataset.Record, a, b, c string, mix uint16) {
	bit := func(i uint) bool { return mix&(1<<i) != 0 }
	with := func(r dataset.Record, fs ...dataset.Field) dataset.Record {
		return dataset.Record{ID: r.ID, Fields: append(slices.Clone(r.Fields), fs...)}
	}
	each := func(rs []dataset.Record, f func(r dataset.Record) dataset.Record) []dataset.Record {
		out := make([]dataset.Record, len(rs))
		for i, r := range rs {
			out[i] = f(r)
		}
		return out
	}
	one := each(input, func(r dataset.Record) dataset.Record { return with(r, dataset.Field{Name: c, Value: a}) })
	if bit(0) { // one field appended
		tables[a+"+1"] = one
	}
	if bit(1) { // two appended, the second named as the input's first field
		tables[a+"+2"] = each(input, func(r dataset.Record) dataset.Record {
			name := a
			if len(r.Fields) > 0 {
				name = r.Fields[0].Name
			}
			return with(r, dataset.Field{Name: a, Value: c}, dataset.Field{Name: name, Value: b})
		})
	}
	if bit(2) { // a prefix value changed
		tables[b+"~v"] = each(input, func(r dataset.Record) dataset.Record {
			d := with(r, dataset.Field{Name: c, Value: a})
			d.Fields[0].Value += "!"
			return d
		})
	}
	if bit(3) { // the prefix reordered
		tables[b+"~o"] = each(input, func(r dataset.Record) dataset.Record {
			d := with(r, dataset.Field{Name: c, Value: a})
			slices.Reverse(d.Fields[:len(r.Fields)])
			return d
		})
	}
	if bit(4) { // fields added to a record with none
		tables[b+"~0"] = []dataset.Record{with(input[1], dataset.Field{Name: a, Value: b}, dataset.Field{Name: b, Value: c}), with(input[1], dataset.Field{Name: c})}
	}
	if bit(5) { // an in-order run, then runs broken by a skipped record
		tables[c+"runs"] = append(slices.Clone(input[1:]), input[0], input[2], input[3], input[1])
	}
	if bit(6) { // permutations, of the input and of derived records
		rev, revOne := slices.Clone(input), slices.Clone(one)
		slices.Reverse(rev)
		slices.Reverse(revOne)
		tables[c+"rev"] = rev
		tables[c+"rev+1"] = revOne
	}
	if bit(8) { // after each derived record, the next one's fields under another ID
		var idMiss []dataset.Record
		for k := 0; k+1 < len(one); k++ {
			other := one[k+1]
			other.ID += "!"
			idMiss = append(idMiss, one[k], other)
		}
		tables[a+"~id"] = idMiss
	}
	if bit(7) { // runs, derived records and records written whole mixed
		tables[c+"mixed"] = []dataset.Record{input[0], one[0], one[2], input[3], input[4], one[4], one[4], input[0], input[1], one[1], input[2]}
	}
}

// FuzzReplyWriter is the reply writer's differential test against
// encoding/json: on any strings, nil and empty slices and maps, omitempty
// zeros and any floats — both sides of the 'f'/'e' switch at 1e-6 and
// 1e21, -0, NaN and the infinities — and any state, failed and cancelled
// included, it writes exactly json.Encoder's bytes or fails with its
// error. Each status is sealed cold, with no warm input, where the seal is
// the fresh render of the whole reply; and warm, where the input's
// records passed through and runs of them are splices, expanded twice:
// once rendering the table into the interner and once copying; records
// derived from them are written whole.
func FuzzReplyWriter(f *testing.F) {
	ls := "\xe2\x80\xa8"
	strs := []string{"", "plain", `q"uote\back`, "<b>&amp;</b>", "ctl\x00\x01\x08\x0c\n\r\t\x1f\x7f", "bad\xff\xfeutf8", ls + "\xe2\x80\xa9", "caf\xc3\xa9 \xf0\x9f\x8d\xa6"}
	floats := []float64{0, math.Copysign(0, -1), 1e-6, 9.999999e-7, -1e-7, 1e21, 9.99999e20, -1e21, 0.1, 12.345, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i, fl := range floats {
		s := strs[i%len(strs)]
		f.Add(s, strs[(i+3)%len(strs)], strs[(i+5)%len(strs)], uint16(i*0x1357), uint16(i*0x25), fl, floats[(i+4)%len(floats)])
	}
	f.Add("a", "b", "c", uint16(0xffff), uint16(0x1ff), 1.5, 2.5)
	f.Add("a", "a", "a", uint16(0x2bfb), uint16(0x1ff), 0.0, 0.0)
	f.Add("id", "name", "val", uint16(0x2000), uint16(0x1ff), 1.0, 0.5)
	f.Add("", "", "", uint16(0x2001), uint16(0x1ff), 1.0, 0.5)
	f.Fuzz(func(t *testing.T, a, b, c string, shape, mix uint16, wall, cost float64) {
		st, res, tab := fuzzStatus(a, b, c, shape, mix, wall, cost)
		ref := *st
		if res != nil {
			ref.Result = JobResultOf(res)
		}
		want, wantErr := encodeStatus(&ref)
		sameErr := func(how string, err error) {
			t.Helper()
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s: writer error %v, encoding/json error %v", how, err, wantErr)
			}
		}
		cold := seal(st, res, nil)
		sameErr("cold seal", cold.err)
		if cold.err == nil && (len(cold.splices) != 0 || !bytes.Equal(cold.lit, want)) {
			t.Fatalf("the cold seal (%d splices) and encoding/json differ:\ngot:  %q\nwant: %q", len(cold.splices), cold.lit, want)
		}
		in := newTableInterner()
		in.recency.PushFront(tab)
		in.byKey[tab.key] = in.recency.Front()
		inputs := []*internedTable{tab}
		warm := seal(st, res, inputs)
		sameErr("warm seal", warm.err)
		if warm.err != nil {
			return
		}
		for pass := 0; pass < 2; pass++ {
			got, reused := warm.expand(nil, in, inputs)
			if !bytes.Equal(got, want) {
				t.Fatalf("pass %d: the warm seal's expansion and encoding/json differ:\ngot:  %q\nwant: %q", pass, got, want)
			}
			if reused+len(warm.lit) != len(got) {
				t.Fatalf("pass %d: %d bytes spliced and %d sealed make a %d-byte reply", pass, reused, len(warm.lit), len(got))
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
		j := sealedJob(JobStatus{ID: "j", Tenant: "t", State: JobDone}, &pipeline.Result{Cost: math.NaN()}, nil)
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

// finished is how a job ended: its terminal status, without a result,
// and the Result it ran to, as Server.sealing saw them.
type finished struct {
	status JobStatus
	res    *pipeline.Result
}

// warmJob runs body twice on s, so the second job's table is warm, and
// returns the second job and how it finished.
func warmJob(t testing.TB, s *Server, body []byte) (*job, finished) {
	t.Helper()
	var (
		j   *job
		fin finished
	)
	s.sealing = func(st *JobStatus, res *pipeline.Result) { fin = finished{*st, res} }
	defer func() { s.sealing = nil }()
	for sight := 0; sight < 2; sight++ {
		req, tables, err := s.decodeSubmit(body)
		if err != nil {
			t.Fatal(err)
		}
		if j, err = s.submit(context.Background(), req, tables); err != nil {
			t.Fatal(err)
		}
		if fin.status.State != JobDone {
			t.Fatalf("sight %d: job %s (%s)", sight, fin.status.State, fin.status.Error)
		}
	}
	if len(j.inputs) != 1 || len(j.reply.splices) == 0 {
		t.Fatalf("the second sight holds %d warm tables and seals %d splices, want the source and some", len(j.inputs), len(j.reply.splices))
	}
	return j, fin
}

// sealBytes is what a finished job keeps of its reply: the bytes its seal
// wrote and its splices.
func sealBytes(r *sealedReply) int {
	return len(r.lit) + len(r.splices)*int(unsafe.Sizeof(splice{}))
}

// TestWarmReplyAllocs pins the warm reply's cost: on a warm-replay-shaped
// job the reply allocates as often at 256 rows as at 64 — nothing per
// record — and copies about three quarters of its bytes from the rendered
// table, and at 256 rows the job keeps a seal of at most 75 KB: the
// categorized records written whole and one splice per run of records
// passed through.
func TestWarmReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins skip under the race detector")
	}
	measure := func(n int) (allocs, share float64, sealed int) {
		s := New(Config{Model: testOracle()})
		j, _ := warmJob(t, s, warmReplayBody(t, n))
		buf, reused, err := s.appendReply(nil, j)
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.status(j)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := encodeStatus(st); !bytes.Equal(buf, want) {
			t.Fatalf("%d rows: the reply differs from encoding/json's", n)
		}
		allocs = testing.AllocsPerRun(20, func() {
			if buf, _, err = s.appendReply(buf[:0], j); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, float64(reused) / float64(len(buf)), sealBytes(j.reply)
	}
	small, smallShare, _ := measure(64)
	large, largeShare, sealed := measure(256)
	if small != large {
		t.Errorf("a warm reply allocates %.0f times at 64 rows and %.0f at 256; want the same", small, large)
	}
	// Each floor is the measured share less two points.
	for _, c := range []struct{ rows, share, floor float64 }{{64, smallShare, 0.718}, {256, largeShare, 0.726}} {
		if c.share < c.floor {
			t.Errorf("%.1f %% of a %.0f-row warm reply was copied from the rendered table, want at least %.1f %%", 100*c.share, c.rows, 100*c.floor)
		}
	}
	if sealed > 75<<10 {
		t.Errorf("a 256-row warm job keeps a %d-byte seal, want at most 75 KB", sealed)
	}
	t.Logf("allocs %.0f/%.0f, reused %.3f %%/%.3f %% of the reply at 64/256 rows; a %d-byte seal at 256", small, large, 100*smallShare, 100*largeShare, sealed)
}

// TestRenderedTableEvictedUnderReaders races replies that publish and read
// one table's rendered records — runs of them and single ones, beside
// records a categorize stage derived from them, which are sealed whole —
// against an interner evicting that table, round after round with a new
// table: every reply must be encoding/json's bytes, the first rendering
// published is the one every reply copies, and the interner's count of
// held bytes must stay exact and within the bound. Run with -race.
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
		jobs, wants := make([]*job, 4), make([][]byte, 4)
		for i := range jobs {
			req, tables, err := s.decodeSubmit(body)
			if err != nil || len(tables.warm) != 1 {
				t.Fatalf("round %d: a repeated table is not warm (err %v)", round, err)
			}
			src := req.Tables["source"]
			kind := make([]dataset.Record, len(src)) // as a categorize stage writes them
			for k, r := range src {
				kind[k] = r.With("category", fmt.Sprint("cat-", k%3))
			}
			st := JobStatus{ID: fmt.Sprint("job-", i), Tenant: "t", State: JobDone,
				Result: JobResultOf(&pipeline.Result{Tables: map[string][]dataset.Record{"all": src, "some": {src[3], src[1]}, "kind": kind}})}
			wants[i], _ = encodeStatus(&st)
			jobs[i] = sealedJob(st, &pipeline.Result{Tables: st.Result.Tables}, tables.warm)
		}
		var wg sync.WaitGroup
		outs := make([]*renderedTable, len(jobs))
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				want := wants[i]
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
