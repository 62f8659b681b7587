package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/pipeline"
)

// encodeFinished is encoding/json's reply for a finished job.
func encodeFinished(t *testing.T, fin finished) []byte {
	t.Helper()
	st := fin.status
	if fin.res != nil {
		st.Result = JobResultOf(fin.res)
	}
	b, err := encodeStatus(&st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSealExpandsAfterEviction pins that a sealed reply's splices outlive
// the interner's hold on their table: evicted before any reply rendered
// it, or after, the expansion is encoding/json's bytes, and a rendering
// made after the eviction is the job's alone, not counted in the bound.
func TestSealExpandsAfterEviction(t *testing.T) {
	for _, renderedFirst := range []bool{false, true} {
		s := New(Config{Model: testOracle()})
		j, fin := warmJob(t, s, warmReplayBody(t, 48))
		want := encodeFinished(t, fin)
		if renderedFirst {
			if got, _, err := s.appendReply(nil, j); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("before the eviction: reply %q (err %v), want %q", got, err, want)
			}
		}
		in := s.tables
		in.mu.Lock()
		bound := in.bound
		in.bound = 0
		in.evict()
		in.bound = bound
		in.mu.Unlock()
		if renderedFirst != (j.inputs[0].out.Load() != nil) {
			t.Fatalf("rendered first %v, but the table holds rendering %p", renderedFirst, j.inputs[0].out.Load())
		}
		for pass := 0; pass < 2; pass++ {
			got, reused, err := s.appendReply(nil, j)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("rendered first %v, pass %d after the eviction: reply %q (err %v), want %q", renderedFirst, pass, got, err, want)
			}
			if reused == 0 || reused+len(j.reply.lit) != len(got) {
				t.Errorf("rendered first %v: %d bytes copied and %d sealed make a %d-byte reply", renderedFirst, reused, len(j.reply.lit), len(got))
			}
		}
		in.mu.Lock()
		if in.held != 0 || in.recency.Len() != 0 {
			t.Errorf("rendered first %v: the emptied interner holds %d bytes in %d tables", renderedFirst, in.held, in.recency.Len())
		}
		in.mu.Unlock()
	}
}

// spliceTestInput is a warm input table of four records, and the same
// records with a category appended, as categorize writes them.
func spliceTestInput() (*internedTable, []dataset.Record) {
	input := make([]dataset.Record, 4)
	for k := range input {
		input[k] = dataset.Record{ID: fmt.Sprint("r", k), Fields: []dataset.Field{
			{Name: "name", Value: fmt.Sprint("<place ", k, ">")}, {Name: "city", Value: "Leeds & York"}}}
	}
	tab := newInternedTable(tableKey{}, nil, input)
	kind := make([]dataset.Record, len(input))
	for k, r := range tab.records {
		kind[k] = r.With("category", "cafe")
	}
	return tab, kind
}

// TestSealSplices pins what a warm seal splices, table by table: the
// whole input as one run; nothing of the records categorize derived from
// it, in order or in reverse, nor of one whose first value also changed;
// and a passed-through record alone and a run of two after it.
func TestSealSplices(t *testing.T) {
	tab, kind := spliceTestInput()
	input := tab.records
	back := slices.Clone(kind)
	slices.Reverse(back)
	miss := input[1].With("category", "diner")
	miss.Fields[0].Value += "!"
	res := &pipeline.Result{Tables: map[string][]dataset.Record{
		"all": input, "back": back, "kind": kind, "miss": {miss}, "some": {input[3], input[1], input[2]}}}
	st := JobStatus{ID: "j", Tenant: "t", State: JobDone}
	sealed := seal(&st, res, []*internedTable{tab})
	type ref struct{ rec, n int }
	want := []ref{{0, 4}, {3, 1}, {1, 2}}
	var got []ref
	for _, sp := range sealed.splices {
		got = append(got, ref{int(sp.rec), int(sp.n)})
	}
	if !slices.Equal(got, want) {
		t.Errorf("splices (record, run length) %v, want %v", got, want)
	}
	in := newTableInterner()
	full := st
	full.Result = JobResultOf(res)
	wantReply, _ := encodeStatus(&full)
	if got, reused := sealed.expand(nil, in, []*internedTable{tab}); !bytes.Equal(got, wantReply) || reused+len(sealed.lit) != len(got) {
		t.Fatalf("expansion (%d bytes copied, %d sealed) %q, want %q", reused, len(sealed.lit), got, wantReply)
	}
}

// TestFinishedJobReleasesResult pins that a finished job keeps its reply,
// not its Result nor its context: once the job's run returns, a table the
// run made is collected while the job, still retained, answers a poll with
// the same bytes as its sync submit.
func TestFinishedJobReleasesResult(t *testing.T) {
	s := New(Config{Model: testOracle()})
	defer s.Drain(context.Background())
	var (
		id   string
		want []byte
	)
	made := func() weak.Pointer[dataset.Record] {
		j, fin := warmJob(t, s, warmReplayBody(t, 48))
		id, want = j.id, encodeFinished(t, fin)
		j.mu.Lock()
		if j.cancel != nil {
			t.Error("the finished job still holds its context's cancel func")
		}
		j.mu.Unlock()
		kind := fin.res.Tables["kind"] // categorize writes every record anew
		if len(kind) == 0 {
			t.Fatal("the run categorized nothing")
		}
		return weak.Make(&kind[0])
	}()
	// Two cycles: a sync.Pool empties its victim cache on the second.
	runtime.GC()
	runtime.GC()
	if made.Value() != nil {
		t.Fatal("a table the finished job's run made is still reachable")
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("HTTP %d after the collection: %q, want %q", rec.Code, rec.Body.Bytes(), want)
	}
}

// TestPollsSeeWholeSeal races pollers against runJob's finish, job after
// job: every reply is the job's live status — id, tenant and a queued or
// running state, nothing else — or exactly the finished reply, never a
// terminal state without its seal or part of one. Run with -race.
func TestPollsSeeWholeSeal(t *testing.T) {
	s := New(Config{Model: testOracle(), TenantRate: 1e9, TenantBurst: 1 << 20})
	defer s.Drain(context.Background())
	body := warmReplayBody(t, 24)
	warmJob(t, s, body) // the tables are warm and the answers cached from here on
	for round := 0; round < 20; round++ {
		req, tables, err := s.decodeSubmit(body)
		if err != nil {
			t.Fatal(err)
		}
		req.Async = true
		j, err := s.submit(context.Background(), req, tables)
		if err != nil {
			t.Fatal(err)
		}
		live := map[string]bool{}
		for _, state := range []JobState{JobQueued, JobRunning} {
			b, _ := encodeStatus(&JobStatus{ID: j.id, Tenant: req.Tenant, State: state})
			live[string(b)] = true
		}
		const pollers = 4
		finals := make([][]byte, pollers)
		var wg sync.WaitGroup
		for p := range finals {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					got, _, err := s.appendReply(nil, j)
					if err != nil {
						t.Errorf("round %d: %v", round, err)
						return
					}
					if live[string(got)] {
						runtime.Gosched()
						continue
					}
					finals[p] = got
					return
				}
			}()
		}
		wg.Wait()
		st, err := s.Job(j.id)
		if err != nil || st.State != JobDone {
			t.Fatalf("round %d: job %+v (err %v), want done", round, st, err)
		}
		want, _ := encodeStatus(st)
		for p, got := range finals {
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d, poller %d: a terminal reply %q, the job's reply %q", round, p, got, want)
			}
		}
	}
}

// TestInProcessStatusMatchesReply pins the in-process views to the wire:
// Job and Cancel of a job done cold or warm, failed, cancelled running or
// cancelled in the queue are its HTTP reply decoded, and re-encode to its
// bytes; so does a sync Submit's status.
func TestInProcessStatusMatchesReply(t *testing.T) {
	check := func(t *testing.T, s *Server, ts *httptest.Server, id string) []byte {
		t.Helper()
		code, raw := do(t, ts, http.MethodGet, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job %s: HTTP %d %s", id, code, raw)
		}
		var wire JobStatus
		if err := json.Unmarshal(raw, &wire); err != nil {
			t.Fatal(err)
		}
		for how, view := range map[string]func(string) (*JobStatus, error){"Job": s.Job, "Cancel": s.Cancel} {
			st, err := view(id)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*st, wire) {
				t.Fatalf("job %s: %s gives %+v, the decoded reply %+v", id, how, st, wire)
			}
			if again, _ := encodeStatus(st); !bytes.Equal(again, raw) {
				t.Fatalf("job %s: %s encodes to %q, the reply is %q", id, how, again, raw)
			}
		}
		return raw
	}
	t.Run("done", func(t *testing.T) {
		s := New(Config{Model: testOracle()})
		defer s.Drain(context.Background())
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		body := warmReplayBody(t, 32)
		check(t, s, ts, idOf(t, submitBody(t, ts, body)))
		check(t, s, ts, idOf(t, submitBody(t, ts, body)))
		var req SubmitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		st, err := s.Submit(context.Background(), req)
		if err != nil || st.State != JobDone || st.Result == nil {
			t.Fatalf("in-process submit: %+v (err %v)", st, err)
		}
		if got, _ := encodeStatus(st); !bytes.Equal(got, check(t, s, ts, st.ID)) {
			t.Fatalf("Submit's status encodes to %q, not the job's reply", got)
		}
	})
	t.Run("failed", func(t *testing.T) {
		model := llm.Func{ModelName: "down", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			return llm.Response{}, errors.New("upstream down")
		}}
		s := New(Config{Model: model})
		defer s.Drain(context.Background())
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		failed, err := s.Submit(context.Background(), SubmitRequest{Tenant: "t", Spec: toolSpec(), Tables: kindTable("p", 4, "tool")})
		if err != nil || failed.State != JobFailed || failed.Error == "" {
			t.Fatalf("a job whose upstream is down: %+v (err %v), want failed", failed, err)
		}
		check(t, s, ts, failed.ID)
	})
	t.Run("cancelled", func(t *testing.T) {
		started := make(chan struct{})
		var once sync.Once
		model := llm.Func{ModelName: "hang", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			once.Do(func() { close(started) })
			<-ctx.Done()
			return llm.Response{}, ctx.Err()
		}}
		s := New(Config{Model: model, MaxConcurrent: 1, MaxQueue: 1})
		defer s.Drain(context.Background())
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		var ids []string
		for range 2 {
			st, err := s.Submit(context.Background(), SubmitRequest{Tenant: "t", Spec: toolSpec(), Tables: kindTable("q", 1, "tool"), Async: true})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, st.ID)
			<-started
		}
		for _, id := range ids {
			if _, err := s.Cancel(id); err != nil {
				t.Fatal(err)
			}
			waitState(t, s, id, JobCancelled)
			check(t, s, ts, id)
		}
	})
}

// idOf reads the job ID from a reply.
func idOf(t *testing.T, reply []byte) string {
	t.Helper()
	var st JobStatus
	if err := json.Unmarshal(reply, &st); err != nil || st.ID == "" {
		t.Fatalf("reply %q (decode: %v)", reply, err)
	}
	return st.ID
}
