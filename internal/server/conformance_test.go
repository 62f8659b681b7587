package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// TestServerConformanceByteIdentical pins the service against the
// library: at temperature zero (the sim oracle is deterministic), a spec
// submitted through the server must produce byte-for-byte the same wire
// result as the same spec run cold through pipeline.Run with the same
// knobs — the server adds tenancy, not semantics. JobResultOf renders
// both sides identically, and encoding/json sorts map keys, so the
// comparison is stable.
func TestServerConformanceByteIdentical(t *testing.T) {
	tables := kindTable("conf", 8, "tool", "toy", "tool", "gadget")

	srv := New(Config{Model: testOracle()})
	st, err := srv.Submit(context.Background(), SubmitRequest{
		Tenant: "t", Spec: toolSpec(), Tables: tables,
	})
	if err != nil || st.State != JobDone {
		t.Fatalf("server run: err %v, state %+v", err, st)
	}
	remote, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}

	// The cold local run: a fresh compile against a fresh substrate, with
	// the zero ExecConfig knobs the server defaults to.
	p, err := pipeline.Compile(toolSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), pipeline.ExecConfig{Model: testOracle()}, tables)
	if err != nil {
		t.Fatal(err)
	}
	local, err := json.Marshal(JobResultOf(res))
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(remote, local) {
		t.Fatalf("server and cold library runs diverge:\nserver: %s\nlocal:  %s", remote, local)
	}

	// Warm conformance: replaying the submission serves entirely from the
	// shared cache — zero new upstream calls — and the content (tables,
	// scalars, stage shapes) must not move. The spend counters legitimately
	// drop to zero on a warm run (they count genuine upstream calls only),
	// so the byte comparison runs on spend-normalized copies.
	before := srv.Stats().UpstreamCalls
	st2, err := srv.Submit(context.Background(), SubmitRequest{
		Tenant: "t2", Spec: toolSpec(), Tables: tables,
	})
	if err != nil || st2.State != JobDone {
		t.Fatalf("warm run: err %v, state %+v", err, st2)
	}
	if after := srv.Stats().UpstreamCalls; after != before {
		t.Fatalf("warm replay cost %d upstream calls, want 0", after-before)
	}
	warmB, coldB := contentBytes(t, st2.Result), contentBytes(t, st.Result)
	if !bytes.Equal(warmB, coldB) {
		t.Fatalf("warm replay content diverges from the cold run:\nwarm: %s\ncold: %s", warmB, coldB)
	}

	// The same submission over HTTP, where tables are interned. First
	// sight on a fresh server decodes every table and runs cold: the wire
	// result is the library's, spend included. Second sight is handed the
	// first's decoded tables and must not differ in content.
	hsrv := New(Config{Model: testOracle()})
	ts := httptest.NewServer(hsrv.Handler())
	defer ts.Close()
	raw, err := json.Marshal(SubmitRequest{Tenant: "t", Spec: toolSpec(), Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	first := submitHTTP(t, ts, raw)
	if got, _ := json.Marshal(first.Result); !bytes.Equal(got, local) {
		t.Fatalf("HTTP first sight and cold library run diverge:\nserver: %s\nlocal:  %s", got, local)
	}
	if stats := hsrv.Stats(); stats.TableBytes == 0 || stats.TableBytesShared != 0 {
		t.Fatalf("after first sight: %d table bytes, %d shared; want all of them decoded", stats.TableBytes, stats.TableBytesShared)
	}
	second := submitHTTP(t, ts, raw)
	if got := contentBytes(t, second.Result); !bytes.Equal(got, coldB) {
		t.Fatalf("HTTP second sight diverges from the cold run:\nsecond: %s\ncold:   %s", got, coldB)
	}
	if stats := hsrv.Stats(); stats.TableBytesShared*2 != stats.TableBytes {
		t.Fatalf("after second sight: %d of %d table bytes shared, want exactly half", stats.TableBytesShared, stats.TableBytes)
	}
}

// submitHTTP posts a sync submission and returns the finished job.
func submitHTTP(t *testing.T, ts *httptest.Server, raw []byte) *JobStatus {
	t.Helper()
	code, body := post(t, ts, "/v1/pipelines", raw)
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil || code != http.StatusOK || st.State != JobDone {
		t.Fatalf("HTTP submit: %d %s (decode: %v)", code, body, err)
	}
	return &st
}

// contentBytes renders a result's content: its wire form with the spend
// counters, which legitimately differ between a cold and a warm run,
// zeroed.
func contentBytes(t *testing.T, r *JobResult) []byte {
	t.Helper()
	b, err := json.Marshal(stripSpend(r))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestInternedTablesSharedReadOnly runs what interning makes possible —
// several jobs of several tenants reading one decoded table at once —
// through every stage kind that writes a field (categorize, impute,
// join), under -race in CI: each result must be the one an unshared
// in-process run gives, the shared tables must come out as they went in,
// and none of it may depend on the interner's bound.
func TestInternedTablesSharedReadOnly(t *testing.T) {
	ds := dataset.GenerateRestaurants(12, 6, 5)
	source := make([]dataset.Record, len(ds.Test))
	for i, r := range ds.Test {
		source[i] = r.WithoutField(ds.TargetField)
	}
	// The join's side table repeats the source under other ids, so every
	// record finds its twin.
	twins := make([]dataset.Record, len(source))
	for i, r := range source {
		twins[i] = r.Clone()
		twins[i].ID = "twin-" + r.ID
	}
	tables := map[string][]dataset.Record{"source": source, "train": ds.Train, "twins": twins}
	spec := pipeline.Spec{Stages: []pipeline.StageSpec{
		{Name: "kind", Kind: pipeline.KindCategorize, Field: "name", Categories: []string{"diner", "cafe", "grill"}},
		{Name: "filled", Kind: pipeline.KindImpute, TargetField: ds.TargetField, Side: "train", Strategy: "hybrid", Examples: 2},
		{Name: "match", Kind: pipeline.KindJoin, Field: "name", Side: "twins", Strategy: "nested-loop"},
	}}

	// The references: a library run on a fresh engine, and an in-process
	// Submit on a fresh server — neither goes near the interner.
	p, err := pipeline.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), pipeline.ExecConfig{Model: testOracle()}, tables)
	if err != nil {
		t.Fatal(err)
	}
	want := contentBytes(t, JobResultOf(res))
	st, err := New(Config{Model: testOracle()}).Submit(context.Background(), SubmitRequest{Tenant: "ref", Spec: spec, Tables: tables})
	if err != nil || st.State != JobDone {
		t.Fatalf("in-process reference: err %v, status %+v", err, st)
	}
	if got := contentBytes(t, st.Result); !bytes.Equal(got, want) {
		t.Fatalf("in-process server run diverges from the library run:\nserver: %s\nlocal:  %s", got, want)
	}
	for _, name := range []string{"kind", "filled", "match"} {
		if len(res.Tables[name]) == 0 {
			t.Fatalf("stage %q produced no rows; the spec no longer exercises it", name)
		}
	}

	bodies := make([][]byte, 4)
	for i := range bodies {
		if bodies[i], err = json.Marshal(SubmitRequest{Tenant: fmt.Sprintf("tenant-%d", i), Spec: spec, Tables: tables}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, members, ok := scanSubmit(bodies[0])
	if !ok || len(members) != len(tables) {
		t.Fatalf("scanSubmit(%s) = %d tables, ok %v; the body should take the interning path", bodies[0], len(members), ok)
	}
	var tableBytes int64
	for _, m := range members {
		tableBytes += int64(len(m.value))
	}

	// One submission shows the server each table; eight concurrent ones
	// from four tenants then read the same decoded slices. Under a bound
	// that cannot hold all three tables every submission evicts instead,
	// and nothing else may change.
	for _, bound := range []int64{tableInternBytes, tableBytes - 1} {
		srv := New(Config{Model: testOracle()})
		srv.tables.bound = bound
		ts := httptest.NewServer(srv.Handler())
		if got := contentBytes(t, submitHTTP(t, ts, bodies[0]).Result); !bytes.Equal(got, want) {
			t.Errorf("bound %d, first sight diverges from the unshared run:\ngot:  %s\nwant: %s", bound, got, want)
		}
		var wg sync.WaitGroup
		got := make([][]byte, 8)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				code, body := post(t, ts, "/v1/pipelines", bodies[i%len(bodies)])
				var st JobStatus
				if err := json.Unmarshal(body, &st); err != nil || code != http.StatusOK || st.State != JobDone {
					t.Errorf("bound %d, submission %d: %d %s (decode: %v)", bound, i, code, body, err)
					return
				}
				got[i] = contentBytes(t, st.Result)
			}(i)
		}
		wg.Wait()
		ts.Close()
		for i, g := range got {
			if g != nil && !bytes.Equal(g, want) {
				t.Errorf("bound %d, submission %d diverges from the unshared run:\ngot:  %s\nwant: %s", bound, i, g, want)
			}
		}
		stats := srv.Stats()
		if stats.TableBytes != 9*tableBytes {
			t.Errorf("bound %d: %d table bytes received, want 9 x %d", bound, stats.TableBytes, tableBytes)
		}
		if bound < tableBytes {
			if srv.tables.held > bound || len(srv.tables.byKey) >= len(members) {
				t.Errorf("bound %d: interner holds %d bytes in %d tables; nothing was evicted", bound, srv.tables.held, len(srv.tables.byKey))
			}
			continue
		}
		if stats.TableBytesShared != 8*tableBytes {
			t.Errorf("%d of %d table bytes shared, want everything after the first sight", stats.TableBytesShared, stats.TableBytes)
		}
		for _, m := range members {
			var fresh []dataset.Record
			if err := json.Unmarshal(m.value, &fresh); err != nil {
				t.Fatal(err)
			}
			held, err := srv.tables.table(m.value)
			if err != nil || !reflect.DeepEqual(held, fresh) {
				t.Errorf("interned table %q changed under its readers (err %v)", m.name, err)
			}
		}
	}
}

// stripSpend copies a result with the genuine-upstream spend counters
// zeroed, leaving only content: tables, scalars, and stage shapes.
func stripSpend(r *JobResult) *JobResult {
	out := *r
	out.Calls, out.Tokens, out.Cost = 0, 0, 0
	out.Stages = append([]StageStatus(nil), r.Stages...)
	for i := range out.Stages {
		out.Stages[i].Calls, out.Stages[i].Tokens, out.Stages[i].Cost = 0, 0, 0
	}
	return &out
}
