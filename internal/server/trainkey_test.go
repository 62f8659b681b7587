package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/pipeline"
)

// TestInternedTrainKeysIndex pins the interner key as the name of an
// impute stage's k-NN index. Two jobs sending the same train bytes share
// one registry slot, and it is the slot of the table's SHA-256: a
// PrepareImpute naming the table by that key finds it, while one hashing
// the rows — what every job did before — builds a slot of its own, so
// neither job hashed a train row. Another TargetField over the same bytes
// gets another slot. And the answer is the library's: a direct
// pipeline.Run over the same records returns the same tables byte for
// byte, at the same spend.
func TestInternedTrainKeysIndex(t *testing.T) {
	ds := dataset.GenerateRestaurants(600, 8, 5)
	source := make([]dataset.Record, len(ds.Test))
	for i, r := range ds.Test {
		source[i] = r.WithoutField(ds.TargetField)
	}
	tables := map[string][]dataset.Record{"source": source, "train": ds.Train}
	spec := func(target string) pipeline.Spec {
		return pipeline.Spec{Stages: []pipeline.StageSpec{
			{Name: "fill", Kind: pipeline.KindImpute, TargetField: target, Side: "train", Strategy: "hybrid", Neighbors: 5},
		}}
	}
	body := func(target string) []byte {
		raw, err := json.Marshal(SubmitRequest{Tenant: "t", Spec: spec(target), Tables: tables})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	reg := embed.NewRegistry()
	ts := httptest.NewServer(New(Config{Model: testOracle(), Registry: reg}).Handler())
	defer ts.Close()
	slots := func(wantBuilds, wantHits int, when string) {
		t.Helper()
		if b, h := reg.Stats(); b != wantBuilds || h != wantHits {
			t.Fatalf("%s: registry built %d indexes and served %d hits, want %d and %d", when, b, h, wantBuilds, wantHits)
		}
	}

	first := submitHTTP(t, ts, body(ds.TargetField))
	slots(1, 0, "after the first job")
	second := submitHTTP(t, ts, body(ds.TargetField))
	slots(1, 1, "after a second job with the same train bytes")

	_, _, members, ok := scanSubmit(body(ds.TargetField), newTableInterner())
	if !ok {
		t.Fatal("the submission does not take the interning path")
	}
	var trainKey embed.SourceKey
	for _, m := range members {
		if string(m.name) == "train" {
			trainKey = sha256.Sum256(m.value)
		}
	}
	eng := core.New(testOracle(), core.WithIndexRegistry(reg))
	req := core.ImputeRequest{Train: ds.Train, TargetField: ds.TargetField, Strategy: core.ImputeHybrid, Neighbors: 5, TrainKey: trainKey}
	if _, err := eng.PrepareImpute(req); err != nil {
		t.Fatal(err)
	}
	slots(1, 2, "after PrepareImpute named the table by its interner key")
	req.TrainKey = embed.SourceKey{}
	if _, err := eng.PrepareImpute(req); err != nil {
		t.Fatal(err)
	}
	slots(2, 2, "after PrepareImpute hashed the table's rows")

	submitHTTP(t, ts, body("type"))
	slots(3, 2, "after a job imputing another field of the same train bytes")

	p, err := pipeline.Compile(spec(ds.TargetField))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), pipeline.ExecConfig{Model: testOracle()}, tables)
	if err != nil {
		t.Fatal(err)
	}
	// Spend is compared as counts: the cost is a float summed in the order
	// asks complete.
	want := JobResultOf(res)
	for name, got := range map[string]*JobResult{"first": first.Result, "second": second.Result} {
		if g, w := contentBytes(t, got), contentBytes(t, want); !bytes.Equal(g, w) {
			t.Fatalf("the server's %s job and a direct pipeline.Run diverge:\nserver: %s\nlocal:  %s", name, g, w)
		}
	}
	if first.Result.Calls != want.Calls || first.Result.Tokens != want.Tokens {
		t.Fatalf("the first job spent %d calls and %d tokens, a direct pipeline.Run %d and %d",
			first.Result.Calls, first.Result.Tokens, want.Calls, want.Tokens)
	}
}
