package server

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// imputeBody is a knn-corpus-shaped submission: a hybrid impute of 32
// source restaurants against a train table of trainN.
func imputeBody(t testing.TB, trainN int) []byte {
	t.Helper()
	ds := dataset.GenerateRestaurants(trainN, 32, 1)
	source := make([]dataset.Record, len(ds.Test))
	for i, r := range ds.Test {
		source[i] = r.WithoutField(ds.TargetField)
	}
	raw, err := json.Marshal(SubmitRequest{
		Tenant: "t",
		Spec: pipeline.Spec{Stages: []pipeline.StageSpec{
			{Name: "fill", Kind: pipeline.KindImpute, TargetField: ds.TargetField, Side: "train", Strategy: "hybrid", Neighbors: 5},
		}},
		Tables: map[string][]dataset.Record{"source": source, "train": ds.Train},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// tableValue is the JSON of the named table in body, delimited by the
// scanner.
func tableValue(t *testing.T, body []byte, name string) []byte {
	t.Helper()
	_, _, members, ok := scanSubmit(body, newTableInterner())
	if !ok {
		t.Fatalf("%.80s... does not take the interning path", body)
	}
	for _, m := range members {
		if string(m.name) == name {
			return m.value
		}
	}
	t.Fatalf("no table %q in %.80s...", name, body)
	return nil
}

// recognised reports which of body's tables the interner knows by their
// bytes.
func recognised(s *Server, body []byte) map[string]bool {
	_, _, members, _ := scanSubmit(body, s.tables)
	known := make(map[string]bool)
	for _, m := range members {
		known[string(m.name)] = m.known != nil
	}
	return known
}

// decodeLikeDecoder decodes body with s and with one json.Decoder and
// fails unless both agree on the error text or on the request.
func decodeLikeDecoder(t *testing.T, s *Server, body []byte, what string) SubmitRequest {
	t.Helper()
	got, err := decodeDiff(s, body)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return got
}

// decodeDiff decodes body with s and reports how the result differs from
// one json.Decoder's, if it does.
func decodeDiff(s *Server, body []byte) (SubmitRequest, error) {
	var want SubmitRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	got, _, err := s.decodeSubmit(body)
	switch {
	case (err == nil) != (wantErr == nil):
		return got, fmt.Errorf("decodeSubmit error %v, json.Decoder error %v", err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		return got, fmt.Errorf("error text %q, json.Decoder says %q", err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		return got, errors.New("decoded request differs from json.Decoder's")
	}
	return got, nil
}

// TestKnownTableRecognisedByBytes pins the warm path's exactness: a
// table whose bytes the interner holds is taken without a scan or a hash,
// and every body that merely resembles one — the same prefix, a
// different ending, a different continuation — decodes as json.Decoder
// decodes it.
func TestKnownTableRecognisedByBytes(t *testing.T) {
	body := imputeBody(t, 400)
	train := tableValue(t, body, "train")
	source := tableValue(t, body, "source")
	s := &Server{tables: newTableInterner()}
	first := decodeLikeDecoder(t, s, body, "first sight")
	_, firstTables, _ := s.decodeInterned(body)
	firstKeys := firstTables.keys

	t.Run("repeat", func(t *testing.T) {
		if known := recognised(s, body); !known["train"] || !known["source"] {
			t.Fatalf("recognised %v, want both tables", known)
		}
		_, sharedBefore := s.tables.counts()
		got, tables, err := s.decodeSubmit(body)
		if err != nil {
			t.Fatal(err)
		}
		keys := tables.keys
		if &got.Tables["train"][0] != &first.Tables["train"][0] {
			t.Error("a repeated train table was decoded again, not taken from the interner")
		}
		if !reflect.DeepEqual(keys, firstKeys) {
			t.Errorf("source keys %x, first sight filed them under %x", keys, firstKeys)
		}
		if _, shared := s.tables.counts(); shared-sharedBefore != int64(len(train)+len(source)) {
			t.Errorf("table_bytes_shared grew by %d, want the tables' %d bytes", shared-sharedBefore, len(train)+len(source))
		}
	})

	// changed is the train table with the last byte of its last value
	// changed: the same first bytes, another table.
	changedTrain := bytes.Clone(train)
	i := bytes.LastIndexByte(changedTrain, '"') - 1
	changedTrain[i] ^= 1
	changed := bytes.Replace(body, train, changedTrain, 1)

	t.Run("changed last byte", func(t *testing.T) {
		if recognised(s, changed)["train"] {
			t.Fatal("a table one byte off an interned one was recognised")
		}
		tables := s.tables.recency.Len()
		got := decodeLikeDecoder(t, s, changed, "changed last byte")
		if &got.Tables["train"][0] == &first.Tables["train"][0] {
			t.Error("a changed table was answered with the interned one's records")
		}
		if n := s.tables.recency.Len(); n != tables+1 {
			t.Errorf("the interner holds %d tables after a new one, want %d", n, tables+1)
		}
	})

	t.Run("continuations", func(t *testing.T) {
		end := bytes.Index(body, train) + len(train)
		head := body[:end]
		if !bytes.Equal(body[end:], []byte("}}")) {
			t.Fatalf("the train table is not the body's last member: %q follows it", body[end:])
		}
		for _, tail := range []string{"}}", "]", ",]", "", "}} trailing", "}}{\"tenant\":\"u\"}", "}", ",\"more\":[]}}", " }}", "]}}"} {
			b := append(bytes.Clone(head), tail...)
			decodeLikeDecoder(t, s, b, fmt.Sprintf("interned table then %q", tail))
		}
	})

	t.Run("strict prefix", func(t *testing.T) {
		// The train table minus its last record, the table with one more
		// record, and the table's bytes extended past its closing
		// bracket by one more record: each starts with the other's bytes
		// up to where one ends.
		var records []dataset.Record
		if err := json.Unmarshal(train, &records); err != nil {
			t.Fatal(err)
		}
		shorter, err := json.Marshal(records[:len(records)-1])
		if err != nil {
			t.Fatal(err)
		}
		longer, err := json.Marshal(append(records, dataset.Record{ID: "extra"}))
		if err != nil {
			t.Fatal(err)
		}
		extended := append(bytes.Clone(train), `,{"ID":"extra"}]`...)
		decodeLikeDecoder(t, s, bytes.Replace(body, train, extended, 1), "the interned table extended past its end")
		for _, table := range [][]byte{shorter, longer} {
			b := bytes.Replace(body, train, table, 1)
			fresh := &Server{tables: newTableInterner()}
			decodeLikeDecoder(t, fresh, body, "the interned table")
			for sight := 0; sight < 2; sight++ {
				decodeLikeDecoder(t, fresh, b, fmt.Sprintf("a %d-byte table beside the %d-byte one, sight %d", len(table), len(train), sight))
			}
			decodeLikeDecoder(t, fresh, body, "the interned table again")
			if known := recognised(fresh, b); !known["train"] {
				t.Errorf("the %d-byte table, interned, is not recognised", len(table))
			}
		}
	})

	t.Run("alternating", func(t *testing.T) {
		held := map[*byte][]dataset.Record{&body[0]: first.Tables["train"]}
		for job := 0; job < 6; job++ {
			b := body
			if job%2 == 1 {
				b = changed
			}
			got := decodeLikeDecoder(t, s, b, fmt.Sprintf("job %d", job))
			if want, ok := held[&b[0]]; ok && &got.Tables["train"][0] != &want[0] {
				t.Errorf("job %d: an interned train table was decoded again", job)
			}
			held[&b[0]] = got.Tables["train"]
		}
	})
}

// TestInternerEvictionKeepsPrefixIndex churns many times an interner's
// bound of distinct tables through it, three of every four sharing their
// first bytes with others and every job re-sending an older one, and
// checks after every job that the prefix index only names tables the LRU
// still holds — so it is never larger — that the newest table is known
// whatever its job evicted, that a table once evicted is decoded again
// on its next sight, not recognised, and that a table whose prefix entry
// an eviction took is indexed again. Then four goroutines
// churn the same tables at once, so recognition races eviction.
func TestInternerEvictionKeepsPrefixIndex(t *testing.T) {
	const bound = 2048
	s := &Server{tables: newTableInterner()}
	in := s.tables
	in.bound = bound
	table := func(i int) string {
		group := i % 4
		if group == 3 {
			group = i // a prefix of its own
		}
		return fmt.Sprintf(`[{"ID":"group-%03d-shares-this-prefix-with-the-other-tables","Fields":[{"Name":"n","Value":"%d"}]}%s]`,
			group, i, strings.Repeat(`,{"ID":"pad"}`, i%5))
	}
	bodyOf := func(i int) []byte {
		return []byte(`{"tenant":"t","tables":{"source":` + table(i) + `}}`)
	}
	last := make(map[int]*dataset.Record) // the records each table last decoded to
	var churned, n int
	for ; churned <= 8*bound; n++ {
		for _, i := range []int{n, n / 2} {
			got := decodeLikeDecoder(t, s, bodyOf(i), fmt.Sprintf("table %d", i))
			last[i] = &got.Tables["source"][0]
			// What this job evicted may have shared the table's prefix;
			// the entry is the table's own.
			if i == n && !recognised(s, bodyOf(n))["source"] {
				t.Fatalf("table %d is not recognised right after it was interned", n)
			}
		}
		churned += len(table(n))

		live := make(map[*list.Element]bool)
		for el := in.recency.Front(); el != nil; el = el.Next() {
			live[el] = true
		}
		if len(in.byPrefix) > len(live) {
			t.Fatalf("after table %d: %d prefix entries for %d interned tables", n, len(in.byPrefix), len(live))
		}
		for p, el := range in.byPrefix {
			if !live[el] {
				t.Fatalf("after table %d: prefix %q names an evicted table", n, p[:])
			}
		}
		if in.held > bound {
			t.Fatalf("after table %d: %d bytes held over a %d bound", n, in.held, bound)
		}
	}
	if n < 3*bound/len(table(0)) {
		t.Fatalf("only %d tables churned; the bound evicted too little", n)
	}

	// The oldest tables are long gone; each comes back as a first sight.
	for i := 0; i < 4; i++ {
		body := bodyOf(i)
		if recognised(s, body)["source"] {
			t.Fatalf("evicted table %d is recognised", i)
		}
		_, shared := in.counts()
		got := decodeLikeDecoder(t, s, body, fmt.Sprintf("evicted table %d", i))
		if &got.Tables["source"][0] == last[i] {
			t.Errorf("evicted table %d was answered with its old records", i)
		}
		if _, after := in.counts(); after != shared {
			t.Errorf("evicted table %d: table_bytes_shared grew by %d", i, after-shared)
		}
	}

	// A table whose prefix entry went with another table's eviction is
	// indexed again on its next sight: a and b share a prefix, b holds
	// the entry, a is used, and c's arrival evicts b.
	a, b, c := bodyOf(0), bodyOf(4), bodyOf(3)
	three := &Server{tables: newTableInterner()}
	three.tables.bound = int64(len(table(0)) + len(table(4)) + len(table(3)) - 1)
	for _, body := range [][]byte{a, b, a, c} {
		decodeLikeDecoder(t, three, body, "three tables")
	}
	if recognised(three, b)["source"] || recognised(three, a)["source"] {
		t.Fatalf("after b's eviction: b recognised %v, a recognised %v; want neither", recognised(three, b)["source"], recognised(three, a)["source"])
	}
	decodeLikeDecoder(t, three, a, "a after b's eviction")
	if !recognised(three, a)["source"] || !recognised(three, c)["source"] {
		t.Fatal("a, seen again after b's eviction, or c is not recognised")
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				i := (k*7 + g*13) % n
				if _, err := decodeDiff(s, bodyOf(i)); err != nil {
					t.Errorf("goroutine %d, table %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if in.held > bound || len(in.byPrefix) > in.recency.Len() {
		t.Fatalf("after the concurrent churn: %d bytes held (bound %d), %d prefix entries for %d tables", in.held, bound, len(in.byPrefix), in.recency.Len())
	}
}

// TestWarmDecodeAllocs pins the warm decode's allocations: once the
// interner holds a body's tables, decoding it again allocates for the
// envelope and nothing per train row, so 4000 rows cost what 400 do.
func TestWarmDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins skip under the race detector")
	}
	const maxAllocs = 25
	allocs := func(trainN int) float64 {
		body := imputeBody(t, trainN)
		s := &Server{tables: newTableInterner()}
		if _, _, err := s.decodeSubmit(body); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, _, err := s.decodeSubmit(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(400), allocs(4000)
	if small != large || large > maxAllocs {
		t.Fatalf("a warm decode allocates %.0f times over 400 train rows and %.0f over 4000; want the same, at most %d", small, large, maxAllocs)
	}
}

// TestColdDecodeAllocs pins the cold decode of a canonical table: the
// one-pass decoder takes it, the same allocations decode 16 records and
// 64, and the records are what encoding/json decodes.
func TestColdDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins skip under the race detector")
	}
	// The JSON copy, the fields, the records, the record starts and the
	// table itself.
	const maxAllocs = 5
	allocs := func(n int) float64 {
		ds := dataset.GenerateRestaurants(0, n, 1)
		raw, err := json.Marshal(ds.Test)
		if err != nil {
			t.Fatal(err)
		}
		tab, ok := decodeTable(tableKey{}, raw)
		if !ok {
			t.Fatalf("the decoder declined a canonical %d-record table", n)
		}
		var want []dataset.Record
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tab.records, want) {
			t.Fatalf("the %d-record table decoded to %+v, encoding/json decodes %+v", n, tab.records, want)
		}
		return testing.AllocsPerRun(20, func() { decodeTable(tableKey{}, raw) })
	}
	small, large := allocs(16), allocs(64)
	if small != large || large > maxAllocs {
		t.Fatalf("a cold decode allocates %.0f times for 16 records and %.0f for 64; want the same, at most %d", small, large, maxAllocs)
	}
}

// BenchmarkDecodeSubmit decodes a knn-corpus-shaped body (4000 train and
// 32 source restaurants) with a fresh interner each time (cold: scan,
// hash and decode every table) and with one that holds its tables (warm).
func BenchmarkDecodeSubmit(b *testing.B) {
	body := imputeBody(b, 4000)
	b.Run("cold", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			s := &Server{tables: newTableInterner()}
			if _, _, err := s.decodeSubmit(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := &Server{tables: newTableInterner()}
		if _, _, err := s.decodeSubmit(body); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if _, _, err := s.decodeSubmit(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
