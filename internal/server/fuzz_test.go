package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/workflow"
)

// fuzzTS lazily builds one server + test listener shared across fuzz
// iterations: a wedged or corrupted server surfaces as later iterations
// failing, which is exactly the robustness property under test.
var (
	fuzzOnce sync.Once
	fuzzSrv  *httptest.Server
)

func fuzzServer() *httptest.Server {
	fuzzOnce.Do(func() {
		fuzzSrv = httptest.NewServer(New(Config{Model: testOracle()}).Handler())
	})
	return fuzzSrv
}

// FuzzServerSpecSubmit throws hostile bodies at POST /v1/pipelines: the
// server must answer every one with a deliberate status — 400 for
// garbage, the admission codes for valid-but-refused submissions, 200/202
// for runnable ones — and never a 500, a panic, or a wedged listener.
func FuzzServerSpecSubmit(f *testing.F) {
	f.Add([]byte(`{"tenant":"t","spec":{"stages":[{"name":"keep","kind":"filter","field":"kind","predicate":"the kind is tool"}]},"tables":{"source":[{"ID":"a","Fields":[{"Name":"kind","Value":"tool"}]}]}}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"tenant":"../../etc/passwd","spec":{"stages":[]}}`))
	f.Add([]byte(`{"tenant":"t","spec":{"stages":[{"kind":"no-such-operator"}]}}`))
	f.Add([]byte(`{"tenant":"t","async":true}`))
	f.Add([]byte(`{"tenant":"t","spec":{"stages":[{"name":"a","kind":"filter"},{"name":"a","kind":"filter"}]}}`))
	f.Add(bytes.Repeat([]byte(`{"spec":`), 2000))
	for _, body := range hostileNeighborBodies {
		f.Add([]byte(body))
	}

	ts := fuzzServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(ts.URL+"/v1/pipelines", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("transport error (wedged server?): %v", err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
			http.StatusPaymentRequired, http.StatusTooManyRequests,
			http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("submit answered %d for %q — hostile input must map to a deliberate status", resp.StatusCode, body)
		}
		health, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("healthz unreachable after %q: %v", body, err)
		}
		health.Body.Close()
		if health.StatusCode != http.StatusOK {
			t.Fatalf("healthz %d after %q — a bad submission must not degrade the service", health.StatusCode, body)
		}
	})
}

// decodeSeeds are submission bodies around every edge of the canonical
// shape the interning decoder recognises: the benchmark's four layouts
// first, then each way a body can stop being canonical.
var decodeSeeds = func() []string {
	const (
		spec   = `"spec":{"stages":[{"name":"keep","kind":"filter","field":"kind","predicate":"the kind is tool"}]}`
		source = `[{"ID":"a","Fields":[{"Name":"kind","Value":"tool"}]},{"ID":"b","Fields":[{"Name":"kind","Value":"toy"}]}]`
		train  = `[{"ID":"t1","Fields":[{"Name":"kind","Value":"tool"},{"Name":"city","Value":"x"}]}]`
		tricky = `[{"ID":"]","Fields":[{"Name":"q\"uote","Value":"back\\slash"},{"Name":"}{","Value":"[\u005d"}]}]`
	)
	seeds := []string{
		`{"tenant":"t",` + spec + `,"tables":{"source":` + source + `}}`,
		`{"tenant":"t",` + spec + `,"tables":{"source":` + source + `,"train":` + train + `}}`,
		`{"tenant":"t",` + spec + `,"tables":{"source":` + source + `},"async":true}`,
		`{"tenant":"t",` + spec + `,"tables":{"source":` + source + `,"train":` + train + `},"async":true}`,
		`{"tenant":"t",` + spec + `,"Tables":{"source":` + source + `}}`,
		`{"tenant":"t","tables":{"source":` + source + `},` + spec + `}`,
		`{"tenant":"t","tables":{"source":` + source + `},"tables":{"source":` + train + `}}`,
		`{"tenant":"t","tables":{"source":` + source + `},"TABLES":{"train":` + train + `}}`,
		`{"tenant":"t","t\u0061bles":{"source":` + source + `}}`,
		`{"tenant":"t","table\u017f":{"source":` + source + `}}`,
		`{"tenant":"t","tableſ":{"source":` + source + `}}`,
		`{"tenant":"t",` + spec + `,"tables":null}`,
		`{"tenant":"t",` + spec + `,"tables":{}}`,
		`{"tenant":"t",` + spec + `,"tables":[]}`,
		`{"tenant":"t",` + spec + `,"tables":{"source":null}}`,
		`{"tenant":"t",` + spec + `,"tables":{"source":[]}}`,
		`{"tenant":"t",` + spec + `,"tables":{"source":{}}}`,
		`{"tenant":"t","spec":{"stages":[{"name":"tables","kind":"filter","predicate":"\"tables\":{\"source\":[]}"}]},"tables":{"source":` + source + `}}`,
		`{"tenant":"t",` + spec + `,"tables":{"source":` + tricky + `}}`,
		`{"tenant":"t",` + spec + `,"tables":{"source":` + source + `,"source":` + train + `}}`,
		`{"tenant":"t",` + spec + `,"tables":{"sou\u0072ce":` + source + `}}`,
		`{"tenant":"t",` + spec + `,"tables":{"größe":` + source + `}}`,
		" \n\t{ \"tenant\" : \"t\" , \"tables\" : { \"source\" : " + source + " } } \n",
		`{"tenant":"t",` + spec + `,"tables":{"source":` + source + `}} trailing`,
		`{"tenant":"t",` + spec + `,"tables":{"source":` + source + `}}{"tenant":"u"}`,
		`{"tenant":"t",` + spec + `,"tables":{"source":` + source[:len(source)-9],
		`{"tenant":"t",` + spec + `,"tables":{"source":` + source + `}`,
		`{"tenant":"t",` + spec + `,"tables":{"source":` + source + `,}}`,
		`{"tenant":"t",` + spec + `,"tables":{"source":[{"ID":1}]}}`,
		`{"tenant":"t",` + spec + `,"tables":{"source":[{"ID":"a","Extra":` + strings.Repeat("[", 40) + strings.Repeat("]", 40) + `}]}}`,
		`{"tenant":"t",` + spec + `,"tables":{"source":[}}`,
		`{"tenant":"t",` + spec + `,"tables":{"source":` + source + ` "train":` + train + `}}`,
		`{"tenant":7,"tables":{"source":` + source + `}}`,
		`["tables",{"source":` + source + `}]`,
		`null`,
		``,
	}
	return seeds
}()

// FuzzDecodeSubmit is the differential test of the interning decoder: on
// any body, decodeSubmit and one json.Decoder over the whole body agree on
// error-or-not and, when both accept, on the decoded request. It runs
// against a fresh interner (every table a first sight) and against one
// that already holds the seeds' tables and keeps whatever the fuzzer
// gets accepted, so mutated bodies meet the hit path too.
func FuzzDecodeSubmit(f *testing.F) {
	warm := &Server{tables: newTableInterner()}
	for _, seed := range decodeSeeds {
		f.Add([]byte(seed))
		warm.decodeSubmit([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want SubmitRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		for name, s := range map[string]*Server{"cold": {tables: newTableInterner()}, "warm": warm} {
			got, err := s.decodeSubmit(body)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s interner: decodeSubmit error %v, json.Decoder error %v, on %q", name, err, wantErr, body)
			}
			if err != nil {
				if err.Error() != wantErr.Error() {
					t.Fatalf("%s interner: error text %q, json.Decoder says %q, on %q", name, err, wantErr, body)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s interner: decoded %+v, json.Decoder decoded %+v, on %q", name, got, want, body)
			}
		}
	})
}

// FuzzAdmissionGate drives the gate through byte-decoded op sequences —
// reserve, wait-with-cancelled-context, release (including double
// release) — and checks exact accounting after every step: the slot
// count equals the live tickets, the waiting count equals the queued
// ones, neither ever exceeds its bound, and draining every ticket at the
// end leaves the gate empty. This is the out-of-order-release property
// the concurrent battery exercises with real jobs, minimized.
func FuzzAdmissionGate(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 0, 2, 1, 2})
	f.Add([]byte{3, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 2, 0, 0, 1, 1, 2, 2, 2})
	f.Add([]byte{2, 3, 0, 1, 0, 2, 0, 1, 2, 0, 1, 2})

	const stateQueued, stateRunning, stateDone = 0, 1, 2
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := 1 + int(data[0]%4)
		queue := int(data[1] % 4)
		g := newGate(capacity, queue)
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()

		type slot struct {
			tk    *ticket
			state int
		}
		var tickets []slot
		count := func(state int) int {
			n := 0
			for _, s := range tickets {
				if s.state == state {
					n++
				}
			}
			return n
		}
		check := func(op string) {
			t.Helper()
			running, waiting := g.load()
			if running != count(stateRunning) || waiting != count(stateQueued) {
				t.Fatalf("after %s: load (%d, %d) disagrees with tickets (%d running, %d queued)",
					op, running, waiting, count(stateRunning), count(stateQueued))
			}
			if running > capacity || waiting > queue {
				t.Fatalf("after %s: load (%d, %d) exceeds bounds (cap %d, queue %d)", op, running, waiting, capacity, queue)
			}
		}

		for _, b := range data[2:] {
			switch b % 3 {
			case 0: // reserve
				tk, err := g.reserve()
				if err != nil {
					running, waiting := g.load()
					if running < capacity || waiting < queue {
						t.Fatalf("ErrBusy with free capacity: load (%d, %d) under (cap %d, queue %d)", running, waiting, capacity, queue)
					}
				} else if tk.acquired {
					tickets = append(tickets, slot{tk, stateRunning})
				} else {
					tickets = append(tickets, slot{tk, stateQueued})
				}
				check("reserve")
			case 1: // cancelled wait on the oldest queued ticket
				for i := range tickets {
					if tickets[i].state != stateQueued {
						continue
					}
					// With a free slot the select may legitimately pick
					// either arm; both outcomes must keep the books.
					if err := g.wait(cancelled, tickets[i].tk); err == nil {
						tickets[i].state = stateRunning
					} else {
						tickets[i].state = stateDone
					}
					break
				}
				check("wait")
			case 2: // release the oldest running ticket, then once more
				for i := range tickets {
					if tickets[i].state != stateRunning {
						continue
					}
					g.release(tickets[i].tk)
					g.release(tickets[i].tk) // idempotent per ticket
					tickets[i].state = stateDone
					break
				}
				check("release")
			}
		}

		// Drain: surrender every queued position, return every slot.
		for i := range tickets {
			if tickets[i].state == stateQueued {
				if err := g.wait(cancelled, tickets[i].tk); err == nil {
					tickets[i].state = stateRunning
				} else {
					tickets[i].state = stateDone
				}
			}
			if tickets[i].state == stateRunning {
				g.release(tickets[i].tk)
				tickets[i].state = stateDone
			}
		}
		if running, waiting := g.load(); running != 0 || waiting != 0 {
			t.Fatalf("drained gate still loaded: (%d, %d)", running, waiting)
		}
	})
}

// TestRateLimiterBurstExactUnderConcurrency pins the admission property
// the 429 semantics rest on: a bucket with negligible refill admits
// exactly its burst under concurrent contention — no double-spend of a
// token when Allow races, no lost admission either.
func TestRateLimiterBurstExactUnderConcurrency(t *testing.T) {
	const burst = 8
	l := workflow.NewRateLimiter(1e-9, burst)
	var wg sync.WaitGroup
	results := make([]bool, 3*burst)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = l.Allow()
		}(i)
	}
	wg.Wait()
	admitted := 0
	for _, ok := range results {
		if ok {
			admitted++
		}
	}
	if admitted != burst {
		t.Fatalf("admitted %d of %d concurrent calls, want exactly the burst %d", admitted, len(results), burst)
	}
}
