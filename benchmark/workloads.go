package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// Workload names are fixed: later changes cite them.
const (
	coldFanout = "cold-fanout"
	warmReplay = "warm-replay"
	knnCorpus  = "knn-corpus"
	zipfOpen   = "zipf-open"
)

// sizes scales every generated input. full is what BENCHMARK.json
// measures; small keeps the smoke test inside a few seconds.
type sizes struct {
	coldRecords, coldTrain           int
	warmJobs, warmRecords            int
	knnJobs, knnRecords, knnTrain    int
	zipfRecords, zipfPool, zipfTrain int
	zipfPrewarm                      int
	// uniqueJobs bounds how many never-seen jobs cold-fanout and zipf-open
	// can send: generous for the window lengths BENCHMARK.json allows, and
	// checked — a run that exhausts them would start replaying and is
	// invalid.
	uniqueJobs int
	// setupSeconds is how long set-up is repeated for, beyond the three
	// repeats every run makes, so that a short set-up is timed more often.
	setupSeconds float64
	warmup       time.Duration
	// minJobs is the fewest jobs a window must finish to report a p90
	// with ten samples beyond it.
	minJobs int
	// timingGates turns on the validity gates that read a clock (schedule
	// lag, backlog); the smoke test asserts no timing.
	timingGates bool
	// microIters scales every micro-pass loop.
	microIters int
	// traceSlices is how many slices the traced pass cuts its window into;
	// tracing is on in every second one. A slice must be long enough for
	// whole jobs to fall inside it.
	traceSlices int
}

var (
	full = sizes{
		coldRecords: 16, coldTrain: 32,
		warmJobs: 8, warmRecords: 256,
		knnJobs: 8, knnRecords: 32, knnTrain: 4000,
		zipfRecords: 32, zipfPool: 4096, zipfTrain: 512, zipfPrewarm: 128, uniqueJobs: 1200,
		setupSeconds: 2, warmup: 2 * time.Second, minJobs: 100, timingGates: true, microIters: 100, traceSlices: 10,
	}
	small = sizes{
		coldRecords: 8, coldTrain: 16,
		warmJobs: 4, warmRecords: 16,
		knnJobs: 4, knnRecords: 8, knnTrain: 256,
		zipfRecords: 8, zipfPool: 128, zipfTrain: 32, zipfPrewarm: 8, uniqueJobs: 96,
		warmup: 100 * time.Millisecond, minJobs: 1, microIters: 5, traceSlices: 2,
	}
)

// workload is one traffic mix. Its inputs are generated from the seed in
// set-up; the server sees only the generated requests.
type workload struct {
	name string
	why  string
	// open selects the open loop (Poisson arrivals at rate jobs/s, async
	// submit and poll); otherwise clients closed-loop clients each wait
	// for their reply before sending the next job.
	open    bool
	clients int
	// rate is R, the open loop's fixed arrival rate: the largest of
	// {4, 6, 8, 12, 16} jobs/s at which the seed commit kept mean gate
	// utilisation at or below 0.6. A constant, never tuned per run.
	rate float64
	// limitMS is the latency limit behind loadgen.late_share: three times
	// the seed commit's median job latency on this workload.
	limitMS float64
	// faults is the per-attempt transient failure probability injected
	// between the server's retry policy and the upstream.
	faults float64
	gen    func(seed int64, sz sizes) *inputs
}

// inputs are one workload's generated requests.
type inputs struct {
	spec pipeline.Spec
	// unique means job k is sent once (every record never seen before);
	// otherwise the jobs are replayed round-robin.
	unique bool
	// A request is {"tenant":T, head sources[k] tail}: head carries the
	// spec, tail the shared train table, so a thousand distinct jobs do
	// not hold a thousand copies of it.
	head, tail []byte
	sources    [][]byte
	// prewarm lists the jobs run once in set-up, upstream latency off, to
	// fill the response cache and build the indexes.
	prewarm []int
	// corpus is the labelled record table the embed and core micro-passes
	// index: the workload's train table, or, when it has none, its source
	// records before the target was removed.
	corpus []dataset.Record
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings cannot fail to marshal
	}
	return b
}

// newInputs lays out the request frame around the per-job source tables,
// in the field order encoding/json gives server.SubmitRequest.
func newInputs(spec pipeline.Spec, train []dataset.Record, async bool) *inputs {
	in := &inputs{spec: spec, corpus: train}
	in.head = append(append([]byte(`"spec":`), mustJSON(spec)...), `,"tables":{"source":`...)
	if train != nil {
		in.tail = append(append(in.tail, `,"train":`...), mustJSON(train)...)
	}
	in.tail = append(in.tail, '}')
	if async {
		in.tail = append(in.tail, `,"async":true`...)
	}
	in.tail = append(in.tail, '}')
	return in
}

func (in *inputs) addJob(source []dataset.Record) {
	in.sources = append(in.sources, mustJSON(source))
}

// body returns job k's request for a tenant.
func (in *inputs) body(k int, tenant string) []byte {
	src := in.sources[k%len(in.sources)]
	b := make([]byte, 0, len(in.head)+len(src)+len(in.tail)+len(tenant)+16)
	b = append(b, `{"tenant":"`...)
	b = append(b, tenant...)
	b = append(b, `",`...)
	b = append(b, in.head...)
	b = append(b, src...)
	return append(b, in.tail...)
}

// restaurants generates n records and a train table. Source records lose
// the imputation target, as a caller with a missing value would send them;
// labelled keeps it.
func restaurants(train, n int, seed int64) (trainTable, source, labelled []dataset.Record) {
	ds := dataset.GenerateRestaurants(train, n, seed)
	source = make([]dataset.Record, len(ds.Test))
	for i, r := range ds.Test {
		source[i] = r.WithoutField(ds.TargetField)
	}
	return ds.Train, source, ds.Test
}

var cuisineCategories = []string{"diner", "cafe", "grill", "bistro", "kitchen", "house"}

const (
	predCasual  = "the restaurant sounds like a casual neighbourhood place"
	predSeafood = "the restaurant serves seafood, steak, or pizza"
	predStreet  = "the address is on a numbered street or avenue"
	critFancy   = "how upscale the restaurant is"
)

var workloads = []workload{
	{
		name: coldFanout, clients: 2, limitMS: 3 * 233,
		why: "every unit task is a cache miss, so upstream round trips and how well the executor overlaps them dominate",
		gen: genColdFanout,
	},
	{
		name: warmReplay, clients: 2, limitMS: 3 * 8.3,
		why: "every unit task is a cache hit, so a job is pure CPU in request JSON, channel hand-off, prompt rendering and the hit path",
		gen: genWarmReplay,
	},
	{
		name: knnCorpus, clients: 2, limitMS: 3 * 99,
		why: "k-NN imputation and blocking against one 4000-record table, so the embedding index and registry do the work and the LLM almost none",
		gen: genKNNCorpus,
	},
	{
		name: zipfOpen, open: true, clients: 4, rate: 12, limitMS: 3 * 77, faults: 0.02,
		why: "Poisson arrivals over Zipf-popular records with upstream faults: hits, coalescing, misses, queueing, retries and restart mixed",
		gen: genZipfOpen,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func genColdFanout(seed int64, sz sizes) *inputs {
	spec := pipeline.Spec{Stages: []pipeline.StageSpec{
		{Name: "casual", Kind: pipeline.KindFilter, Field: "name", Predicate: predCasual},
		{Name: "kind", Kind: pipeline.KindCategorize, Field: "name", Categories: cuisineCategories},
		{Name: "city", Kind: pipeline.KindImpute, TargetField: "city", Side: "train", Strategy: "llm"},
	}}
	train, pool, _ := restaurants(sz.coldTrain, sz.coldRecords, seed)
	in := newInputs(spec, train, false)
	in.unique, in.prewarm = true, []int{0}
	for k := 0; k < sz.uniqueJobs; k++ {
		// Folding the job index into the name makes every filter,
		// categorize and impute prompt of every job a first sighting.
		source := make([]dataset.Record, len(pool))
		for i, r := range pool {
			c := r.Clone()
			c.ID = fmt.Sprintf("j%d-%s", k, r.ID)
			name, _ := c.Get("name")
			c.Set("name", fmt.Sprintf("%s no. %d-%d", name, k, i))
			source[i] = c
		}
		in.addJob(source)
	}
	return in
}

func genWarmReplay(seed int64, sz sizes) *inputs {
	// Every stage reads the source table, so each of the five per-record
	// stages asks once per record and the job is 5 x records hits.
	spec := pipeline.Spec{Stages: []pipeline.StageSpec{
		{Name: "casual", Kind: pipeline.KindFilter, Input: "source", Field: "name", Predicate: predCasual},
		{Name: "seafood", Kind: pipeline.KindFilter, Input: "source", Field: "type", Predicate: predSeafood},
		{Name: "street", Kind: pipeline.KindFilter, Input: "source", Field: "addr", Predicate: predStreet},
		{Name: "kind", Kind: pipeline.KindCategorize, Input: "source", Field: "name", Categories: cuisineCategories},
		{Name: "fancy", Kind: pipeline.KindSort, Input: "source", Criterion: critFancy, Strategy: "rating"},
		{Name: "share", Kind: pipeline.KindCount, Input: "source", Field: "name", Predicate: predCasual},
	}}
	_, pool, labelled := restaurants(0, sz.warmJobs*sz.warmRecords, seed)
	in := newInputs(spec, nil, false)
	in.corpus = labelled
	for k := 0; k < sz.warmJobs; k++ {
		in.addJob(pool[k*sz.warmRecords : (k+1)*sz.warmRecords])
		in.prewarm = append(in.prewarm, k)
	}
	return in
}

func genKNNCorpus(seed int64, sz sizes) *inputs {
	spec := pipeline.Spec{Stages: []pipeline.StageSpec{
		{Name: "city", Kind: pipeline.KindImpute, TargetField: "city", Side: "train", Strategy: "hybrid", Neighbors: 5},
		{Name: "entities", Kind: pipeline.KindResolve, Strategy: "blocked-pairwise"},
	}}
	train, pool, _ := restaurants(sz.knnTrain, sz.knnJobs*sz.knnRecords, seed)
	in := newInputs(spec, train, false)
	for k := 0; k < sz.knnJobs; k++ {
		in.addJob(pool[k*sz.knnRecords : (k+1)*sz.knnRecords])
		in.prewarm = append(in.prewarm, k)
	}
	return in
}

func genZipfOpen(seed int64, sz sizes) *inputs {
	spec := pipeline.Spec{Stages: []pipeline.StageSpec{
		// The filter reads the whole record, so a record not seen before is
		// a miss; names alone repeat across the pool and would all be warm
		// after a few jobs.
		{Name: "casual", Kind: pipeline.KindFilter, Predicate: predCasual},
		{Name: "kind", Kind: pipeline.KindCategorize, Field: "name", Categories: cuisineCategories},
		{Name: "city", Kind: pipeline.KindImpute, TargetField: "city", Side: "train", Strategy: "hybrid"},
	}}
	train, pool, _ := restaurants(sz.zipfTrain, sz.zipfPool, seed)
	rng := rand.New(rand.NewSource(seed))
	// Popularity rank is the pool position; s = 1.1 puts about half the
	// draws on the first few dozen records and leaves a long tail of
	// first sightings.
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	in := newInputs(spec, train, true)
	in.unique = true
	for k := 0; k < sz.uniqueJobs; k++ {
		source := make([]dataset.Record, sz.zipfRecords)
		for i := range source {
			r := pool[zipf.Uint64()].Clone()
			r.ID = fmt.Sprintf("r%02d", i)
			source[i] = r
		}
		in.addJob(source)
	}
	// The first jobs double as the pre-warm: the measured window starts
	// past the steep part of the cache-fill curve.
	for k := 0; k < sz.zipfPrewarm; k++ {
		in.prewarm = append(in.prewarm, k)
	}
	return in
}
