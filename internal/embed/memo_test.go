package embed

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// memoPair returns a registry-published index, which has an answer memo,
// and a memo-free NewIndex over the same items.
func memoPair(items []Item) (memo, direct *Index) {
	memo = NewRegistry().Index(Default(), items)
	direct = NewIndex(Default())
	direct.AddAll(items)
	return memo, direct
}

// held returns how many lists the memo holds.
func (m *answerMemo) held() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.prev)
}

// scribble overwrites an answer in place, as a careless caller might.
func scribble(nn []Neighbor) {
	for i := range nn {
		nn[i] = Neighbor{ID: "scribbled", Distance: -1}
	}
}

// memoChooser picks query texts from a pool the way repeated traffic
// does: a text never asked, one of the last few asked, or one asked long
// ago that the memo may have turned over since.
type memoChooser struct {
	rng   *rand.Rand
	pool  []string
	next  int
	asked []string
}

func (c *memoChooser) pick() string {
	var text string
	switch r := c.rng.Intn(3); {
	case r == 0 || len(c.asked) == 0:
		text = c.pool[c.next%len(c.pool)]
		c.next++
	case r == 1:
		text = c.asked[max(0, len(c.asked)-1-c.rng.Intn(8))]
	default:
		text = c.asked[c.rng.Intn(len(c.asked))]
	}
	c.asked = append(c.asked, text)
	return text
}

// TestMemoMatchesDirectIndex is the differential property test of the
// answer memo: random interleavings of Nearest and NearestGroup — new,
// repeated and evicted texts, k from 1 to 12, groups mixing hits and
// misses — get from a registry index exactly what a memo-free index over
// the same items gives, below the crossover and past it, across more
// distinct queries than the memo holds. Every answer is scribbled over
// after the check, so a memo that handed out its own slice fails a later
// one.
func TestMemoMatchesDirectIndex(t *testing.T) {
	all := simTexts(t, certMinPoints+200)
	for _, n := range []int{40, certMinPoints + 8} {
		memo, direct := memoPair(all[:n])
		pool := make([]string, 0, 180)
		for _, it := range all[max(0, n-60) : n+120] { // stored texts and held-out ones
			pool = append(pool, it.Text)
		}
		c := &memoChooser{rng: rand.New(rand.NewSource(int64(n))), pool: pool}
		distinct := map[memoKey]bool{}
		for op := 0; len(distinct) <= 2*n+100; op++ {
			k := 1 + c.rng.Intn(12)
			if c.rng.Intn(3) == 0 {
				text := c.pick()
				distinct[memoKey{text, k}] = true
				got, want := memo.Nearest(text, k), direct.Nearest(text, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d op %d: Nearest(%q, %d) = %v, direct index gives %v", n, op, text, k, got, want)
				}
				scribble(got)
				continue
			}
			texts := make([]string, 1+c.rng.Intn(9))
			for i := range texts {
				texts[i] = c.pick()
				distinct[memoKey{texts[i], k}] = true
			}
			got, want := memo.NearestGroup(texts, k), direct.NearestGroup(texts, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d op %d: NearestGroup(%d texts, %d) = %v, direct index gives %v", n, op, len(texts), k, got, want)
			}
			for _, nn := range got {
				scribble(nn)
			}
		}
		if memo.Reused() == 0 || direct.Reused() != 0 {
			t.Fatalf("n=%d: the registry index reused %d answers, the direct one %d; want some and none",
				n, memo.Reused(), direct.Reused())
		}
		if held := memo.memo.held(); held > 2*n {
			t.Fatalf("n=%d: the memo holds %d answers, more than two generations of %d", n, held, n)
		}
	}
}

// TestMemoConcurrentMatchesDirectIndex: eight goroutines query one
// registry index past the crossover, through Nearest and NearestGroup,
// over more distinct (text, k) pairs than two generations hold, so
// lookups, promotions and turnovers race each other. Every answer must be
// the memo-free index's.
func TestMemoConcurrentMatchesDirectIndex(t *testing.T) {
	all := simTexts(t, certMinPoints+200)
	n := certMinPoints + 8
	memo, direct := memoPair(all[:n])
	pool := make([]string, 0, 180)
	for _, it := range all[n-60 : n+120] {
		pool = append(pool, it.Text)
	}
	want := map[memoKey][]Neighbor{}
	for _, text := range pool {
		for k := 1; k <= 12; k++ {
			want[memoKey{text, k}] = direct.Nearest(text, k)
		}
	}
	const workers = 8
	asked := make([]map[memoKey]bool, workers)
	var wg sync.WaitGroup
	for w := range workers {
		asked[w] = map[memoKey]bool{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for op := 0; op < 60; op++ {
				k := 1 + rng.Intn(12)
				texts := make([]string, 1+rng.Intn(8))
				for i := range texts {
					texts[i] = pool[rng.Intn(len(pool))]
					asked[w][memoKey{texts[i], k}] = true
				}
				var got [][]Neighbor
				if len(texts) == 1 {
					got = [][]Neighbor{memo.Nearest(texts[0], k)}
				} else {
					got = memo.NearestGroup(texts, k)
				}
				for i, nn := range got {
					if !reflect.DeepEqual(nn, want[memoKey{texts[i], k}]) {
						t.Errorf("worker %d op %d: %q at k=%d answered %v, want %v", w, op, texts[i], k, nn, want[memoKey{texts[i], k}])
						return
					}
					scribble(nn)
				}
			}
		}(w)
	}
	wg.Wait()
	distinct := map[memoKey]bool{}
	for _, m := range asked {
		for key := range m {
			distinct[key] = true
		}
	}
	if len(distinct) <= 2*n {
		t.Fatalf("only %d distinct queries; the run never crossed an eviction boundary (%d)", len(distinct), 2*n)
	}
	if memo.Reused() == 0 {
		t.Fatal("no answer was reused")
	}
}

// TestMemoBounded: however many distinct queries arrive, the memo holds at
// most two generations of Len() answers.
func TestMemoBounded(t *testing.T) {
	items := randomCorpus(30, 5)
	ix := NewRegistry().Index(Default(), items)
	for i := 0; i < 10*ix.Len()+7; i++ {
		ix.Nearest(fmt.Sprintf("bounded query %d", i), 3)
		if i%3 == 0 {
			ix.NearestGroup([]string{fmt.Sprintf("bounded group %d", i), items[i%len(items)].Text}, 2)
		}
	}
	if held := ix.memo.held(); held > 2*ix.Len() || held == 0 {
		t.Fatalf("the memo holds %d answers; want some, at most 2 × %d", held, ix.Len())
	}
}

// TestMemoDroppedOnAdd: once a memoized index is mutated — an id
// re-added with new text, a new id added — every answer is the exact scan
// of the new contents, not a remembered one.
func TestMemoDroppedOnAdd(t *testing.T) {
	items := simTexts(t, certMinPoints+20)
	ix := NewRegistry().Index(Default(), items[:certMinPoints+8])
	queries := []string{items[3].Text, items[certMinPoints+10].Text, items[certMinPoints+11].Text}
	for range 2 {
		ix.NearestGroup(queries, 5)
		ix.Nearest(queries[0], 5)
	}
	if ix.Reused() == 0 {
		t.Fatal("the repeated queries were not reused before the mutation")
	}
	ix.Add(items[4].ID, items[certMinPoints+10].Text)
	ix.Add("added", items[certMinPoints+11].Text)
	reused := ix.Reused()
	exact := func(text string) []Neighbor {
		return ix.exactScan(ix.embed32(nil, text), 5, -1)
	}
	grouped := ix.NearestGroup(queries, 5)
	for i, text := range queries {
		want := exact(text)
		if got := ix.Nearest(text, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("after Add, Nearest(%d) = %v, the exact scan gives %v", i, got, want)
		}
		if !reflect.DeepEqual(grouped[i], want) {
			t.Fatalf("after Add, NearestGroup[%d] = %v, the exact scan gives %v", i, grouped[i], want)
		}
	}
	if ix.Reused() != reused {
		t.Fatal("a mutated index answered from its old memo")
	}
}

// TestMemoPromotesPreviousHits: an answer found in the previous generation
// moves back to the current one, so a query that keeps being asked
// survives every turnover while one-off queries age out.
func TestMemoPromotesPreviousHits(t *testing.T) {
	items := randomCorpus(10, 9)
	ix := NewRegistry().Index(Default(), items)
	hot := items[0].Text
	ix.Nearest(hot, 3)
	for round := 0; round < 5; round++ {
		for i := 0; i < ix.Len(); i++ { // fills the current generation and turns it over
			ix.Nearest(fmt.Sprintf("one-off %d-%d", round, i), 3)
		}
		before := ix.Reused()
		ix.Nearest(hot, 3)
		if ix.Reused() != before+1 {
			t.Fatalf("round %d: the hot query was dropped at a turnover", round)
		}
	}
}

// TestBlocksMemoMatchesDirectIndex: on random corpora, clustered and not,
// a registry index asked a random sequence of thresholds — repeats, a new
// threshold, an old one again — answers each exactly as a memo-free index
// does. A repeat is the remembered answer itself, not a recomputation.
func TestBlocksMemoMatchesDirectIndex(t *testing.T) {
	thresholds := []float64{0.4, 0.6, 0.8, 0.9, 1.2}
	for trial := 0; trial < 12; trial++ {
		items := clusteredCorpus(3+trial*5, int64(300+trial))
		if trial%3 == 2 {
			items = randomCorpus(20+trial*7, int64(300+trial))
		}
		memo, direct := memoPair(items)
		rng := rand.New(rand.NewSource(int64(trial)))
		last := -1.0
		for op := 0; op < 12; op++ {
			threshold := thresholds[rng.Intn(len(thresholds))]
			if op%3 == 1 {
				threshold = last // asked again right away
			}
			got := memo.Blocks(threshold)
			if want := direct.Blocks(threshold); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d op %d threshold %.1f: the registry index blocks %v, a memo-free one %v", trial, op, threshold, got, want)
			}
			if threshold == last {
				if again := memo.Blocks(threshold); &again[0] != &got[0] {
					t.Fatalf("trial %d op %d: a repeated threshold %.1f was recomputed", trial, op, threshold)
				}
			}
			last = threshold
		}
	}
}

// TestBlocksMemoDroppedOnAdd: an AddAll after publishing drops the
// remembered blocks, so the same threshold asked again blocks the new
// contents, as a memo-free index over all the items does.
func TestBlocksMemoDroppedOnAdd(t *testing.T) {
	items := clusteredCorpus(12, 77)
	half := len(items) / 2
	memo := NewRegistry().Index(Default(), items[:half])
	before := memo.Blocks(0.8)
	memo.AddAll(items[half:])
	direct := NewIndex(Default())
	direct.AddAll(items)
	got, want := memo.Blocks(0.8), direct.Blocks(0.8)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after AddAll the registry index blocks %v, a memo-free index over every item %v", got, want)
	}
	if reflect.DeepEqual(got, before) {
		t.Fatal("the corpus grew but the blocks did not: the test's corpus does not show a dropped memo")
	}
}

// TestBlocksMemoConcurrent: eight goroutines ask Blocks of one fresh
// registry index at once, at two thresholds, so first computations and
// replacements race each other. Every answer is the memo-free index's.
func TestBlocksMemoConcurrent(t *testing.T) {
	items := clusteredCorpus(30, 91)
	memo, direct := memoPair(items)
	thresholds := []float64{0.6, 0.9}
	want := map[float64][][]string{}
	for _, threshold := range thresholds {
		want[threshold] = direct.Blocks(threshold)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for op := 0; op < 40; op++ {
				threshold := thresholds[(w+op/10)%len(thresholds)]
				if got := memo.Blocks(threshold); !reflect.DeepEqual(got, want[threshold]) {
					t.Errorf("worker %d op %d threshold %.1f: blocks %v, want %v", w, op, threshold, got, want[threshold])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
