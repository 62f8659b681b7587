package dataset

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecordGetSet(t *testing.T) {
	r := Record{ID: "x", Fields: []Field{{"a", "1"}, {"b", "2"}}}
	if v, ok := r.Get("a"); !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	if _, ok := r.Get("zzz"); ok {
		t.Fatal("Get on missing field should report false")
	}
	r.Set("a", "9")
	if v, _ := r.Get("a"); v != "9" {
		t.Fatal("Set did not replace existing value")
	}
	r.Set("c", "3")
	if v, _ := r.Get("c"); v != "3" {
		t.Fatal("Set did not append new field")
	}
}

func TestRecordWithoutField(t *testing.T) {
	r := Record{ID: "x", Fields: []Field{{"a", "1"}, {"b", "2"}}}
	out := r.WithoutField("a")
	if _, ok := out.Get("a"); ok {
		t.Fatal("field a should be removed")
	}
	if _, ok := r.Get("a"); !ok {
		t.Fatal("original record mutated")
	}
	if len(out.Fields) != 1 {
		t.Fatalf("fields = %d, want 1", len(out.Fields))
	}
}

func TestRecordCloneIndependence(t *testing.T) {
	r := Record{ID: "x", Fields: []Field{{"a", "1"}}}
	c := r.Clone()
	c.Set("a", "2")
	if v, _ := r.Get("a"); v != "1" {
		t.Fatal("Clone shares field storage with original")
	}
}

// TestRecordWith: With is Clone then Set — same fields, no storage shared
// with the original — in one allocation whether it replaces or appends.
func TestRecordWith(t *testing.T) {
	r := Record{ID: "x", Fields: []Field{{"a", "1"}, {"b", "2"}}}
	for _, tc := range []struct{ name, value string }{{"a", "9"}, {"c", "3"}} {
		want := r.Clone()
		want.Set(tc.name, tc.value)
		got := r.With(tc.name, tc.value)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("With(%q, %q) = %+v, want %+v", tc.name, tc.value, got, want)
		}
		got.Fields[0].Value = "changed"
		if v, _ := r.Get("a"); v != "1" {
			t.Fatalf("With(%q) shares field storage with the original", tc.name)
		}
		if n := testing.AllocsPerRun(100, func() { recordSink = r.With(tc.name, tc.value) }); n != 1 {
			t.Errorf("With(%q) allocates %v times, want 1", tc.name, n)
		}
	}
}

var recordSink Record

func TestRecordString(t *testing.T) {
	r := Record{Fields: []Field{{"name", "joe"}, {"city", "nyc"}}}
	want := "name is joe; city is nyc"
	if got := r.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { stringSink = r.String() }); n != 1 {
		t.Errorf("String allocates %v times, want 1", n)
	}
}

var stringSink string

func TestSplitPartitions(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	train, val, test := Split(items, 0.6, 0.2, 42)
	if len(train) != 60 || len(val) != 20 || len(test) != 20 {
		t.Fatalf("sizes = %d/%d/%d", len(train), len(val), len(test))
	}
	all := append(append(append([]int{}, train...), val...), test...)
	sort.Ints(all)
	for i, v := range all {
		if v != i {
			t.Fatalf("partitions lost or duplicated item %d", i)
		}
	}
	// Determinism.
	train2, _, _ := Split(items, 0.6, 0.2, 42)
	if !reflect.DeepEqual(train, train2) {
		t.Fatal("Split is not deterministic for a fixed seed")
	}
}

func TestSample(t *testing.T) {
	items := []string{"a", "b", "c", "d"}
	s := Sample(items, 2, 1)
	if len(s) != 2 {
		t.Fatalf("len = %d", len(s))
	}
	if got := Sample(items, 10, 1); len(got) != 4 {
		t.Fatalf("oversample len = %d, want 4", len(got))
	}
	if !reflect.DeepEqual(Sample(items, 3, 5), Sample(items, 3, 5)) {
		t.Fatal("Sample not deterministic")
	}
}

func TestFlavors(t *testing.T) {
	fs := Flavors()
	if len(fs) != 20 {
		t.Fatalf("flavor count = %d, want 20", len(fs))
	}
	if !sort.SliceIsSorted(fs, func(i, j int) bool { return fs[i].Name < fs[j].Name }) {
		t.Fatal("Flavors() should be alphabetical")
	}
	gt := FlavorGroundTruth()
	if len(gt) != 20 {
		t.Fatalf("ground truth count = %d", len(gt))
	}
	// Ground truth must be strictly decreasing in chocolateyness.
	prev := 2.0
	for _, name := range gt {
		s, ok := FlavorScore(name)
		if !ok {
			t.Fatalf("unknown flavor %q in ground truth", name)
		}
		if s >= prev {
			t.Fatalf("ground truth not strictly decreasing at %q", name)
		}
		prev = s
	}
	// Paper property: chocolate-titled flavours at the head, lemon sorbet last.
	if !strings.Contains(gt[0], "chocolate") {
		t.Fatalf("top flavour %q should contain 'chocolate'", gt[0])
	}
	if gt[len(gt)-1] != "lemon sorbet" {
		t.Fatalf("last flavour = %q, want lemon sorbet", gt[len(gt)-1])
	}
	if _, ok := FlavorScore("no such flavor"); ok {
		t.Fatal("FlavorScore should miss unknown names")
	}
	if len(FlavorNames()) != 20 {
		t.Fatal("FlavorNames count")
	}
}

func TestDictionary(t *testing.T) {
	words := Dictionary()
	if len(words) < 1000 {
		t.Fatalf("dictionary too small: %d words", len(words))
	}
	seen := make(map[string]bool, len(words))
	letters := make(map[byte]bool)
	for _, w := range words {
		if w != strings.ToLower(w) {
			t.Fatalf("word %q is not lowercase", w)
		}
		if seen[w] {
			t.Fatalf("duplicate dictionary word %q", w)
		}
		seen[w] = true
		letters[w[0]] = true
	}
	for c := byte('a'); c <= 'z'; c++ {
		if c == 'x' { // no common x-words embedded; acceptable gap
			continue
		}
		if !letters[c] {
			t.Errorf("no dictionary word starts with %q", string(c))
		}
	}
}

func TestRandomWords(t *testing.T) {
	ws := RandomWords(100, 3)
	if len(ws) != 100 {
		t.Fatalf("len = %d", len(ws))
	}
	seen := make(map[string]bool)
	for _, w := range ws {
		if seen[w] {
			t.Fatalf("duplicate sampled word %q", w)
		}
		seen[w] = true
	}
	if !reflect.DeepEqual(ws, RandomWords(100, 3)) {
		t.Fatal("RandomWords not deterministic")
	}
	if reflect.DeepEqual(ws, RandomWords(100, 4)) {
		t.Fatal("different seeds should give different samples")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized n")
		}
	}()
	RandomWords(1<<20, 1)
}

func TestGenerateSyntheticTexts(t *testing.T) {
	texts := GenerateSyntheticTexts(5000, 9)
	if len(texts) != 5000 {
		t.Fatalf("len = %d", len(texts))
	}
	for i, s := range texts {
		if s == "" {
			t.Fatalf("empty text at %d", i)
		}
	}
	if !reflect.DeepEqual(texts, GenerateSyntheticTexts(5000, 9)) {
		t.Fatal("GenerateSyntheticTexts not deterministic")
	}
	if reflect.DeepEqual(texts[:100], GenerateSyntheticTexts(100, 10)) {
		t.Fatal("different seeds should give different corpora")
	}
	// The near-duplicate machinery must actually fire: a meaningful
	// fraction of texts share their full prefix with an earlier text.
	seen := make(map[string]bool)
	dups := 0
	for _, s := range texts {
		fields := strings.Split(s, " ")
		if seen[strings.Join(fields[:len(fields)-1], " ")] {
			dups++
		}
		seen[s] = true
	}
	if dups < 500 {
		t.Fatalf("only %d/5000 near-duplicate texts; generator should emit ~15%%+", dups)
	}
}

func TestGenerateCitations(t *testing.T) {
	cfg := CitationConfig{Entities: 200, Pairs: 800, PositiveFrac: 0.25, Seed: 11}
	corpus := GenerateCitations(cfg)
	if len(corpus.Pairs) != 800 {
		t.Fatalf("pairs = %d, want 800", len(corpus.Pairs))
	}
	pos := 0
	for _, p := range corpus.Pairs {
		if p.A == p.B {
			t.Fatal("self-pair generated")
		}
		sameEntity := corpus.Records[p.A].Entity == corpus.Records[p.B].Entity
		if p.Match != sameEntity {
			t.Fatal("pair label disagrees with entity ground truth")
		}
		if p.Match {
			pos++
		}
	}
	if pos == 0 || pos > 300 {
		t.Fatalf("positive count %d outside expected band", pos)
	}
	// Determinism.
	corpus2 := GenerateCitations(cfg)
	if !reflect.DeepEqual(corpus.Pairs, corpus2.Pairs) {
		t.Fatal("GenerateCitations not deterministic")
	}
	// Cluster structure: some entity must have >= 3 surface forms so
	// transitive evidence exists.
	count := make(map[int]int)
	for _, r := range corpus.Records {
		count[r.Entity]++
	}
	max := 0
	for _, c := range count {
		if c > max {
			max = c
		}
	}
	if max < 3 {
		t.Fatalf("largest cluster = %d, want >= 3", max)
	}
}

func TestCitationRecordAndText(t *testing.T) {
	c := Citation{ID: "x", Title: "t", Authors: "a", Venue: "v", Year: "2001"}
	r := c.Record()
	if v, _ := r.Get("title"); v != "t" {
		t.Fatal("Record() lost title")
	}
	if got := c.Text(); got != "a. t. v, 2001" {
		t.Fatalf("Text = %q", got)
	}
}

func TestGenerateCitationsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid config")
		}
	}()
	GenerateCitations(CitationConfig{Entities: 1, Pairs: 0})
}

func TestGenerateRestaurants(t *testing.T) {
	d := GenerateRestaurants(300, 86, 5)
	if len(d.Train) != 300 || len(d.Test) != 86 {
		t.Fatalf("sizes = %d/%d", len(d.Train), len(d.Test))
	}
	if d.TargetField != "city" {
		t.Fatalf("target = %q", d.TargetField)
	}
	gold := d.Gold()
	if len(gold) != 86 {
		t.Fatalf("gold len = %d", len(gold))
	}
	for _, g := range gold {
		if g == "" {
			t.Fatal("empty gold city")
		}
		if _, ok := LLMCityForm(g); !ok {
			t.Fatalf("gold city %q unknown to LLM form table", g)
		}
	}
	// Phone area codes map back to a city (possibly a noisy one).
	for _, r := range d.Test {
		phone, _ := r.Get("phone")
		code := strings.SplitN(phone, "-", 2)[0]
		if _, ok := CityForAreaCode(code); !ok {
			t.Fatalf("area code %q maps to no city", code)
		}
	}
}

func TestGenerateBuy(t *testing.T) {
	d := GenerateBuy(300, 65, 5)
	if len(d.Train) != 300 || len(d.Test) != 65 {
		t.Fatalf("sizes = %d/%d", len(d.Train), len(d.Test))
	}
	if d.TargetField != "manufacturer" {
		t.Fatalf("target = %q", d.TargetField)
	}
	branded := 0
	for _, r := range d.Test {
		name, _ := r.Get("name")
		if m, ok := ManufacturerForNameWord(name); ok {
			gold, _ := r.Get("manufacturer")
			if m != gold {
				t.Fatalf("brand token %q in %q disagrees with gold %q", m, name, gold)
			}
			branded++
		}
	}
	if branded == 0 {
		t.Fatal("no test product names carry a brand token")
	}
}

func TestFormDrift(t *testing.T) {
	// The formatting-drift pairs the paper cites must exist.
	if form, ok := LLMManufacturerForm("Tom Tom"); !ok || form != "TomTom" {
		t.Fatalf("Tom Tom drift missing: %q %v", form, ok)
	}
	if form, ok := LLMManufacturerForm("Elgato"); !ok || form != "Elgato Systems" {
		t.Fatalf("Elgato drift missing: %q %v", form, ok)
	}
	if _, ok := LLMManufacturerForm("NoBrand"); ok {
		t.Fatal("unknown brand should miss")
	}
	if form, ok := LLMCityForm("new york"); !ok || form != "New York City" {
		t.Fatalf("city drift missing: %q %v", form, ok)
	}
	if _, ok := LLMCityForm("atlantis"); ok {
		t.Fatal("unknown city should miss")
	}
}

func TestSplitProperty(t *testing.T) {
	// Property: Split never loses or duplicates items for any sizes.
	f := func(n uint8, seed int64) bool {
		items := make([]int, int(n))
		for i := range items {
			items[i] = i
		}
		tr, va, te := Split(items, 0.5, 0.25, seed)
		if len(tr)+len(va)+len(te) != len(items) {
			return false
		}
		seen := make(map[int]bool)
		for _, v := range append(append(append([]int{}, tr...), va...), te...) {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
