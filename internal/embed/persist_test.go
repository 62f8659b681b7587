package embed

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// queryTexts returns deterministic query strings drawn from corpus
// vocabulary plus off-corpus probes.
func queryTexts(n int) []string {
	qs := make([]string, n)
	for i := range qs {
		qs[i] = fmt.Sprintf("golden dragon survey %d entity", i)
	}
	return qs
}

// assertIdenticalTopK pins two indexes to byte-identical results —
// ids, distances, and tie-break order — over a query battery.
func assertIdenticalTopK(t *testing.T, label string, a, b *Index, k int) {
	t.Helper()
	for qi, q := range queryTexts(12) {
		got, want := b.Nearest(q, k), a.Nearest(q, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: query %d top-%d diverges:\n got %v\nwant %v", label, qi, k, got, want)
		}
	}
}

// TestIndexPersistRoundTrip saves and reloads an index under every tier
// combination and pins the warm-loaded index's top-k byte-identical to
// the freshly built one — the ISSUE 8 acceptance criterion.
func TestIndexPersistRoundTrip(t *testing.T) {
	em := Default()
	items := randomCorpus(300, 71)
	cases := []struct {
		name string
		opts IndexOptions
	}{
		{"exact", IndexOptions{}},
		{"quant", IndexOptions{Quantize: true}},
		{"ann", IndexOptions{ANN: true}},
		{"ann+quant", IndexOptions{ANN: true, Quantize: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ix.dpix")
			built := NewIndexWith(em, tc.opts)
			built.AddAll(items)
			// Touch every query path once so tiers are built pre-save.
			built.Nearest("probe", 3)
			if err := SaveIndex(path, built, em, items); err != nil {
				t.Fatalf("SaveIndex: %v", err)
			}
			loaded, err := LoadIndex(path, em, items, tc.opts)
			if err != nil {
				t.Fatalf("LoadIndex: %v", err)
			}
			if loaded.Len() != built.Len() {
				t.Fatalf("loaded %d items, want %d", loaded.Len(), built.Len())
			}
			// The saved tiers must be present without a rebuild: ANN saves
			// partitions, Quantize saves the code array.
			if tc.opts.ANN && loaded.part.Load() == nil {
				t.Fatal("warm load did not restore partitions")
			}
			if tc.opts.Quantize && loaded.quant.Load() == nil {
				t.Fatal("warm load did not restore the quantized tier")
			}
			assertIdenticalTopK(t, tc.name, built, loaded, 10)
			// Exclusion queries and by-id lookups go through byID.
			if got, want := loaded.NearestByID(items[5].ID, 5), built.NearestByID(items[5].ID, 5); !reflect.DeepEqual(got, want) {
				t.Fatalf("NearestByID diverges: %v vs %v", got, want)
			}
			if d1, ok1 := loaded.DistanceByID(items[1].ID, items[2].ID); ok1 {
				if d2, _ := built.DistanceByID(items[1].ID, items[2].ID); d1 != d2 {
					t.Fatalf("DistanceByID diverges: %v vs %v", d1, d2)
				}
			} else {
				t.Fatal("loaded index lost ids")
			}
		})
	}
}

// TestLoadIndexStaleAndCorrupt classifies every failure mode: a changed
// corpus, a changed embedder, wrong options file, truncation, and bit
// flips must surface the right sentinel (all of which mean "rebuild").
func TestLoadIndexStaleAndCorrupt(t *testing.T) {
	em := Default()
	items := randomCorpus(200, 72)
	opts := IndexOptions{Quantize: true, ANN: true}
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.dpix")
	built := NewIndexWith(em, opts)
	built.AddAll(items)
	if err := SaveIndex(path, built, em, items); err != nil {
		t.Fatal(err)
	}

	// Changed corpus: one text edited.
	changed := append([]Item(nil), items...)
	changed[17].Text += " drifted"
	if _, err := LoadIndex(path, em, changed, opts); !errors.Is(err, ErrStaleIndex) {
		t.Fatalf("changed corpus: err = %v, want ErrStaleIndex", err)
	}
	// Changed embedder configuration.
	if _, err := LoadIndex(path, NewNGramEmbedder(DefaultDim, 4), items, opts); !errors.Is(err, ErrStaleIndex) {
		t.Fatalf("changed embedder: err = %v, want ErrStaleIndex", err)
	}
	// Missing file.
	if _, err := LoadIndex(filepath.Join(dir, "absent.dpix"), em, items, opts); !errors.Is(err, ErrNotIndexFile) {
		t.Fatalf("missing file: err = %v, want ErrNotIndexFile", err)
	}
	// Foreign file.
	foreign := filepath.Join(dir, "foreign.bin")
	if err := os.WriteFile(foreign, []byte("not an index at all, definitely not 68 bytes of DPIX"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(foreign, em, items, opts); !errors.Is(err, ErrNotIndexFile) {
		t.Fatalf("foreign file: err = %v, want ErrNotIndexFile", err)
	}

	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation anywhere fails the checksum.
	for _, cut := range []int{len(full) - 1, len(full) / 2, indexHeaderLen + 5} {
		p := filepath.Join(dir, fmt.Sprintf("trunc-%d.dpix", cut))
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadIndex(p, em, items, opts); err == nil {
			t.Fatalf("truncated at %d loaded successfully", cut)
		}
	}
	// Bit flips anywhere fail the checksum.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		mut := append([]byte(nil), full...)
		mut[rng.Intn(len(mut))] ^= 0x10
		p := filepath.Join(dir, fmt.Sprintf("flip-%d.dpix", trial))
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadIndex(p, em, items, opts); err == nil {
			t.Fatalf("bit-flipped file (trial %d) loaded successfully", trial)
		}
	}
}

// TestLoadIndexTierTransferRules mirrors the WithOptions contract: the
// quantized tier transfers to any requested options; partitions only
// when Partitions and Seed match the saved build.
func TestLoadIndexTierTransferRules(t *testing.T) {
	em := Default()
	items := randomCorpus(200, 73)
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.dpix")
	built := NewIndexWith(em, IndexOptions{ANN: true, Quantize: true, Partitions: 8, Seed: 2})
	built.AddAll(items)
	if err := SaveIndex(path, built, em, items); err != nil {
		t.Fatal(err)
	}

	// Same Partitions/Seed, different query knobs: both tiers transfer.
	same, err := LoadIndex(path, em, items, IndexOptions{ANN: true, Quantize: true, Partitions: 8, Seed: 2, Probes: 6})
	if err != nil {
		t.Fatal(err)
	}
	if same.part.Load() == nil || same.quant.Load() == nil {
		t.Fatal("matching partition config did not transfer both tiers")
	}
	// Different partition count: quant transfers, partitions rebuilt lazily.
	diff, err := LoadIndex(path, em, items, IndexOptions{ANN: true, Quantize: true, Partitions: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if diff.part.Load() != nil {
		t.Fatal("mismatched Partitions must not adopt saved partitions")
	}
	if diff.quant.Load() == nil {
		t.Fatal("quantized tier must transfer regardless of partition config")
	}
	// And the rebuilt-partition index still answers identically to a
	// fresh build under the same options.
	fresh := NewIndexWith(em, IndexOptions{ANN: true, Quantize: true, Partitions: 4, Seed: 2})
	fresh.AddAll(items)
	assertIdenticalTopK(t, "repartitioned", fresh, diff, 8)
}

// TestSaveCarriesCodeArrayPastCrossover: an index the flat path will scan
// through its code array is saved with it whatever its options say, so a
// warm load answers its first query from the file's section instead of
// encoding the store again; below the crossover nothing extra is written.
// A file without the section — what the previous format writer produced
// for these options — still loads, and builds the array on first use.
func TestSaveCarriesCodeArrayPastCrossover(t *testing.T) {
	em := Default()
	items := randomCorpus(certMinPoints+20, 76)
	dir := t.TempDir()

	built := NewIndex(em)
	built.AddAll(items)
	path := filepath.Join(dir, "big.dpix")
	if err := SaveIndex(path, built, em, items); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(path, em, items, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qz := loaded.quant.Load()
	if qz == nil {
		t.Fatal("warm load past the crossover did not restore the code array")
	}
	if want := built.quant.Load().resid; qz.resid != want || !(qz.resid > 0) {
		t.Fatalf("loaded residual %v, built %v", qz.resid, want)
	}
	assertIdenticalTopK(t, "past crossover", built, loaded, 5)
	if loaded.quant.Load() != qz {
		t.Fatal("the first queries rebuilt the code array")
	}
	if c, _ := loaded.ScanStats(); c == 0 {
		t.Fatal("no query on the loaded index was certified")
	}

	small := NewIndex(em)
	small.AddAll(items[:certMinPoints-1])
	path = filepath.Join(dir, "small.dpix")
	if err := SaveIndex(path, small, em, items[:certMinPoints-1]); err != nil {
		t.Fatal(err)
	}
	if loaded, err = LoadIndex(path, em, items[:certMinPoints-1], IndexOptions{}); err != nil || loaded.quant.Load() != nil {
		t.Fatalf("below the crossover: err %v, code array present %v", err, loaded.quant.Load() != nil)
	}

	// The same index as a file with no code section.
	var image bytes.Buffer
	cw := &crcWriter{w: bufio.NewWriter(&image)}
	key := fileKeyOf(em, items, IndexOptions{})
	writeIndexStream(cw, built, key, nil, nil)
	cw.u32(cw.crc)
	if err := cw.w.Flush(); err != nil || cw.err != nil {
		t.Fatal(err, cw.err)
	}
	old, err := decodeIndex(image.Bytes(), "no-section", em, key)
	if err != nil {
		t.Fatal(err)
	}
	if old.quant.Load() != nil {
		t.Fatal("a file without the section produced a code array")
	}
	assertIdenticalTopK(t, "no section", built, old, 5)
	if old.quant.Load() == nil {
		t.Fatal("the flat path did not build the code array lazily")
	}
}

// TestRegistryWarmLoad drives the state-dir flow end to end: first
// registry builds and saves, a second registry (a new process) warm
// loads, and both serve byte-identical results.
func TestRegistryWarmLoad(t *testing.T) {
	em := Default()
	items := randomCorpus(250, 74)
	opts := IndexOptions{Quantize: true}
	dir := t.TempDir()

	cold := NewRegistry()
	cold.SetStateDir(dir)
	ix1 := cold.IndexWith(em, items, opts)
	if builds, _ := cold.Stats(); builds != 1 {
		t.Fatalf("cold registry builds = %d, want 1", builds)
	}
	if warm, saves := cold.PersistStats(); warm != 0 || saves != 1 {
		t.Fatalf("cold PersistStats = (%d, %d), want (0, 1)", warm, saves)
	}
	if _, err := os.Stat(filepath.Join(dir, IndexFileName(em, items, opts))); err != nil {
		t.Fatalf("state file not written: %v", err)
	}

	warm := NewRegistry()
	warm.SetStateDir(dir)
	ix2 := warm.IndexWith(em, items, opts)
	if builds, _ := warm.Stats(); builds != 0 {
		t.Fatalf("warm registry rebuilt the index (builds = %d)", builds)
	}
	if loads, _ := warm.PersistStats(); loads != 1 {
		t.Fatalf("warm PersistStats loads = %d, want 1", loads)
	}
	assertIdenticalTopK(t, "registry warm", ix1, ix2, 10)

	// A changed corpus falls back to a rebuild and overwrites the file.
	changed := append([]Item(nil), items...)
	changed[0].Text = "entirely different record"
	reb := NewRegistry()
	reb.SetStateDir(dir)
	reb.IndexWith(em, changed, opts)
	if builds, _ := reb.Stats(); builds != 1 {
		t.Fatalf("changed corpus should rebuild, builds = %d", builds)
	}
	if _, saves := reb.PersistStats(); saves != 1 {
		t.Fatalf("changed corpus should re-save, saves = %d", saves)
	}

	// A file written before the registry moved its in-memory key to
	// SHA-256 (testdata, saved by that commit's Registry over this corpus
	// and these options) still warm-loads, through either entrance: the
	// file's name and header stayed on the FNV key.
	const fixture = "index-2c74558a7621fe0b.dpix"
	old := []Item{
		{ID: "r0", Text: "golden dragon chinese restaurant"},
		{ID: "r1", Text: "quantum lattice survey methods"},
		{ID: "r2", Text: "indexing moving objects"},
		{ID: "r3", Text: "golden dragon chinese restaurant x"},
		{ID: "r4", Text: "citation entity survey"},
	}
	if name := IndexFileName(em, old, opts); name != fixture {
		t.Fatalf("IndexFileName = %s, want %s as before", name, fixture)
	}
	image, err := os.ReadFile(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	oldDir := t.TempDir() // a failed load would rebuild and overwrite: keep that out of testdata
	if err := os.WriteFile(filepath.Join(oldDir, fixture), image, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, index := range map[string]func(*Registry) *Index{
		"IndexWith": func(r *Registry) *Index { return r.IndexWith(em, old, opts) },
		"IndexFrom": func(r *Registry) *Index {
			return r.IndexFrom(em, SourceKey{1}, opts, func() []Item { return old })
		},
	} {
		reg := NewRegistry()
		reg.SetStateDir(oldDir)
		ix := index(reg)
		builds, _ := reg.Stats()
		if loads, saves := reg.PersistStats(); builds != 0 || loads != 1 || saves != 0 {
			t.Fatalf("%s over the old file: %d builds, %d warm loads, %d saves; want one warm load", name, builds, loads, saves)
		}
		if nn := ix.Nearest(old[3].Text, 2); len(nn) != 2 || nn[0].ID != "r3" || nn[1].ID != "r0" {
			t.Fatalf("%s: loaded index answers %v", name, nn)
		}
	}
}

// FuzzLoadIndex throws arbitrary bytes at the index decoder: it must
// reject or load without panicking, never fabricating an index that
// passes the checksum by luck into an out-of-bounds section table.
func FuzzLoadIndex(f *testing.F) {
	em := Default()
	items := randomCorpus(80, 75)
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.dpix")
	ix := NewIndexWith(em, IndexOptions{ANN: true, Quantize: true})
	ix.AddAll(items)
	if err := SaveIndex(seedPath, ix, em, items); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:indexHeaderLen])
	f.Add([]byte("DPIX\x01\x00\x00\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.dpix")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		loaded, err := LoadIndex(p, em, items, IndexOptions{ANN: true, Quantize: true})
		if err != nil {
			return
		}
		// A successful load must be queryable without panicking.
		loaded.Nearest("golden dragon", 5)
		loaded.NearestByID(items[0].ID, 3)
	})
}
