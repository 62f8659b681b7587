package embed

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
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

// assertIdenticalRegionQueries pins two indexes to the same Blocks and
// Within answers — the two queries that read the partition structure.
func assertIdenticalRegionQueries(t *testing.T, label string, a, b *Index) {
	t.Helper()
	if got, want := b.Blocks(0.8), a.Blocks(0.8); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Blocks diverges:\n got %v\nwant %v", label, got, want)
	}
	for qi, q := range queryTexts(4) {
		if got, want := b.Within(q, 1.1), a.Within(q, 1.1); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: query %d Within diverges:\n got %v\nwant %v", label, qi, got, want)
		}
	}
}

// sealedImage is the file writeIndexStream and the CRC trailer make of an
// index and the given tier structures, built in memory so a test can hand
// the writer structures SaveIndex never would.
func sealedImage(t testing.TB, ix *Index, key fileKey, pt *partitions, qz *quantized) []byte {
	t.Helper()
	var image bytes.Buffer
	cw := &crcWriter{w: bufio.NewWriter(&image)}
	writeIndexStream(cw, ix, key, pt, qz)
	cw.u32(cw.crc)
	if err := cw.w.Flush(); err != nil || cw.err != nil {
		t.Fatal(err, cw.err)
	}
	return image.Bytes()
}

// TestIndexPersistRoundTrip saves and reloads an index with no tier
// structure built and with both, and pins the warm-loaded index's answers
// byte-identical to the freshly built one's — the ISSUE 8 acceptance
// criterion.
func TestIndexPersistRoundTrip(t *testing.T) {
	em := Default()
	items := randomCorpus(300, 71)
	for _, name := range []string{"exact", "tiers"} {
		tiers := name == "tiers"
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ix.dpix")
			built := NewIndex(em)
			built.AddAll(items)
			if tiers {
				built.ensurePartitions()
				built.ensureQuantized()
			}
			if err := SaveIndex(path, built, em, items); err != nil {
				t.Fatalf("SaveIndex: %v", err)
			}
			loaded, err := LoadIndex(path, em, items, IndexOptions{})
			if err != nil {
				t.Fatalf("LoadIndex: %v", err)
			}
			if loaded.Len() != built.Len() {
				t.Fatalf("loaded %d items, want %d", loaded.Len(), built.Len())
			}
			// What was built at save time is present without a rebuild, and
			// nothing else is.
			if got := loaded.part.Load() != nil; got != tiers {
				t.Fatalf("warm load restored partitions: %v, want %v", got, tiers)
			}
			if got := loaded.quant.Load() != nil; got != tiers {
				t.Fatalf("warm load restored the code array: %v, want %v", got, tiers)
			}
			assertIdenticalTopK(t, name, built, loaded, 10)
			assertIdenticalRegionQueries(t, name, built, loaded)
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
// corpus, a changed embedder, truncation, bit flips, and a checksum-valid
// file whose partition lists do not name the index's rows must surface the
// right sentinel (all of which mean "rebuild").
func TestLoadIndexStaleAndCorrupt(t *testing.T) {
	em := Default()
	items := randomCorpus(200, 72)
	opts := IndexOptions{}
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.dpix")
	built := NewIndex(em)
	built.AddAll(items)
	pt, qz := built.ensurePartitions(), built.ensureQuantized() // every section in the file
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

	// Member lists are indexes into the store: Within and Blocks slice it by
	// them, so an entry that names no row — or primary lists that do not
	// name each row exactly once — must not get past the load.
	key := fileKeyOf(em, items, opts)
	if _, err := decodeIndex(sealedImage(t, built, key, pt, qz), "intact", em, key); err != nil {
		t.Fatalf("intact image: %v", err)
	}
	for name, corrupt := range badEntryPartitions(pt, len(items)) {
		p := filepath.Join(dir, "bad-entry.dpix")
		if err := os.WriteFile(p, sealedImage(t, built, key, corrupt, qz), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadIndex(p, em, items, opts); !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("%s: err = %v, want ErrCorruptIndex", name, err)
		}
	}
}

// badEntryPartitions returns copies of pt over n rows, each with one member
// list entry changed to something the loader has to refuse.
func badEntryPartitions(pt *partitions, n int) map[string]*partitions {
	edit := func(secondary bool, mutate func(list []int32)) *partitions {
		c := *pt
		lists := &c.members
		if secondary {
			lists = &c.secondary
		}
		*lists = slices.Clone(*lists)
		i := slices.IndexFunc(*lists, func(l []int32) bool { return len(l) >= 2 })
		(*lists)[i] = slices.Clone((*lists)[i])
		mutate((*lists)[i])
		return &c
	}
	return map[string]*partitions{
		"member past the last row":    edit(false, func(l []int32) { l[0] = int32(n) }),
		"negative member":             edit(false, func(l []int32) { l[1] = -1 }),
		"row listed twice, one never": edit(false, func(l []int32) { l[1] = l[0] }),
		"secondary past the last row": edit(true, func(l []int32) { l[0] = int32(n) }),
		"negative secondary":          edit(true, func(l []int32) { l[0] = -7 }),
	}
}

// TestLoadIndexTierTransferRules: the saved code array transfers to any
// requested options; saved partitions only when Partitions and Seed match
// the saved build.
func TestLoadIndexTierTransferRules(t *testing.T) {
	em := Default()
	items := randomCorpus(200, 73)
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.dpix")
	built := NewIndexWith(em, IndexOptions{Partitions: 8, Seed: 2})
	built.AddAll(items)
	built.ensurePartitions()
	built.ensureQuantized()
	if err := SaveIndex(path, built, em, items); err != nil {
		t.Fatal(err)
	}

	same, err := LoadIndex(path, em, items, IndexOptions{Partitions: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if same.part.Load() == nil || same.quant.Load() == nil {
		t.Fatal("matching partition config did not transfer both tiers")
	}
	// Different partition count: codes transfer, partitions rebuilt lazily.
	diff, err := LoadIndex(path, em, items, IndexOptions{Partitions: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if diff.part.Load() != nil {
		t.Fatal("mismatched Partitions must not adopt saved partitions")
	}
	if diff.quant.Load() == nil {
		t.Fatal("the code array must transfer regardless of partition config")
	}
	// And the rebuilt-partition index still answers identically to a
	// fresh build under the same options.
	fresh := NewIndexWith(em, IndexOptions{Partitions: 4, Seed: 2})
	fresh.AddAll(items)
	assertIdenticalTopK(t, "repartitioned", fresh, diff, 8)
	assertIdenticalRegionQueries(t, "repartitioned", fresh, diff)
	if pt := diff.part.Load(); pt == nil || pt.count() != 4 {
		t.Fatal("the repartitioned index did not build its own four partitions")
	}
}

// TestSaveCarriesCodeArrayPastCrossover: an index that will be scanned
// through its code array is saved with it, so a warm load answers its first
// query from the file's section instead of encoding the store again; below
// the crossover nothing extra is written. A file without the section — what
// the format's first writer produced at default options — still loads, and
// builds the array on first use.
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
	key := fileKeyOf(em, items, IndexOptions{})
	old, err := decodeIndex(sealedImage(t, built, key, nil, nil), "no-section", em, key)
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
	opts := IndexOptions{}
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

	// A file written while IndexOptions still had its ANN and int8 fields
	// (testdata, saved by that commit's Registry over this corpus with
	// default options) still warm-loads, through either entrance: the
	// file's name and header carry what those fields held then.
	const fixture = "index-ef3c43f5907cc8c9.dpix"
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
			ix, err := r.IndexFrom(em, SourceKey{1}, opts, func() ([]Item, error) { return old, nil })
			if err != nil {
				t.Fatal(err)
			}
			return ix
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

// warmChildDir names the state dir for TestWarmLoadAcrossProcesses' child
// process; the test binary run with it set is the child.
const warmChildDir = "EMBED_TEST_WARM_CHILD_DIR"

// TestWarmLoadAcrossProcesses is the state-dir flow between two processes:
// a child builds an index past the crossover through a Registry and exits;
// this process's fresh Registry must find the file — one warm load, no
// build — with the code array in it, and answer like a cold build.
func TestWarmLoadAcrossProcesses(t *testing.T) {
	em := Default()
	items := simTexts(t, certMinPoints+30)
	if dir := os.Getenv(warmChildDir); dir != "" {
		reg := NewRegistry()
		reg.SetStateDir(dir)
		reg.Index(em, items)
		if _, saves := reg.PersistStats(); saves != 1 {
			t.Fatalf("child saved %d index files, want 1", saves)
		}
		return
	}
	dir := t.TempDir()
	child := exec.Command(os.Args[0], "-test.run=^TestWarmLoadAcrossProcesses$")
	child.Env = append(os.Environ(), warmChildDir+"="+dir)
	if out, err := child.CombinedOutput(); err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}

	reg := NewRegistry()
	reg.SetStateDir(dir)
	warm := reg.Index(em, items)
	builds, _ := reg.Stats()
	if loads, saves := reg.PersistStats(); builds != 0 || loads != 1 || saves != 0 {
		t.Fatalf("over the child's file: %d builds, %d warm loads, %d saves; want one warm load", builds, loads, saves)
	}
	qz := warm.quant.Load()
	if qz == nil {
		t.Fatal("the child's file carried no code array")
	}
	cold := NewIndex(em)
	cold.AddAll(items)
	assertIdenticalTopK(t, "across processes", cold, warm, 5)
	assertIdenticalRegionQueries(t, "across processes", cold, warm)
	for _, it := range items[:8] {
		if got, want := warm.NearestOther(it.Text, it.ID, 5), cold.NearestOther(it.Text, it.ID, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("NearestOther(%s) diverges:\n got %v\nwant %v", it.ID, got, want)
		}
	}
	if warm.quant.Load() != qz {
		t.Fatal("the queries rebuilt the loaded code array")
	}
	if c, _ := reg.ScanStats(); c == 0 {
		t.Fatal("no query on the loaded index was certified")
	}
}

// FuzzLoadIndex throws arbitrary bytes at the index decoder: it must
// reject or load without panicking, and what it loads must answer every
// kind of query without panicking. The CRC-32C trailer is re-sealed over
// each mutated body — a mutation would otherwise die at the checksum and
// never reach the section decoder.
func FuzzLoadIndex(f *testing.F) {
	em := Default()
	items := randomCorpus(80, 75)
	ix := NewIndex(em)
	ix.AddAll(items)
	pt, qz := ix.ensurePartitions(), ix.ensureQuantized()
	key := fileKeyOf(em, items, IndexOptions{})
	valid := sealedImage(f, ix, key, pt, qz)
	f.Add(valid)
	f.Add(valid[:indexHeaderLen])
	f.Add([]byte("DPIX\x01\x00\x00\x00"))
	f.Add([]byte{})
	f.Add(sealedImage(f, ix, key, badEntryPartitions(pt, len(items))["member past the last row"], qz))

	f.Fuzz(func(t *testing.T, data []byte) {
		image := append([]byte(nil), data...)
		if body := len(image) - 4; body >= 0 {
			binary.LittleEndian.PutUint32(image[body:], crc32.Checksum(image[:body], indexCRCTable))
		}
		loaded, err := decodeIndex(image, "fuzz", em, key)
		if err != nil {
			return
		}
		loaded.Nearest("golden dragon", 5)
		loaded.NearestByID(items[0].ID, 3)
		loaded.Blocks(0.8)
		loaded.Within("golden dragon", 1.1)
	})
}
