package server

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"math"
	"sync"
	"sync/atomic"
	"unicode/utf8"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/embed"
)

// Request decoding with table interning. A tenant that imputes against a
// 4000-record train table re-sends the same ~1 MB of JSON with every job;
// reflecting it into []dataset.Record again each time was a third of such
// a job's CPU. decodeSubmit delimits each member of "tables" in the body,
// keys its bytes by SHA-256, and decodes it only when the interner holds
// no table with those bytes — in one pass straight into the interned
// layout when the table has the canonical shape, with encoding/json when
// it has not; every later job gets the same decoded slice. Sharing is sound because no
// pipeline stage writes a record of its input — each clones first — and
// a tenant only ever gets back content it sent itself: the key is a
// collision-resistant hash of the exact bytes.
//
// Delimiting and hashing a repeated 1 MB table still took ~4 ms a job, so
// the interner also keeps each table's JSON and indexes it by its first
// tablePrefixLen bytes. Where a table member's value starts with an
// indexed prefix and the body then holds exactly that JSON, the scanner
// jumps past it and the job takes the interned records: one memcmp
// instead of a scan and a hash. The skip is exact because where a JSON
// value ends is decided by its own bytes — the scanner stopped at the end
// of those very bytes when it first delimited them — and byte equality is
// stronger than the hash match it replaces.

// tableInternBytes bounds the interner by the bytes it keeps beside each
// decoded table: the table's JSON, and its records as a reply renders
// them once a reply has reused one (reply.go) — bytes rather than
// entries, because tables range from a 10 KB source to a multi-megabyte
// train table. Four maximal bodies: what the default four running jobs
// may pin anyway, and room for hundreds of ordinary tables. Decoded
// records take about six times their JSON. A rendering takes about as
// many bytes as the JSON and displaces JSON of other tables under the
// bound, so the worst case is a bound of JSON with nothing rendered: the
// interner's heap stays under ~230 MB (32 MB of JSON, ~192 MB decoded).
const tableInternBytes = 4 * maxBodyBytes

// maxTableDepth is the nesting the fast path follows inside one table;
// records are three deep. Anything deeper takes the whole-body path,
// which keeps encoding/json's own depth limit the only one that decides.
const maxTableDepth = 32

// tablePrefixLen is how much of a table's JSON indexes it for
// recognition. Shorter tables are not indexed: they are cheap to scan.
const tablePrefixLen = 64

type tableKey [sha256.Size]byte

type tablePrefix [tablePrefixLen]byte

// internedTable is immutable once interned, but for out and held: readers
// use it without the interner's lock.
type internedTable struct {
	key     tableKey
	records []dataset.Record
	raw     []byte // the table's JSON, a copy
	// fields backs every record's Fields: record i's are
	// fields[starts[i]:starts[i+1]], capacity clipped. A reply recognises
	// a record passed through unchanged by where its Fields starts
	// (reply.go). Both are empty for a table too large to keep.
	fields []dataset.Field
	starts []int32
	// out is the records as a reply writes them, set the first time a
	// reply reuses one of them (tableInterner.rendered).
	out atomic.Pointer[renderedTable]
	// held is what the table counts against the bound while interned:
	// len(raw), plus out's size once out is counted. Guarded by the
	// interner's mu.
	held int64
}

// newInternedTable keeps a copy of raw and moves the records' fields into
// one backing array.
func newInternedTable(key tableKey, raw []byte, records []dataset.Record) *internedTable {
	n := 0
	for _, r := range records {
		n += len(r.Fields)
	}
	t := &internedTable{key: key, records: records, raw: bytes.Clone(raw),
		fields: make([]dataset.Field, 0, n), starts: make([]int32, 1, len(records)+1), held: int64(len(raw))}
	for i := range records {
		start := len(t.fields)
		t.fields = append(t.fields, records[i].Fields...)
		if records[i].Fields != nil {
			records[i].Fields = t.fields[start:len(t.fields):len(t.fields)]
		}
		t.starts = append(t.starts, int32(len(t.fields)))
	}
	return t
}

// decodeTable decodes a table of the canonical shape,
// [{"ID":…,"Fields":[{"Name":…,"Value":…},…]},…], straight into the
// interned layout, without reflection: one copy of raw is the table's JSON
// and backs every ID, Name and Value, and one array each holds the fields
// and the records. It declines (ok false) anything else — a key spelt
// otherwise or twice, a value that is not a string (null included), an
// escape, invalid UTF-8, a control character — and its caller falls back
// to encoding/json. Where it accepts, it decodes what json.Unmarshal into
// []dataset.Record does (FuzzDecodeTable).
//
// Because the strings alias raw, any one of them kept keeps all of raw,
// interned or not, outside the interner's bound. What holds a record's
// string past its job copies it (core's impute index copies the IDs it
// keeps).
func decodeTable(key tableKey, raw []byte) (*internedTable, bool) {
	records, fields := countTable(raw)
	sc := jsonScanner{b: bytes.Clone(raw)}
	t := &internedTable{key: key, records: make([]dataset.Record, 0, records), raw: sc.b,
		fields: make([]dataset.Field, 0, fields), starts: make([]int32, 1, records+1), held: int64(len(raw))}
	ok := sc.elements(func() bool { return len(t.records) < cap(t.records) && sc.record(t) })
	sc.space()
	if !ok || sc.i != len(sc.b) {
		return nil, false
	}
	return t, true
}

// countTable counts the objects one and three levels deep in b, outside
// strings: a canonical table's records and fields.
func countTable(b []byte) (records, fields int) {
	depth := 0
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{':
			switch depth {
			case 1:
				records++
			case 3:
				fields++
			}
			depth++
		case '[':
			depth++
		case '}', ']':
			depth--
		}
	}
	return records, fields
}

// record decodes one record object onto the end of t.
func (sc *jsonScanner) record(t *internedTable) bool {
	var r dataset.Record
	var id, fields bool
	ok := sc.members(func(name []byte, plain bool) bool {
		var ok bool
		switch {
		case !plain:
		case string(name) == "ID" && !id:
			id = true
			r.ID, ok = sc.text()
		case string(name) == "Fields" && !fields:
			fields = true
			r.Fields, ok = sc.fieldList(t)
		}
		return ok
	})
	t.records = append(t.records, r)
	t.starts = append(t.starts, int32(len(t.fields)))
	return ok
}

// fieldList decodes one record's array of fields onto the end of t.fields
// and returns them, capacity clipped.
func (sc *jsonScanner) fieldList(t *internedTable) ([]dataset.Field, bool) {
	start := len(t.fields)
	ok := sc.elements(func() bool {
		var f dataset.Field
		var name, value bool
		if len(t.fields) == cap(t.fields) || !sc.members(func(key []byte, plain bool) bool {
			var ok bool
			switch {
			case !plain:
			case string(key) == "Name" && !name:
				name = true
				f.Name, ok = sc.text()
			case string(key) == "Value" && !value:
				value = true
				f.Value, ok = sc.text()
			}
			return ok
		}) {
			return false
		}
		t.fields = append(t.fields, f)
		return true
	})
	if !ok {
		return nil, false
	}
	return t.fields[start:len(t.fields):len(t.fields)], true
}

// text consumes a string after optional whitespace and returns its value:
// the bytes between its quotes, aliased, so the scanner's bytes must never
// change. It fails on an escape, a control character or invalid UTF-8.
func (sc *jsonScanner) text() (string, bool) {
	inner, plain, ok := sc.str()
	switch {
	case !ok:
		return "", false
	case plain:
		return aliased(inner), true
	case bytes.IndexByte(inner, '\\') >= 0:
		return "", false
	}
	return aliased(inner), validText(inner)
}

// validText reports whether b may stand in a JSON string as it is: valid
// UTF-8 with no control character.
func validText(b []byte) bool {
	for _, c := range b {
		if c < 0x20 {
			return false
		}
	}
	return utf8.Valid(b)
}

// aliased is b as a string without a copy; b must never change again.
func aliased(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// tableInterner is a byte-bounded LRU of decoded tables, safe for
// concurrent use.
type tableInterner struct {
	mu      sync.Mutex
	bound   int64
	held    int64                      // bytes of the raw JSON kept
	byKey   map[tableKey]*list.Element // of *internedTable
	recency *list.List                 // front = most recently used
	// byPrefix maps a table's first tablePrefixLen bytes to the most
	// recently interned table that starts with them.
	byPrefix map[tablePrefix]*list.Element

	// seen and shared count the table JSON delimited and the part of it
	// answered from the interner (Stats.TableBytes, TableBytesShared).
	seen, shared int64
}

func newTableInterner() *tableInterner {
	return &tableInterner{
		bound:    tableInternBytes,
		byKey:    make(map[tableKey]*list.Element),
		recency:  list.New(),
		byPrefix: make(map[tablePrefix]*list.Element),
	}
}

// table returns the interned form of one table's JSON, decoding on first
// sight; warm reports that the interner already held it. raw is a value
// the scanner delimited (an array within maxTableDepth); it is copied,
// not retained. A table larger than the bound is decoded and not kept.
func (in *tableInterner) table(raw []byte) (t *internedTable, warm bool, err error) {
	key := tableKey(sha256.Sum256(raw))
	n := int64(len(raw))
	in.mu.Lock()
	in.seen += n
	if el, ok := in.byKey[key]; ok {
		in.shared += n
		in.recency.MoveToFront(el)
		// Re-index a table whose prefix entry went with another table's
		// eviction.
		if p, ok := prefixOf(raw); ok && in.byPrefix[p] == nil {
			in.byPrefix[p] = el
		}
		in.mu.Unlock()
		return el.Value.(*internedTable), true, nil
	}
	in.mu.Unlock()

	t, ok := decodeTable(key, raw)
	if !ok {
		var records []dataset.Record
		if err := json.Unmarshal(raw, &records); err != nil {
			return nil, false, err
		}
		t = newInternedTable(key, raw, records)
	}
	if n > in.bound {
		return &internedTable{key: key, records: t.records}, false, nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if el, ok := in.byKey[key]; ok { // a concurrent first sight won
		return el.Value.(*internedTable), false, nil
	}
	el := in.recency.PushFront(t)
	in.byKey[key] = el
	if p, ok := prefixOf(raw); ok {
		in.byPrefix[p] = el
	}
	in.held += n
	in.evict()
	return t, false, nil
}

// evict drops least recently used tables until the bound holds. Callers
// hold in.mu.
func (in *tableInterner) evict() {
	for in.held > in.bound {
		oldest := in.recency.Back()
		t := in.recency.Remove(oldest).(*internedTable)
		delete(in.byKey, t.key)
		if p, ok := prefixOf(t.raw); ok && in.byPrefix[p] == oldest {
			delete(in.byPrefix, p)
		}
		in.held -= t.held
	}
}

// rendered returns t's records as a reply writes them, rendering them on
// first use. The first rendering published is the one every reply copies;
// it counts against the bound from then on if t is still interned, and
// one published after t's eviction is only the jobs'.
func (in *tableInterner) rendered(t *internedTable) *renderedTable {
	if out := t.out.Load(); out != nil {
		return out
	}
	out := renderTable(t)
	if !t.out.CompareAndSwap(nil, out) {
		return t.out.Load()
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if el, ok := in.byKey[t.key]; ok && el.Value.(*internedTable) == t {
		t.held += out.size()
		in.held += out.size()
		in.evict()
	}
	return out
}

// known returns the interned table whose JSON b starts with, or nil. The
// comparison runs outside the lock: an interned table's JSON never
// changes.
func (in *tableInterner) known(b []byte) *list.Element {
	p, ok := prefixOf(b)
	if !ok {
		return nil
	}
	in.mu.Lock()
	el := in.byPrefix[p]
	in.mu.Unlock()
	if el == nil || !bytes.HasPrefix(b, el.Value.(*internedTable).raw) {
		return nil
	}
	return el
}

// prefixOf is the first tablePrefixLen bytes of b; ok is false when b is
// shorter.
func prefixOf(b []byte) (p tablePrefix, ok bool) {
	if len(b) < tablePrefixLen {
		return p, false
	}
	return tablePrefix(b), true
}

// hit counts a table known() recognised as answered from the interner.
func (in *tableInterner) hit(el *list.Element) *internedTable {
	t := el.Value.(*internedTable)
	n := int64(len(t.raw))
	in.mu.Lock()
	in.seen += n
	in.shared += n
	in.recency.MoveToFront(el) // a no-op if evicted since
	in.mu.Unlock()
	return t
}

func (in *tableInterner) counts() (seen, shared int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seen, in.shared
}

// jobTables is what the interning path knows of a submission's tables.
type jobTables struct {
	// keys are each table's interner key, which the job's impute stages
	// file their k-NN indexes under (pipeline.ExecConfig.TableKeys).
	keys map[string]embed.SourceKey
	// warm are the tables the interner already held, whose records the
	// job's reply copies pre-rendered (reply.go).
	warm []*internedTable
}

// decodeSubmit decodes a submission body. Bodies of the canonical shape
// take the interning path; every other body, and every body that path
// stumbles on, goes through one json.Decoder exactly as before, so the
// accepted set, the decoded values and the error texts are that
// decoder's. Only the interning path knows the tables as jobTables.
func (s *Server) decodeSubmit(body []byte) (SubmitRequest, jobTables, error) {
	if req, tables, ok := s.decodeInterned(body); ok {
		return req, tables, nil
	}
	var req SubmitRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, jobTables{}, err
}

// decodeInterned is the interning path: the envelope (everything but the
// value of "tables") is decoded by encoding/json with null standing in
// for the tables, and each table by the interner. It reports false when
// the body is not one JSON object with exactly one plainly spelt "tables"
// member holding an object of uniquely, plainly named arrays and nothing
// but whitespace after it — or when any piece fails to decode.
func (s *Server) decodeInterned(body []byte) (SubmitRequest, jobTables, bool) {
	var req SubmitRequest
	start, end, members, ok := scanSubmit(body, s.tables)
	if !ok {
		return req, jobTables{}, false
	}
	envelope := make([]byte, 0, start+len("null")+len(body)-end)
	envelope = append(append(append(envelope, body[:start]...), "null"...), body[end:]...)
	if err := json.Unmarshal(envelope, &req); err != nil {
		return req, jobTables{}, false
	}
	req.Tables = make(map[string][]dataset.Record, len(members))
	tables := jobTables{keys: make(map[string]embed.SourceKey, len(members)), warm: make([]*internedTable, 0, len(members))}
	for _, m := range members {
		name := string(m.name)
		if _, dup := req.Tables[name]; dup {
			return req, jobTables{}, false
		}
		var t *internedTable
		warm := m.known != nil
		if warm {
			t = s.tables.hit(m.known)
		} else {
			var err error
			if t, warm, err = s.tables.table(m.value); err != nil {
				return req, jobTables{}, false
			}
		}
		if warm {
			tables.warm = append(tables.warm, t)
		}
		req.Tables[name], tables.keys[name] = t.records, embed.SourceKey(t.key)
	}
	return req, tables, true
}

// jsonScanner walks JSON text far enough to delimit values: it knows
// strings, brackets and whitespace, and leaves every value's content to
// encoding/json.
type jsonScanner struct {
	b []byte
	i int
}

func (sc *jsonScanner) space() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\r', '\n':
			sc.i++
		default:
			return
		}
	}
}

// eat consumes c after optional whitespace.
func (sc *jsonScanner) eat(c byte) bool {
	sc.space()
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// str consumes a string after optional whitespace and returns the bytes
// between its quotes. plain reports that those bytes are the string's
// value as they stand: ASCII, no escape, no control character.
func (sc *jsonScanner) str() (inner []byte, plain, ok bool) {
	if !sc.eat('"') {
		return nil, false, false
	}
	start := sc.i
	plain = true
	for sc.i < len(sc.b) {
		switch c := sc.b[sc.i]; {
		case c == '"':
			sc.i++
			return sc.b[start : sc.i-1], plain, true
		case c == '\\':
			plain = false
			sc.i += 2
		default:
			if c < 0x20 || c >= 0x80 {
				plain = false
			}
			sc.i++
		}
	}
	return nil, false, false
}

// value consumes one value after optional whitespace, to at most
// maxDepth levels of nesting, and returns its bytes. Scalars end at the
// next delimiter; whether the bytes are a valid value is for the decoder.
func (sc *jsonScanner) value(maxDepth int) ([]byte, bool) {
	sc.space()
	start, depth := sc.i, 0
	for sc.i < len(sc.b) {
		switch c := sc.b[sc.i]; c {
		case '"':
			if _, _, ok := sc.str(); !ok {
				return nil, false
			}
			if depth == 0 {
				return sc.b[start:sc.i], true
			}
			continue
		case '{', '[':
			if depth++; depth > maxDepth {
				return nil, false
			}
		case '}', ']':
			if depth == 0 {
				return sc.b[start:sc.i], sc.i > start
			}
			if depth--; depth == 0 {
				sc.i++
				return sc.b[start:sc.i], true
			}
		case ',', ' ', '\t', '\r', '\n':
			if depth == 0 {
				return sc.b[start:sc.i], sc.i > start
			}
		}
		sc.i++
	}
	return nil, false
}

// members walks the object at the scanner and consumes its closing brace.
// fn is called after each member's name and colon and must consume the
// value.
func (sc *jsonScanner) members(fn func(name []byte, plain bool) bool) bool {
	if !sc.eat('{') {
		return false
	}
	if sc.eat('}') {
		return true
	}
	for {
		name, plain, ok := sc.str()
		if !ok || !sc.eat(':') || !fn(name, plain) {
			return false
		}
		if sc.eat('}') {
			return true
		}
		if !sc.eat(',') {
			return false
		}
	}
}

// elements walks the array at the scanner and consumes its closing
// bracket. fn must consume each element.
func (sc *jsonScanner) elements(fn func() bool) bool {
	if !sc.eat('[') {
		return false
	}
	if sc.eat(']') {
		return true
	}
	for {
		if !fn() {
			return false
		}
		if sc.eat(']') {
			return true
		}
		if !sc.eat(',') {
			return false
		}
	}
}

// tableMember is one member of "tables"; known is the interned table
// whose JSON its value is, when the interner recognised it.
type tableMember struct {
	name, value []byte
	known       *list.Element
}

// scanSubmit delimits a submission body: body[start:end] is the value of
// its "tables" member and tables are that value's members. It refuses (ok
// false) a body that is not one object followed by whitespace only, one
// without "tables" (nothing to intern) or with two, a "tables" that is
// not an object of plainly named arrays, and any member name
// encoding/json could also match to the Tables field — it matches
// case-insensitively, folding a few non-ASCII letters too, so every name
// that is not plain ASCII is refused. A table value in recognises is
// skipped, not scanned.
func scanSubmit(body []byte, in *tableInterner) (start, end int, tables []tableMember, ok bool) {
	sc := jsonScanner{b: body}
	found := false
	ok = sc.members(func(name []byte, plain bool) bool {
		if !plain {
			return false
		}
		if string(name) != "tables" {
			// Outside "tables" the scanner only has to get past values
			// the decoder will check anyway, its depth limit included.
			_, ok := sc.value(math.MaxInt)
			return ok && !bytes.EqualFold(name, []byte("tables"))
		}
		if found {
			return false
		}
		found = true
		sc.space()
		start = sc.i
		ok := sc.members(func(name []byte, plain bool) bool {
			if !plain {
				return false
			}
			sc.space()
			if el := in.known(body[sc.i:]); el != nil {
				n := len(el.Value.(*internedTable).raw)
				tables = append(tables, tableMember{name, body[sc.i : sc.i+n], el})
				sc.i += n
				return true
			}
			value, ok := sc.value(maxTableDepth)
			if !ok || value[0] != '[' {
				return false
			}
			tables = append(tables, tableMember{name: name, value: value})
			return true
		})
		end = sc.i
		return ok
	})
	sc.space()
	return start, end, tables, ok && found && sc.i == len(body)
}
