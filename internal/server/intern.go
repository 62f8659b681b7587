package server

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"

	"repro/internal/dataset"
)

// Request decoding with table interning. A tenant that imputes against a
// 4000-record train table re-sends the same ~1 MB of JSON with every job;
// reflecting it into []dataset.Record again each time was a third of such
// a job's CPU. decodeSubmit delimits each member of "tables" in the body,
// keys its bytes by SHA-256, and decodes it (with encoding/json, as
// always) only when the interner holds no table with those bytes; every
// later job gets the same decoded slice. Sharing is sound because no
// pipeline stage writes a record of its input — each clones first — and
// a tenant only ever gets back content it sent itself: the key is a
// collision-resistant hash of the exact bytes.

// tableInternBytes bounds the interner by the bytes of table JSON whose
// decoded form it keeps — bytes rather than entries, because tables range
// from a 10 KB source to a multi-megabyte train table. Four maximal
// bodies: what the default four running jobs may pin anyway, and room for
// hundreds of ordinary tables. Decoded records take about six times their
// JSON, so the interner's heap stays under ~200 MB at worst.
const tableInternBytes = 4 * maxBodyBytes

// maxTableDepth is the nesting the fast path follows inside one table;
// records are three deep. Anything deeper takes the whole-body path,
// which keeps encoding/json's own depth limit the only one that decides.
const maxTableDepth = 32

type tableKey [sha256.Size]byte

type internedTable struct {
	key     tableKey
	records []dataset.Record
	bytes   int64
}

// tableInterner is a byte-bounded LRU of decoded tables, safe for
// concurrent use.
type tableInterner struct {
	mu      sync.Mutex
	bound   int64
	held    int64
	byKey   map[tableKey]*list.Element // of *internedTable
	recency *list.List                 // front = most recently used

	// seen and shared count the table JSON delimited and the part of it
	// answered from the interner (Stats.TableBytes, TableBytesShared).
	seen, shared int64
}

func newTableInterner() *tableInterner {
	return &tableInterner{bound: tableInternBytes, byKey: make(map[tableKey]*list.Element), recency: list.New()}
}

// table returns the decoded form of one table's JSON, decoding on first
// sight. raw is not retained.
func (in *tableInterner) table(raw []byte) ([]dataset.Record, error) {
	key := tableKey(sha256.Sum256(raw))
	n := int64(len(raw))
	in.mu.Lock()
	in.seen += n
	if el, ok := in.byKey[key]; ok {
		in.shared += n
		in.recency.MoveToFront(el)
		in.mu.Unlock()
		return el.Value.(*internedTable).records, nil
	}
	in.mu.Unlock()

	var records []dataset.Record
	if err := json.Unmarshal(raw, &records); err != nil {
		return nil, err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if el, ok := in.byKey[key]; ok { // a concurrent first sight won
		return el.Value.(*internedTable).records, nil
	}
	if n > in.bound {
		return records, nil
	}
	in.byKey[key] = in.recency.PushFront(&internedTable{key: key, records: records, bytes: n})
	in.held += n
	for in.held > in.bound {
		oldest := in.recency.Remove(in.recency.Back()).(*internedTable)
		delete(in.byKey, oldest.key)
		in.held -= oldest.bytes
	}
	return records, nil
}

func (in *tableInterner) counts() (seen, shared int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seen, in.shared
}

// decodeSubmit decodes a submission body. Bodies of the canonical shape
// take the interning path; every other body, and every body that path
// stumbles on, goes through one json.Decoder exactly as before, so the
// accepted set, the decoded values and the error texts are that
// decoder's.
func (s *Server) decodeSubmit(body []byte) (SubmitRequest, error) {
	if req, ok := s.decodeInterned(body); ok {
		return req, nil
	}
	var req SubmitRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// decodeInterned is the interning path: the envelope (everything but the
// value of "tables") is decoded by encoding/json with null standing in
// for the tables, and each table by the interner. It reports false when
// the body is not one JSON object with exactly one plainly spelt "tables"
// member holding an object of uniquely, plainly named arrays and nothing
// but whitespace after it — or when any piece fails to decode.
func (s *Server) decodeInterned(body []byte) (SubmitRequest, bool) {
	var req SubmitRequest
	start, end, members, ok := scanSubmit(body)
	if !ok {
		return req, false
	}
	envelope := io.MultiReader(bytes.NewReader(body[:start]), strings.NewReader("null"), bytes.NewReader(body[end:]))
	if err := json.NewDecoder(envelope).Decode(&req); err != nil {
		return req, false
	}
	req.Tables = make(map[string][]dataset.Record, len(members))
	for _, m := range members {
		name := string(m.name)
		if _, dup := req.Tables[name]; dup {
			return req, false
		}
		records, err := s.tables.table(m.value)
		if err != nil {
			return req, false
		}
		req.Tables[name] = records
	}
	return req, true
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

type tableMember struct{ name, value []byte }

// scanSubmit delimits a submission body: body[start:end] is the value of
// its "tables" member and tables are that value's members. It refuses (ok
// false) a body that is not one object followed by whitespace only, one
// without "tables" (nothing to intern) or with two, a "tables" that is
// not an object of plainly named arrays, and any member name
// encoding/json could also match to the Tables field — it matches
// case-insensitively, folding a few non-ASCII letters too, so every name
// that is not plain ASCII is refused.
func scanSubmit(body []byte) (start, end int, tables []tableMember, ok bool) {
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
			value, ok := sc.value(maxTableDepth)
			if !ok || !plain || value[0] != '[' {
				return false
			}
			tables = append(tables, tableMember{name, value})
			return true
		})
		end = sc.i
		return ok
	})
	sc.space()
	return start, end, tables, ok && found && sc.i == len(body)
}
