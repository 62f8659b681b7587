package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// Job replies. A reply is the JSON of the job's JobStatus, written without
// reflection, byte for byte what json.Encoder with SetEscapeHTML(false)
// writes for JobStatus{..., Result: JobResultOf(res)} — FuzzReplyWriter
// holds the two to that, failures included. No JobResult copy is built.
//
// A job's reply changes only until the job finishes. Then runJob seals it
// once (seal) and the job keeps the seal, not its *pipeline.Result: a
// retained job is a few pointer-free slices the GC does not scan, where
// its Result was tables of records it marked on every cycle. The sync
// submit's reply, each poll's and a cancel's expand the seal into a pooled
// buffer.
//
// Much of a warm reply is the tenant's own records: filter, sort and count
// pass input records through unchanged. An output record is recognised as
// record k of one of the job's warm input tables — a table its submission
// found already interned — when its Fields slice starts where record k's
// does in the table's one backing array and is as long, and its ID is
// record k's. No stage writes a record of its input (intern.go), so such a
// record still holds exactly what was decoded. The seal keeps no bytes for
// it, only a splice naming the table and the record, and an expansion
// copies its bytes from the table's rendering: every record of the table
// written once by this same writer, the first time a reply reuses one of
// them, with the commas between them. A run of records passed through in
// input order, k, k+1, …, is one splice: one slice of the rendering,
// commas included. A table seen only once is never rendered; its records
// are sealed as any other.
//
// Anything else is written whole, a record categorize or impute derived
// from an input record included. Sealing such a record as its input
// record's rendering plus the appended fields would keep a third of the
// bytes, but on a workload whose process allocates much more than the
// server retains, the retained seals are what space the GC's cycles:
// shrinking them made the cycles more frequent and the tail latency
// worse, not better.

// replyPool recycles reply buffers. One larger than maxPooledReply is
// dropped rather than kept for every later reply.
var replyPool = sync.Pool{New: func() any { return new(replyBuf) }}

const maxPooledReply = 1 << 20

// replyBuf is a pooled reply body; Write lets json.Encoder render into it.
// splices is the scratch a seal is written with.
type replyBuf struct {
	b       []byte
	splices []splice
}

func (r *replyBuf) Write(p []byte) (int, error) {
	r.b = append(r.b, p...)
	return len(p), nil
}

func putReplyBuf(r *replyBuf) {
	if cap(r.b) <= maxPooledReply {
		r.b, r.splices = r.b[:0], r.splices[:0]
		replyPool.Put(r)
	}
}

// send writes a rendered body: the header only once the whole body exists.
func send(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body) // a client gone mid-reply is nothing the server can act on
}

// writeReply sends job j's status. A reply that cannot be written — a
// NaN or infinite float, as encoding/json would refuse it — is a 500.
func (s *Server) writeReply(w http.ResponseWriter, code int, j *job) {
	buf := replyPool.Get().(*replyBuf)
	defer putReplyBuf(buf)
	b, reused, err := s.appendReply(buf.b[:0], j)
	buf.b = b
	if err != nil {
		writeError(w, http.StatusInternalServerError, "server_error", "server: encoding reply: "+err.Error())
		return
	}
	s.replyBytes.Add(int64(len(b)))
	s.replyBytesReused.Add(int64(reused))
	send(w, code, b)
}

// appendReply appends job j's reply and a newline to b. reused is how many
// of the bytes were copied from rendered input tables. On error b is
// returned as it was passed.
func (s *Server) appendReply(b []byte, j *job) (_ []byte, reused int, err error) {
	st, sealed := j.view()
	if sealed == nil {
		w := replyWriter{b: b}
		w.status(&st, nil)
		return w.b, 0, nil
	}
	if sealed.err != nil {
		return b, 0, sealed.err
	}
	b, reused = sealed.expand(b, s.tables, j.inputs)
	return b, reused, nil
}

// sealedReply is a finished job's reply. lit is every byte the writer
// wrote itself; each splice stands, at its offset in lit, for bytes of one
// of the job's warm input tables' renderings. err is the first float
// encoding/json would refuse; lit and splices are then empty.
type sealedReply struct {
	lit     []byte
	splices []splice
	err     error
}

// splice stands at lit[at] for records rec to rec+n-1 of the job's input
// table inputs[table], with the commas between them.
type splice struct {
	at, rec  int32
	table, n uint16
}

// maxSpliceTables is how many of a job's warm input tables a splice can
// name, and maxRun the longest run one splice holds.
const (
	maxSpliceTables = math.MaxUint16 + 1
	maxRun          = math.MaxUint16
)

// seal writes the terminal reply st with res as its result, splicing each
// record of inputs it passes through. The seal is sized to what it holds.
func seal(st *JobStatus, res *pipeline.Result, inputs []*internedTable) *sealedReply {
	buf := replyPool.Get().(*replyBuf)
	defer putReplyBuf(buf)
	w := replyWriter{b: buf.b[:0], splices: buf.splices[:0], inputs: inputs[:min(len(inputs), maxSpliceTables)]}
	w.status(st, res)
	buf.b, buf.splices = w.b, w.splices
	if w.err != nil {
		return &sealedReply{err: w.err}
	}
	return &sealedReply{lit: bytes.Clone(w.b), splices: slices.Clone(w.splices)}
}

// expand appends the reply to b, each splice copied from its table's
// rendering; reused is the bytes so copied.
func (r *sealedReply) expand(b []byte, tables *tableInterner, inputs []*internedTable) (_ []byte, reused int) {
	at := int32(0)
	for _, sp := range r.splices {
		b = append(b, r.lit[at:sp.at]...)
		at = sp.at
		rec := tables.rendered(inputs[sp.table]).run(sp.rec, int32(sp.n))
		b = append(b, rec...)
		reused += len(rec)
	}
	return append(b, r.lit[at:]...), reused
}

// replyWriter writes one reply, noting a splice where a record is one of
// inputs'.
type replyWriter struct {
	b       []byte
	err     error // the first float encoding/json would refuse
	inputs  []*internedTable
	splices []splice
}

// status writes st with res, not st.Result, as its result.
func (w *replyWriter) status(st *JobStatus, res *pipeline.Result) {
	w.b = append(w.b, `{"id":`...)
	w.b = appendString(w.b, st.ID)
	w.b = append(w.b, `,"tenant":`...)
	w.b = appendString(w.b, st.Tenant)
	w.b = append(w.b, `,"state":`...)
	w.b = appendString(w.b, string(st.State))
	if st.Error != "" {
		w.b = append(w.b, `,"error":`...)
		w.b = appendString(w.b, st.Error)
	}
	if res != nil {
		w.b = append(w.b, `,"result":`...)
		w.result(res)
	}
	if st.WallMS != 0 {
		w.b = append(w.b, `,"wall_ms":`...)
		w.float(st.WallMS)
	}
	w.b = append(w.b, "}\n"...)
}

func (w *replyWriter) result(res *pipeline.Result) {
	w.b = append(w.b, `{"tables":`...)
	if res.Tables == nil {
		w.b = append(w.b, "null"...)
	} else {
		var scratch [16]string
		w.b = append(w.b, '{')
		for i, name := range sortedKeys(res.Tables, scratch[:0]) {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.b = appendString(w.b, name)
			w.b = append(w.b, ':')
			w.records(res.Tables[name])
		}
		w.b = append(w.b, '}')
	}
	if len(res.Scalars) > 0 {
		var scratch [16]string
		w.b = append(w.b, `,"scalars":{`...)
		for i, name := range sortedKeys(res.Scalars, scratch[:0]) {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.b = appendString(w.b, name)
			w.b = append(w.b, ':')
			w.b = appendString(w.b, res.Scalars[name])
		}
		w.b = append(w.b, '}')
	}
	if len(res.Stages) > 0 {
		w.b = append(w.b, `,"stages":[`...)
		for i := range res.Stages {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.stage(&res.Stages[i])
		}
		w.b = append(w.b, ']')
	}
	w.b = append(w.b, `,"calls":`...)
	w.b = strconv.AppendInt(w.b, int64(res.Usage.Calls), 10)
	w.b = append(w.b, `,"tokens":`...)
	w.b = strconv.AppendInt(w.b, int64(res.Usage.Total()), 10)
	w.b = append(w.b, `,"cost":`...)
	w.float(res.Cost)
	if res.Skipped != 0 {
		w.b = append(w.b, `,"skipped":`...)
		w.b = strconv.AppendInt(w.b, int64(res.Skipped), 10)
	}
	if res.Quarantined != 0 {
		w.b = append(w.b, `,"quarantined":`...)
		w.b = strconv.AppendInt(w.b, int64(res.Quarantined), 10)
	}
	w.b = append(w.b, '}')
}

// stage writes a StageStatus.
func (w *replyWriter) stage(st *pipeline.StageReport) {
	w.b = append(w.b, `{"name":`...)
	w.b = appendString(w.b, st.Name)
	w.b = append(w.b, `,"kind":`...)
	w.b = appendString(w.b, st.Kind)
	w.b = append(w.b, `,"in":`...)
	w.b = strconv.AppendInt(w.b, int64(st.In), 10)
	w.b = append(w.b, `,"out":`...)
	w.b = strconv.AppendInt(w.b, int64(st.Out), 10)
	w.b = append(w.b, `,"calls":`...)
	w.b = strconv.AppendInt(w.b, int64(st.Usage.Calls), 10)
	w.b = append(w.b, `,"tokens":`...)
	w.b = strconv.AppendInt(w.b, int64(st.Usage.Total()), 10)
	w.b = append(w.b, `,"cost":`...)
	w.float(st.Cost)
	if st.Detail != "" {
		w.b = append(w.b, `,"detail":`...)
		w.b = appendString(w.b, st.Detail)
	}
	w.b = append(w.b, '}')
}

// records writes a table, splicing each record of a warm input table and
// each run of them in input order.
func (w *replyWriter) records(rs []dataset.Record) {
	if rs == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.b = append(w.b, '[')
	run := -1 // the splice the next record passed through may extend
	for i := range rs {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		if t, k := inputRecord(w.inputs, &rs[i]); t >= 0 {
			if run >= 0 && w.splices[run].extends(t, k) {
				w.b = w.b[:len(w.b)-1] // the run's rendering holds the comma
				w.splices[run].n++
			} else {
				run = len(w.splices)
				w.splices = append(w.splices, splice{at: int32(len(w.b)), rec: int32(k), table: uint16(t), n: 1})
			}
			continue
		}
		run = -1
		w.b = appendRecord(w.b, &rs[i])
	}
	w.b = append(w.b, ']')
}

// extends reports whether record k of inputs[t] can join the run sp.
func (sp *splice) extends(t, k int) bool {
	return int(sp.table) == t && int(sp.rec)+int(sp.n) == k && sp.n < maxRun
}

// float writes f as encoding/json does, and records the error it would
// report for NaN and the infinities.
func (w *replyWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		// e-07 is written e-7.
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

// sortedKeys returns m's keys in the order encoding/json writes them,
// appended to scratch.
func sortedKeys[V any](m map[string]V, scratch []string) []string {
	for k := range m {
		scratch = append(scratch, k)
	}
	slices.Sort(scratch)
	return scratch
}

// appendRecord appends a dataset.Record as encoding/json writes it.
func appendRecord(b []byte, r *dataset.Record) []byte {
	b = append(b, `{"ID":`...)
	b = appendString(b, r.ID)
	b = append(b, `,"Fields":`...)
	if r.Fields == nil {
		return append(b, "null}"...)
	}
	b = append(b, '[')
	for i := range r.Fields {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"Name":`...)
		b = appendString(b, r.Fields[i].Name)
		b = append(b, `,"Value":`...)
		b = appendString(b, r.Fields[i].Value)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes it with HTML
// escaping off: '"', '\\' and control characters escaped, each invalid
// UTF-8 byte as \ufffd, U+2028 and U+2029 as \u2028 and \u2029, and
// everything else, <, > and & included, as it stands.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// renderedTable is an interned table's records as the reply writer writes
// them, separated by commas: record i starts at b[at[i]] and ends before
// at[i+1]-1, where its comma is, or at the end of b.
type renderedTable struct {
	b  []byte
	at []int32
}

// run is records k to k+n-1 with the commas between them.
func (r *renderedTable) run(k, n int32) []byte { return r.b[r.at[k] : r.at[k+n]-1] }

// size is what the rendering counts against the interner's bound.
func (r *renderedTable) size() int64 { return int64(cap(r.b) + 4*cap(r.at)) }

func renderTable(t *internedTable) *renderedTable {
	out := &renderedTable{b: make([]byte, 0, len(t.raw)), at: make([]int32, 1, len(t.records)+1)}
	for i := range t.records {
		if i > 0 {
			out.b = append(out.b, ',')
		}
		out.b = appendRecord(out.b, &t.records[i])
		out.at = append(out.at, int32(len(out.b)+1))
	}
	return out
}

const fieldSize = unsafe.Sizeof(dataset.Field{})

// inputRecord finds r among the records of the warm input tables by
// identity: it returns the index in inputs of the table, and k of its
// record, whose Fields starts where r's does and is as long, and whose ID
// is r's, or -1. Only the addresses are compared; a record with no fields
// is never matched.
func inputRecord(inputs []*internedTable, r *dataset.Record) (table, k int) {
	if len(r.Fields) == 0 {
		return -1, 0
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(r.Fields)))
	for i, t := range inputs {
		base := uintptr(unsafe.Pointer(unsafe.SliceData(t.fields)))
		if p < base || p >= base+uintptr(len(t.fields))*fieldSize {
			continue
		}
		slot := int32((p - base) / fieldSize)
		// The last record starting at or before slot: records before it
		// with no fields start there too.
		k, _ := slices.BinarySearch(t.starts, slot+1)
		k--
		if t.starts[k] != slot || int(t.starts[k+1]-slot) != len(r.Fields) || t.records[k].ID != r.ID {
			return -1, 0
		}
		return i, k
	}
	return -1, 0
}
