// Package dataset provides the data substrates for the paper's four case
// studies: ice-cream flavours with a chocolateyness ground truth (Table 1),
// an English word dictionary (Table 2), a DBLP/Google-Scholar-like citation
// corpus with labelled duplicate pairs (Table 3), and Restaurants/Buy-style
// record collections with missing-value masks (Table 4).
//
// The original experiments used proprietary snapshots of public datasets;
// this package generates synthetic equivalents with the same statistical
// structure. All generators are deterministic given a seed.
package dataset

import (
	"math/rand"
	"strings"
)

// Field is one named attribute of a record.
type Field struct {
	Name  string
	Value string
}

// Record is a structured data item: an ordered list of attribute fields.
// Order is preserved because prompt serialization is order-sensitive.
type Record struct {
	ID     string
	Fields []Field
}

// Get returns the value of the named field and whether it exists.
func (r Record) Get(name string) (string, bool) {
	for _, f := range r.Fields {
		if f.Name == name {
			return f.Value, true
		}
	}
	return "", false
}

// Set replaces the value of the named field, or appends it if absent.
func (r *Record) Set(name, value string) {
	for i, f := range r.Fields {
		if f.Name == name {
			r.Fields[i].Value = value
			return
		}
	}
	r.Fields = append(r.Fields, Field{Name: name, Value: value})
}

// WithoutField returns a deep copy of r with the named field removed.
func (r Record) WithoutField(name string) Record {
	out := Record{ID: r.ID, Fields: make([]Field, 0, len(r.Fields))}
	for _, f := range r.Fields {
		if f.Name != name {
			out.Fields = append(out.Fields, f)
		}
	}
	return out
}

// Clone returns a deep copy of r.
func (r Record) Clone() Record {
	out := Record{ID: r.ID, Fields: make([]Field, len(r.Fields))}
	copy(out.Fields, r.Fields)
	return out
}

// With returns a deep copy of r with the named field set: replaced in
// place if present, appended otherwise. It is Clone followed by Set in one
// allocation.
func (r Record) With(name, value string) Record {
	for i, f := range r.Fields {
		if f.Name == name {
			out := r.Clone()
			out.Fields[i].Value = value
			return out
		}
	}
	fields := make([]Field, len(r.Fields), len(r.Fields)+1)
	copy(fields, r.Fields)
	return Record{ID: r.ID, Fields: append(fields, Field{Name: name, Value: value})}
}

// String renders the record in the serialized form the paper uses for
// imputation prompts: "a1 is v1; a2 is v2; ...".
func (r Record) String() string {
	n := 0
	for i, f := range r.Fields {
		if i > 0 {
			n += len("; ")
		}
		n += len(f.Name) + len(" is ") + len(f.Value)
	}
	var b strings.Builder
	b.Grow(n)
	for i, f := range r.Fields {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(f.Name)
		b.WriteString(" is ")
		b.WriteString(f.Value)
	}
	return b.String()
}

// AppendWithout appends the String form of r without the named field to
// dst: the bytes of r.WithoutField(name).String(), with no copy of r.
func (r Record) AppendWithout(dst []byte, name string) []byte {
	first := true
	for _, f := range r.Fields {
		if f.Name == name {
			continue
		}
		if !first {
			dst = append(dst, "; "...)
		}
		first = false
		dst = append(dst, f.Name...)
		dst = append(dst, " is "...)
		dst = append(dst, f.Value...)
	}
	return dst
}

// Pair is a labelled pair of records for entity-resolution benchmarks.
type Pair struct {
	A, B Record
	// Match reports whether A and B refer to the same real-world entity.
	Match bool
}

// Split divides items into train/validation/test partitions with the given
// fractions (test receives the remainder). The split is deterministic for a
// given seed and does not mutate the input.
func Split[T any](items []T, trainFrac, valFrac float64, seed int64) (train, val, test []T) {
	idx := rand.New(rand.NewSource(seed)).Perm(len(items))
	nTrain := int(trainFrac * float64(len(items)))
	nVal := int(valFrac * float64(len(items)))
	for i, j := range idx {
		switch {
		case i < nTrain:
			train = append(train, items[j])
		case i < nTrain+nVal:
			val = append(val, items[j])
		default:
			test = append(test, items[j])
		}
	}
	return train, val, test
}

// Sample returns n items drawn without replacement, deterministically for a
// given seed. If n exceeds len(items), all items are returned (shuffled).
func Sample[T any](items []T, n int, seed int64) []T {
	idx := rand.New(rand.NewSource(seed)).Perm(len(items))
	if n > len(items) {
		n = len(items)
	}
	out := make([]T, 0, n)
	for _, j := range idx[:n] {
		out = append(out, items[j])
	}
	return out
}
