// Package table provides the relational substrate for Falcon: tables of
// tuples with schemas, CSV input/output, and the automatic attribute type
// and characteristic inference that drives feature generation (paper §8,
// Figure 5).
package table

import (
	"fmt"
	"strconv"
	"strings"
)

// AttrType is the inferred type of an attribute.
type AttrType int

const (
	// String attributes hold free text.
	String AttrType = iota
	// Numeric attributes parse as numbers in (almost) every non-missing row.
	Numeric
)

// String implements fmt.Stringer.
func (t AttrType) String() string {
	switch t {
	case String:
		return "string"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// AttrChar is the characteristic of an attribute per Figure 5 of the paper.
type AttrChar int

const (
	// SingleWord strings: first names, zip codes, ISBNs...
	SingleWord AttrChar = iota
	// ShortString: multi-word, ≤5 words (brand names, person names).
	ShortString
	// MediumString: 6–10 words (street addresses, short descriptions).
	MediumString
	// LongString: ≥11 words (long descriptions, reviews).
	LongString
	// NumericChar tags numeric attributes.
	NumericChar
)

// String implements fmt.Stringer.
func (c AttrChar) String() string {
	switch c {
	case SingleWord:
		return "single-word"
	case ShortString:
		return "short-string"
	case MediumString:
		return "medium-string"
	case LongString:
		return "long-string"
	case NumericChar:
		return "numeric"
	default:
		return fmt.Sprintf("char(%d)", int(c))
	}
}

// Attribute describes one column.
type Attribute struct {
	Name string
	Type AttrType
	Char AttrChar
}

// Schema is an ordered list of attributes.
type Schema struct {
	Attrs []Attribute
	index map[string]int
}

// NewSchema builds a schema from attribute names; types default to String
// until InferTypes is run on a table.
func NewSchema(names ...string) *Schema {
	s := &Schema{Attrs: make([]Attribute, len(names)), index: make(map[string]int, len(names))}
	for i, n := range names {
		s.Attrs[i] = Attribute{Name: n, Type: String, Char: ShortString}
		s.index[n] = i
	}
	return s
}

// Col returns the position of the named attribute, or -1.
func (s *Schema) Col(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Names returns the attribute names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		out[i] = a.Name
	}
	return out
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.Attrs) }

// Tuple is one row. ID is the row's position in its table and doubles as the
// tuple identifier used throughout blocking and matching.
type Tuple struct {
	ID     int
	Values []string
}

// Table is a named relation.
type Table struct {
	Name   string
	Schema *Schema
	Tuples []Tuple
}

// New creates an empty table with the given schema.
func New(name string, schema *Schema) *Table {
	return &Table{Name: name, Schema: schema}
}

// Append adds a row, assigning the next ID. It panics if the value count
// does not match the schema.
func (t *Table) Append(values ...string) {
	if len(values) != t.Schema.Len() {
		panic(fmt.Sprintf("table %s: row has %d values, schema has %d", t.Name, len(values), t.Schema.Len()))
	}
	t.Tuples = append(t.Tuples, Tuple{ID: len(t.Tuples), Values: values})
}

// Len returns the number of tuples.
func (t *Table) Len() int { return len(t.Tuples) }

// Value returns tuple row's value in column col.
func (t *Table) Value(row, col int) string { return t.Tuples[row].Values[col] }

// IsMissing reports whether a raw value counts as missing.
func IsMissing(v string) bool {
	v = strings.TrimSpace(v)
	return v == "" || strings.EqualFold(v, "null") || strings.EqualFold(v, "nan") || v == "?"
}

// ParseNum parses a raw cell as a number: surrounding space is ignored,
// and missing or unparseable cells report ok=false. Every numeric operand —
// feature columns, tree indexes, range probes — comes through here, so a
// cell means the same number (or the same Missing) on every path.
func ParseNum(v string) (f float64, ok bool) {
	v = strings.TrimSpace(v)
	if IsMissing(v) {
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	return f, err == nil
}

// Normalize is the string-cell normalization the sequence measures and the
// equivalence filter share: missing becomes "", everything else is
// lowercased and trimmed.
func Normalize(v string) string {
	if IsMissing(v) {
		return ""
	}
	return strings.ToLower(strings.TrimSpace(v))
}

// numericThreshold is the fraction of non-missing values that must parse as
// numbers for an attribute to be inferred Numeric.
const numericThreshold = 0.9

// maxInferSample caps how many rows type inference scans.
const maxInferSample = 5000

// InferTypes scans the table and fills in each attribute's Type and Char
// following Figure 5's characteristic buckets. Attributes whose values are
// all missing default to String/ShortString.
func (t *Table) InferTypes() {
	n := t.Len()
	if n > maxInferSample {
		n = maxInferSample
	}
	for c := range t.Schema.Attrs {
		var nonMissing, numeric, totalWords int
		for r := 0; r < n; r++ {
			v := t.Tuples[r].Values[c]
			if IsMissing(v) {
				continue
			}
			nonMissing++
			if _, ok := ParseNum(v); ok {
				numeric++
			}
			totalWords += len(strings.Fields(v))
		}
		attr := &t.Schema.Attrs[c]
		if nonMissing == 0 {
			attr.Type, attr.Char = String, ShortString
			continue
		}
		if float64(numeric) >= numericThreshold*float64(nonMissing) {
			attr.Type, attr.Char = Numeric, NumericChar
			continue
		}
		attr.Type = String
		avgWords := float64(totalWords) / float64(nonMissing)
		switch {
		case avgWords <= 1.2:
			attr.Char = SingleWord
		case avgWords <= 5:
			attr.Char = ShortString
		case avgWords <= 10:
			attr.Char = MediumString
		default:
			attr.Char = LongString
		}
	}
}

// Sub returns a new table containing the first n tuples (or all, if fewer),
// re-IDed from zero. Used for the table-size sweeps of §11.4.
func (t *Table) Sub(name string, n int) *Table {
	if n > t.Len() {
		n = t.Len()
	}
	out := New(name, t.Schema)
	for i := 0; i < n; i++ {
		out.Append(t.Tuples[i].Values...)
	}
	return out
}

// Pair identifies a candidate tuple pair (a ∈ A, b ∈ B) by tuple IDs.
type Pair struct {
	A, B int
}

// String implements fmt.Stringer.
func (p Pair) String() string { return fmt.Sprintf("(%d,%d)", p.A, p.B) }
