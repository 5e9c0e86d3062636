package tokenize

import "slices"

// Dict is a token interner: it maps each distinct token string to a dense
// uint32 ID and back. When built from a frequency-ranked token list (see
// index.BuildOrdering), ID order equals global rank order, so a token-ID set
// sorted ascending is exactly the §7.5 reordered token set — rarest first —
// and set intersections become branch-predictable merges over int arrays
// instead of map probes over strings.
//
// A Dict is immutable after construction unless the caller interns new
// tokens; Intern is not safe for concurrent use (callers synchronize, e.g.
// by building whole columns under a lock).
type Dict struct {
	ids  map[string]uint32
	toks []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]uint32)}
}

// DictOf builds a dictionary whose IDs follow the given token order: the
// i-th token gets ID i. Duplicate tokens panic — the caller promised a
// ranked set.
func DictOf(tokens []string) *Dict {
	d := &Dict{ids: make(map[string]uint32, len(tokens)), toks: make([]string, 0, len(tokens))}
	for _, t := range tokens {
		if _, ok := d.ids[t]; ok {
			panic("tokenize: DictOf with duplicate token " + t)
		}
		d.ids[t] = uint32(len(d.toks))
		d.toks = append(d.toks, t)
	}
	return d
}

// Intern returns the token's ID, assigning the next dense ID on first sight.
func (d *Dict) Intern(t string) uint32 {
	if id, ok := d.ids[t]; ok {
		return id
	}
	id := uint32(len(d.toks))
	d.ids[t] = id              //falcon:allow streambound interning is bounded by the token vocabulary; streaming callers intern into per-column scratch dicts
	d.toks = append(d.toks, t) //falcon:allow streambound interning is bounded by the token vocabulary; streaming callers intern into per-column scratch dicts
	return id
}

// ID returns the token's ID if it is interned.
func (d *Dict) ID(t string) (uint32, bool) {
	id, ok := d.ids[t]
	return id, ok
}

// EncodeSorted appends the token set's IDs to dst and sorts the appended
// run ascending — under a rank-ordered dictionary, the §7.5 reordered set.
// Tokens the dictionary does not know get distinct extension IDs ≥ Len():
// they keep the set's length, sort after every known token, and match
// nothing, which is how both a prefix probe and a count-set measure must
// treat a token no indexed or frozen row contains. d is not modified.
func (d *Dict) EncodeSorted(dst []uint32, tokens []string) []uint32 {
	start, ext := len(dst), uint32(len(d.toks))
	for _, t := range tokens {
		id, known := d.ids[t]
		if !known {
			id = ext
			ext++
		}
		dst = append(dst, id)
	}
	slices.Sort(dst[start:])
	return dst
}

// Token returns the token string for an ID.
func (d *Dict) Token(id uint32) string { return d.toks[id] }

// Len returns the number of interned tokens.
func (d *Dict) Len() int { return len(d.toks) }

// Tokens returns the interned tokens in ID order. The returned slice is the
// dictionary's backing array: callers must not mutate it.
func (d *Dict) Tokens() []string { return d.toks }
