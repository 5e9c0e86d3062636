// Package index implements the filter indexes of Falcon §7.4–7.5: hash
// indexes (equivalence filter), tree indexes (range filter), length indexes
// (length filter), global token orderings, and prefix inverted indexes
// (prefix + position filters). Indexes are built over table A (the indexed
// side) and probed with tuples of B.
//
// Every index reports an estimated in-memory size so physical-operator
// selection (§10.1) can respect the per-mapper memory budget.
package index

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"falcon/internal/table"
	"falcon/internal/tokenize"
)

// HashIndex supports the equivalence filter: value → tuple IDs.
type HashIndex struct {
	m     map[string][]int32
	bytes int64
}

// BuildHash indexes the normalized values of column col of t. Missing
// values are not indexed (a missing value never satisfies exact_match = 1).
func BuildHash(t *table.Table, col int) *HashIndex {
	h := &HashIndex{m: make(map[string][]int32)}
	for i := 0; i < t.Len(); i++ {
		v := table.Normalize(t.Value(i, col))
		if v == "" {
			continue
		}
		if _, ok := h.m[v]; !ok {
			h.bytes += int64(len(v)) + 48
		}
		h.m[v] = append(h.m[v], int32(i))
		h.bytes += 4
	}
	return h
}

// Probe returns the IDs of tuples whose value equals v (normalized).
func (h *HashIndex) Probe(v string) []int32 { return h.m[table.Normalize(v)] }

// SizeBytes estimates the index memory footprint.
func (h *HashIndex) SizeBytes() int64 { return h.bytes }

// TreeIndex supports the range filter: a sorted array of (value, id),
// standing in for a B-tree. Tuples whose value does not parse are kept
// aside: their numeric features evaluate to the Missing sentinel, which
// keep-side predicates like "abs_diff ≤ v" accept, so candidate generation
// must be able to include them.
type TreeIndex struct {
	vals        []float64
	ids         []int32
	unparseable []int32
}

// BuildTree indexes the parseable numeric values of column col.
func BuildTree(t *table.Table, col int) *TreeIndex {
	type pair struct {
		v  float64
		id int32
	}
	var ps []pair
	var unparseable []int32
	for i := 0; i < t.Len(); i++ {
		if f, ok := table.ParseNum(t.Value(i, col)); ok {
			ps = append(ps, pair{f, int32(i)})
		} else {
			unparseable = append(unparseable, int32(i))
		}
	}
	slices.SortFunc(ps, func(a, b pair) int {
		if c := cmp.Compare(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	idx := &TreeIndex{vals: make([]float64, len(ps)), ids: make([]int32, len(ps)), unparseable: unparseable}
	for i, p := range ps {
		idx.vals[i] = p.v
		idx.ids[i] = p.id
	}
	return idx
}

// Unparseable returns the IDs of tuples whose value did not parse.
func (ti *TreeIndex) Unparseable() []int32 { return ti.unparseable }

// Len returns the number of indexed tuples, parseable or not.
func (ti *TreeIndex) Len() int { return len(ti.ids) + len(ti.unparseable) }

// ProbeRangeInto appends to dst, in ascending ID order, the IDs with value
// in [lo, hi] — and, when withUnparseable is set, the tuples whose value did
// not parse. The tree holds IDs in value order, so hits are marked in a
// bitmap and scanned back out, which sorts them without comparing: marks is
// caller-owned scratch of at least (Len()+63)/64 words, all zero on entry
// and zero again on return. Nothing is allocated once dst has grown.
func (ti *TreeIndex) ProbeRangeInto(dst []int32, marks []uint64, lo, hi float64, withUnparseable bool) []int32 {
	// first/last bound the words touched, so a selective probe of a large
	// index scans a few words, not the whole bitmap.
	first, last := len(marks), -1
	mark := func(id int32) {
		w := int(id >> 6)
		marks[w] |= 1 << (id & 63)
		first, last = min(first, w), max(last, w)
	}
	for i := sort.SearchFloat64s(ti.vals, lo); i < len(ti.vals) && ti.vals[i] <= hi; i++ {
		mark(ti.ids[i])
	}
	if withUnparseable {
		for _, id := range ti.unparseable {
			mark(id)
		}
	}
	for w := first; w <= last; w++ {
		for word := marks[w]; word != 0; word &= word - 1 {
			dst = append(dst, int32(w<<6+bits.TrailingZeros64(word)))
		}
		marks[w] = 0
	}
	return dst
}

// ProbeRange returns IDs with value in [lo, hi], in value order, as a fresh
// slice: the plain reference ProbeRangeInto is tested against.
func (ti *TreeIndex) ProbeRange(lo, hi float64) []int32 {
	start := sort.SearchFloat64s(ti.vals, lo)
	var out []int32
	for i := start; i < len(ti.vals) && ti.vals[i] <= hi; i++ {
		out = append(out, ti.ids[i])
	}
	return out
}

// SizeBytes estimates the index memory footprint.
func (ti *TreeIndex) SizeBytes() int64 { return int64(len(ti.vals)) * 12 }

// Ordering is the global token ordering of §7.5: tokens ranked by increasing
// corpus frequency, so prefixes hold the rarest tokens. It is backed by a
// token dictionary whose dense uint32 IDs equal the ranks, so rank-sorted
// token sets can be represented as sorted []uint32 ID sets.
type Ordering struct {
	dict *tokenize.Dict
}

// BuildOrdering ranks tokens by (frequency asc, token asc).
func BuildOrdering(freq map[string]int) *Ordering {
	tokens := make([]string, 0, len(freq))
	for t := range freq {
		tokens = append(tokens, t)
	}
	slices.SortFunc(tokens, func(a, b string) int {
		if c := cmp.Compare(freq[a], freq[b]); c != 0 {
			return c
		}
		return strings.Compare(a, b)
	})
	return OrderingOf(tokens)
}

// OrderingOf builds an ordering from an already rank-sorted token list (the
// §7.5 token-order job's output): the i-th token gets rank/ID i.
func OrderingOf(ranked []string) *Ordering {
	return &Ordering{dict: tokenize.DictOf(ranked)}
}

// Rank returns the token's rank; unknown tokens rank after all known ones.
func (o *Ordering) Rank(t string) int32 {
	if id, ok := o.dict.ID(t); ok {
		return int32(id)
	}
	return int32(o.dict.Len())
}

// Len returns the number of ranked tokens.
func (o *Ordering) Len() int { return o.dict.Len() }

// Dict returns the backing dictionary (rank i ↔ token ID i).
func (o *Ordering) Dict() *tokenize.Dict { return o.dict }

// Reorder sorts a token set by rank ascending (rarest first); unknown
// tokens go last, ordered lexicographically for determinism.
func (o *Ordering) Reorder(tokens []string) []string {
	out := append([]string(nil), tokens...)
	slices.SortFunc(out, func(a, b string) int {
		if c := cmp.Compare(o.Rank(a), o.Rank(b)); c != 0 {
			return c
		}
		return strings.Compare(a, b)
	})
	return out
}

// SizeBytes estimates the ordering memory footprint.
func (o *Ordering) SizeBytes() int64 {
	var b int64
	for _, t := range o.dict.Tokens() {
		b += int64(len(t)) + 20
	}
	return b
}

// TokenFrequencies counts token frequencies of column col under the given
// tokenization across the table — the §7.5 first MR job's computation.
func TokenFrequencies(t *table.Table, col int, kind tokenize.Kind) map[string]int {
	freq := map[string]int{}
	for i := 0; i < t.Len(); i++ {
		v := t.Value(i, col)
		if table.IsMissing(v) {
			continue
		}
		for _, tok := range tokenize.Set(kind, v) {
			freq[tok]++
		}
	}
	return freq
}
