package feature

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"falcon/internal/simfn"
	"falcon/internal/table"
	"falcon/internal/tokenize"
)

// Vector is a tuple pair encoded as feature values (the gen_fvs output).
type Vector struct {
	Pair   table.Pair
	Values []float64
}

// Operand is one side of a feature's per-pair input: the columns of one
// table (or one served record) the feature's measure family reads, indexed
// by row. Only the fields for that family are set. Feature.EvalOperands is
// the one place a measure is applied to two operands, so the batch
// vectorizer (both sides table columns) and the serving path (a length-1
// record column against the frozen B columns) cannot drift apart.
type Operand struct {
	Num  []float64           // numeric measures: parsed cells
	Ok   []bool              //   and whether each parsed
	Pack []simfn.PackedIDs   // count-set measures: token-ID sets under the correspondence dictionary
	Tok  [][]string          // Monge-Elkan and the TF/IDF family: token sets
	Doc  []simfn.WeightedDoc // TF/IDF family: frozen tf·idf vectors
	Norm []string            // sequence measures: normalized cells
}

// Columns builds and caches one table's operand columns, so features (and
// repeated pairs) touching the same column re-derive nothing. It is safe
// for concurrent use: columns are built whole on first access under a lock
// and published as immutable slices.
type Columns struct {
	t *table.Table

	mu   sync.RWMutex
	tok  map[tokKey][][]string                 // (col,kind) → per-row token sets
	num  map[int]numCol                        // col → per-row parsed numbers
	norm map[int][]string                      // col → per-row normalized values
	docs map[*simfn.Corpus][]simfn.WeightedDoc // corpus → IDF-weighted row vectors
}

type tokKey struct {
	col  int
	kind tokenize.Kind
}

// numCol is a parsed numeric column and its parse-success mask.
type numCol struct {
	vals []float64
	ok   []bool
}

// NewColumns returns an empty column cache over t.
func NewColumns(t *table.Table) *Columns {
	return &Columns{
		t:   t,
		tok: map[tokKey][][]string{}, num: map[int]numCol{},
		norm: map[int][]string{}, docs: map[*simfn.Corpus][]simfn.WeightedDoc{},
	}
}

// cached returns m[k], building it with build under the write lock on first
// access. Once published a column is never mutated again, so callers read
// it without holding the lock.
func cached[K comparable, V any](c *Columns, m map[K]V, k K, build func() V) V {
	c.mu.RLock()
	col, ok := m[k]
	c.mu.RUnlock()
	if ok {
		return col
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if col, ok := m[k]; ok {
		return col
	}
	col = build()
	m[k] = col //falcon:allow streambound one column per (table column, representation) — bounded by the schema and feature set, not the record stream
	return col
}

// tokens returns the token-set column for (col, kind).
func (c *Columns) tokens(col int, kind tokenize.Kind) [][]string {
	return cached(c, c.tok, tokKey{col, kind}, func() [][]string {
		rows := make([][]string, c.t.Len())
		for row := range rows {
			rows[row] = CellTokens(kind, c.t.Value(row, col))
		}
		return rows
	})
}

// numbers returns the parsed numeric column (table.ParseNum per cell).
func (c *Columns) numbers(col int) numCol {
	return cached(c, c.num, col, func() numCol {
		nc := numCol{vals: make([]float64, c.t.Len()), ok: make([]bool, c.t.Len())}
		for row := range nc.vals {
			nc.vals[row], nc.ok[row] = table.ParseNum(c.t.Value(row, col))
		}
		return nc
	})
}

// norms returns the normalized string column (table.Normalize per cell).
func (c *Columns) norms(col int) []string {
	return cached(c, c.norm, col, func() []string {
		rows := make([]string, c.t.Len())
		for row := range rows {
			rows[row] = table.Normalize(c.t.Value(row, col))
		}
		return rows
	})
}

// weightedDocs returns column col as frozen tf·idf vectors under corpus.
// TFIDF and SoftTFIDF features of one correspondence share a corpus, so
// they share the column.
func (c *Columns) weightedDocs(corpus *simfn.Corpus, col int, kind tokenize.Kind) []simfn.WeightedDoc {
	toks := c.tokens(col, kind) // built outside c.mu (tokens locks internally)
	return cached(c, c.docs, corpus, func() []simfn.WeightedDoc {
		out := make([]simfn.WeightedDoc, len(toks))
		for i, ts := range toks {
			out[i] = corpus.WeightedDocOf(ts)
		}
		return out
	})
}

// Operand resolves feature f's operand over column col of the cached table.
// Count-set measures read token IDs under a dictionary shared with the other
// side, which one table cannot build alone: the caller supplies that column
// packed (the Vectorizer from its joint encoding, serving from the
// artifact's frozen ID rows).
func (c *Columns) Operand(f *Feature, col int, packed []simfn.PackedIDs) Operand {
	switch {
	case f.Measure.NumericBased():
		nc := c.numbers(col)
		return Operand{Num: nc.vals, Ok: nc.ok}
	case f.Measure.CountBased():
		return Operand{Pack: packed}
	case f.Measure.CorpusBased():
		return Operand{Doc: c.weightedDocs(f.corpus, col, f.Token)}
	case f.Measure.SetBased(): // Monge-Elkan: real tokens
		return Operand{Tok: c.tokens(col, f.Token)}
	default:
		return Operand{Norm: c.norms(col)}
	}
}

// Vectorizer converts tuple pairs into feature vectors over per-table
// column caches (Columns). Count-set measures additionally share, per
// attribute correspondence, one frequency-ordered dictionary (see
// tokenize.Dict) under which both columns are encoded as sorted []uint32
// token-ID sets with bit-parallel signatures attached.
//
// It is safe for concurrent use, so map tasks on the worker pool can share
// one vectorizer. Per-feature resolved operand pairs are published through
// atomic pointers, making the per-pair hot path lock-free.
type Vectorizer struct {
	Set *Set

	a, b *Columns // per-table operand columns

	mu  sync.RWMutex
	ids map[corrKey]*idCols // correspondence → encoded token sets

	// feats[f.ID] caches the resolved per-feature operand pair so the
	// per-pair path does one atomic load instead of map lookups under
	// RLock.
	feats []atomic.Pointer[featCols]
}

// corrKey identifies one attribute correspondence's shared token
// dictionary: both columns' token sets are encoded under one
// frequency-ordered dictionary so IDs are comparable across tables.
type corrKey struct {
	acol, bcol int
	kind       tokenize.Kind
}

// idCols holds both sides of a correspondence as sorted token-ID sets,
// plus the shared dictionary they are encoded under (retained so the
// trained artifact can ship the correspondence frozen). pa/pb carry the
// same rows with bit-parallel signatures attached (the IDs slices are
// shared, not copied).
type idCols struct {
	dict   *tokenize.Dict
	a, b   [][]uint32
	pa, pb []simfn.PackedIDs
}

// featCols is the resolved, immutable operand pair one feature reads per
// pair.
type featCols struct{ a, b Operand }

// NewVectorizer builds a vectorizer for the feature set over tables a and b.
func NewVectorizer(set *Set, a, b *table.Table) *Vectorizer {
	return &Vectorizer{
		Set: set,
		a:   NewColumns(a), b: NewColumns(b),
		ids:   map[corrKey]*idCols{},
		feats: make([]atomic.Pointer[featCols], len(set.Features)),
	}
}

// idColsFor returns both columns of the correspondence encoded as sorted
// token-ID sets under one shared frequency-ordered dictionary, building the
// dictionary and both encodings on first access.
func (v *Vectorizer) idColsFor(acol, bcol int, kind tokenize.Kind) *idCols {
	k := corrKey{acol, bcol, kind}
	v.mu.RLock()
	c, ok := v.ids[k]
	v.mu.RUnlock()
	if ok {
		return c
	}
	// Token columns are built outside v.mu (Columns locks internally).
	ta := v.a.tokens(acol, kind)
	tb := v.b.tokens(bcol, kind)
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.ids[k]; ok {
		return c
	}
	c = buildIDCols(ta, tb)
	v.ids[k] = c //falcon:allow streambound one encoding per correspondence — bounded by the feature set, not the record stream
	return c
}

// buildIDCols interns both columns' tokens into one dictionary ordered by
// (frequency asc, token asc) — the same global ordering §7.5 uses — and
// encodes every row as a sorted ID set. Sorted-ascending ID sets are thus
// rank-reordered token sets, and the sorted-merge intersection visits
// rarest tokens first.
func buildIDCols(ta, tb [][]string) *idCols {
	freq := map[string]int{}
	for _, rows := range [2][][]string{ta, tb} {
		for _, toks := range rows {
			for _, t := range toks {
				freq[t]++
			}
		}
	}
	ranked := make([]string, 0, len(freq))
	for t := range freq {
		ranked = append(ranked, t)
	}
	slices.SortFunc(ranked, func(a, b string) int {
		if c := cmp.Compare(freq[a], freq[b]); c != 0 {
			return c
		}
		return strings.Compare(a, b)
	})
	dict := tokenize.DictOf(ranked)
	encode := func(rows [][]string) [][]uint32 {
		out := make([][]uint32, len(rows))
		for i, toks := range rows {
			if len(toks) > 0 {
				out[i] = dict.EncodeSorted(make([]uint32, 0, len(toks)), toks)
			}
		}
		return out
	}
	c := &idCols{dict: dict, a: encode(ta), b: encode(tb)}
	c.pa, c.pb = simfn.PackRows(c.a), simfn.PackRows(c.b)
	return c
}

// CorrIDs exposes one correspondence's shared frequency-ordered dictionary
// and both encoded columns, building them on first access. The artifact
// builder uses this to freeze the dictionary and B-row ID sets into the
// serving contract.
func (v *Vectorizer) CorrIDs(acol, bcol int, kind tokenize.Kind) (*tokenize.Dict, [][]uint32, [][]uint32) {
	c := v.idColsFor(acol, bcol, kind)
	return c.dict, c.a, c.b
}

// featData returns the feature's resolved operand pair, building and
// publishing it on first access. Features not belonging to v.Set (defensive
// case) are resolved without caching.
func (v *Vectorizer) featData(f *Feature) *featCols {
	cached := f.ID >= 0 && f.ID < len(v.feats) && &v.Set.Features[f.ID] == f
	if cached {
		if fc := v.feats[f.ID].Load(); fc != nil {
			return fc
		}
	}
	var pa, pb []simfn.PackedIDs
	if f.Measure.CountBased() {
		c := v.idColsFor(f.ACol, f.BCol, f.Token)
		pa, pb = c.pa, c.pb
	}
	fc := &featCols{a: v.a.Operand(f, f.ACol, pa), b: v.b.Operand(f, f.BCol, pb)}
	if cached {
		v.feats[f.ID].Store(fc)
	}
	return fc
}

// Vector computes the full feature vector for pair p.
func (v *Vectorizer) Vector(p table.Pair) Vector {
	s := simfn.GetScratch()
	out := v.vector(p, nil, s)
	simfn.PutScratch(s)
	return out
}

// BlockingVector computes only the blocking-stage features for pair p. The
// returned Values are indexed by position in Set.BlockingIdx.
func (v *Vectorizer) BlockingVector(p table.Pair) Vector {
	s := simfn.GetScratch()
	out := v.vector(p, v.Set.BlockingIdx, s)
	simfn.PutScratch(s)
	return out
}

// vector evaluates the features idx selects (nil: all of them) on pair p.
// After Warm it performs exactly one allocation: the Values slice.
//
//falcon:hotpath
func (v *Vectorizer) vector(p table.Pair, idx []int, s *simfn.Scratch) Vector {
	feats := v.Set.Features
	n := len(feats)
	if idx != nil {
		n = len(idx)
	}
	//falcon:allow servebudget the documented single Values allocation per vector
	out := Vector{Pair: p, Values: make([]float64, n)}
	for i := 0; i < n; i++ {
		f := &feats[i]
		if idx != nil {
			f = &feats[idx[i]]
		}
		//falcon:allow servebudget cold-path column build under the write lock; Warm() pre-builds every operand pair so the hot path always takes the atomic Load
		fc := v.featData(f)
		out.Values[i] = f.EvalOperands(&fc.a, p.A, &fc.b, p.B, s)
	}
	return out
}

// Warm pre-builds every column cache the feature set can touch — including
// the per-feature resolved operand pairs — so that subsequent concurrent
// evaluation never takes the write lock and the per-pair path is
// allocation-free (modulo the returned Values).
func (v *Vectorizer) Warm() {
	for i := range v.Set.Features {
		v.featData(&v.Set.Features[i])
	}
}

// batchBuf pools the reusable state of one BlockingVectorsBatch call — the
// value row handed to visit and the hoisted per-feature operand loads — so
// steady-state batch scoring allocates nothing.
type batchBuf struct {
	vals []float64
	cols []*featCols
}

var batchPool = sync.Pool{New: func() any { return new(batchBuf) }}

// BlockingVectorsBatch evaluates the blocking features of pair (a, bRow) for
// every bRow in bRows, calling visit(i, values) in input order. values is
// indexed by position in Set.BlockingIdx, reused across rows, and valid only
// during the visit call. Each row computes exactly what BlockingVector
// computes — same features, same order, same arithmetic — with the scratch
// acquisition, operand loads, and Values allocation hoisted out of the
// per-pair loop.
func (v *Vectorizer) BlockingVectorsBatch(a int, bRows []int32, visit func(i int, values []float64)) {
	idx := v.Set.BlockingIdx
	s := simfn.GetScratch()
	defer simfn.PutScratch(s)
	bb := batchPool.Get().(*batchBuf)
	defer batchPool.Put(bb)
	if cap(bb.vals) < len(idx) {
		bb.vals = make([]float64, len(idx))
	}
	vals := bb.vals[:len(idx)]
	bb.cols = bb.cols[:0]
	for _, fi := range idx {
		bb.cols = append(bb.cols, v.featData(&v.Set.Features[fi]))
	}
	for i, bRow := range bRows {
		for j, fi := range idx {
			vals[j] = v.Set.Features[fi].EvalOperands(&bb.cols[j].a, a, &bb.cols[j].b, int(bRow), s)
		}
		visit(i, vals)
	}
}

// VectorizeAll converts a pair list into vectors (full feature space).
func (v *Vectorizer) VectorizeAll(pairs []table.Pair) []Vector {
	s := simfn.GetScratch()
	out := make([]Vector, len(pairs))
	for i, p := range pairs {
		out[i] = v.vector(p, nil, s)
	}
	simfn.PutScratch(s)
	return out
}
