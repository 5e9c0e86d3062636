package feature

import (
	"cmp"
	"math"
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
// Every evaluation goes through a Projection — the features one consumer
// reads, with their operand columns resolved once. Training offers the
// learner every feature (Vector, BlockingVector, VectorizeAll and
// BlockingVectorsBatch run the two all-slots projections); consumers of a
// trained model project onto what the model reads (Project,
// ProjectBlocking), and columns nothing reads are never built.
//
// It is safe for concurrent use, so map tasks on the worker pool can share
// one vectorizer and its projections.
type Vectorizer struct {
	Set *Set

	a, b *Columns // per-table operand columns

	mu  sync.RWMutex
	ids map[corrKey]*idCols // correspondence → encoded token sets

	// The all-slots projections of the full and the blocking space, built
	// on first use (Warm forces both). Racing first users each build one —
	// over the same cached columns — and the first published wins.
	allSlots [2]atomic.Pointer[Projection]
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

// NewVectorizer builds a vectorizer for the feature set over tables a and b.
func NewVectorizer(set *Set, a, b *table.Table) *Vectorizer {
	return &Vectorizer{
		Set: set,
		a:   NewColumns(a), b: NewColumns(b),
		ids: map[corrKey]*idCols{},
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

// Projection is a vectorizer restricted to the vector slots one consumer
// reads: a learned CNF's predicate positions in the blocking space, a
// forest's split features in the full space, or — for training's gen_fvs,
// which must offer the learner everything — every slot. Value rows keep
// the space's full width, so a rule or a tree indexes them unchanged; the
// slots outside the read set are never computed and hold NaN, on which
// every comparison is false, so a reader that strays outside its declared
// read set gets a wrong answer the differential tests catch, never a stale
// value. Operand columns are resolved (and, on first touch, built) when the
// projection is made, which makes the per-pair path lock-free and
// allocation-free. Safe for concurrent use.
type Projection struct {
	width int        // length of a value row
	slots []int      // read slots, ascending
	feats []*Feature // feats[k] fills slots[k]
	a, b  []Operand  // feats[k]'s resolved operand pair
	rows  sync.Pool  // *[]float64 value rows, unread slots NaN
}

// Project returns the projection of the full feature space onto the
// features read (indexes into Set.Features): value rows are indexed by
// feature ID.
func (v *Vectorizer) Project(read []int) *Projection { return v.project(false, read) }

// ProjectBlocking returns the projection of the blocking space onto the
// positions read (indexes into Set.BlockingIdx): value rows are indexed by
// blocking position, the space blocking rules are written in.
func (v *Vectorizer) ProjectBlocking(read []int) *Projection { return v.project(true, read) }

// width returns the length of a value row of the full or the blocking space.
func (v *Vectorizer) width(blocking bool) int {
	if blocking {
		return len(v.Set.BlockingIdx)
	}
	return len(v.Set.Features)
}

// project resolves the read slots of the full or the blocking space. read
// is retained.
func (v *Vectorizer) project(blocking bool, read []int) *Projection {
	p := &Projection{
		width: v.width(blocking),
		slots: read,
		feats: make([]*Feature, len(read)),
		a:     make([]Operand, len(read)),
		b:     make([]Operand, len(read)),
	}
	for k, slot := range read {
		fi := slot
		if blocking {
			fi = v.Set.BlockingIdx[slot]
		}
		f := &v.Set.Features[fi]
		var pa, pb []simfn.PackedIDs
		if f.Measure.CountBased() {
			c := v.idColsFor(f.ACol, f.BCol, f.Token)
			pa, pb = c.pa, c.pb
		}
		p.feats[k], p.a[k], p.b[k] = f, v.a.Operand(f, f.ACol, pa), v.b.Operand(f, f.BCol, pb)
	}
	p.rows.New = func() any {
		row := UnreadRow(p.width)
		return &row
	}
	return p
}

// UnreadRow returns a value row of n slots nobody has computed yet: all NaN.
// The evaluators (Projection here, serve's request scratch) overwrite the
// slots of their read set and leave the rest.
func UnreadRow(n int) []float64 {
	row := make([]float64, n)
	for i := range row {
		row[i] = math.NaN()
	}
	return row
}

// fill evaluates the read features of pair (a, b) into their slots of vals.
//
//falcon:hotpath
func (p *Projection) fill(vals []float64, a, b int, s *simfn.Scratch) {
	for k, slot := range p.slots {
		vals[slot] = p.feats[k].EvalOperands(&p.a[k], a, &p.b[k], b, s)
	}
}

// Batch evaluates the read features of pair (a, bRow) for every bRow in
// bRows, calling visit(i, values) in input order. values is one reused
// full-width row (unread slots NaN), valid only during the visit call. The
// scratch and the row are acquired once per batch, so scoring allocates
// nothing per pair.
func (p *Projection) Batch(a int, bRows []int32, visit func(i int, values []float64)) {
	s := simfn.GetScratch()
	defer simfn.PutScratch(s)
	row := p.rows.Get().(*[]float64)
	defer p.rows.Put(row)
	for i, bRow := range bRows {
		p.fill(*row, a, int(bRow), s)
		visit(i, *row)
	}
}

// vector computes a fresh, fully-read value row for pair pr.
func (p *Projection) vector(pr table.Pair, s *simfn.Scratch) Vector {
	out := Vector{Pair: pr, Values: make([]float64, p.width)}
	p.fill(out.Values, pr.A, pr.B, s)
	return out
}

// all returns the all-slots projection of the full (blocking == false) or
// the blocking space.
func (v *Vectorizer) all(blocking bool) *Projection {
	cell := &v.allSlots[0]
	if blocking {
		cell = &v.allSlots[1]
	}
	if p := cell.Load(); p != nil {
		return p
	}
	every := make([]int, v.width(blocking))
	for i := range every {
		every[i] = i
	}
	cell.CompareAndSwap(nil, v.project(blocking, every))
	return cell.Load()
}

// Vector computes the full feature vector for pair p.
func (v *Vectorizer) Vector(p table.Pair) Vector {
	s := simfn.GetScratch()
	defer simfn.PutScratch(s)
	return v.all(false).vector(p, s)
}

// BlockingVector computes only the blocking-stage features for pair p. The
// returned Values are indexed by position in Set.BlockingIdx.
func (v *Vectorizer) BlockingVector(p table.Pair) Vector {
	s := simfn.GetScratch()
	defer simfn.PutScratch(s)
	return v.all(true).vector(p, s)
}

// Warm pre-builds every column the feature set can touch, so that
// subsequent concurrent evaluation never takes a write lock.
func (v *Vectorizer) Warm() {
	v.all(false)
	v.all(true)
}

// BlockingVectorsBatch evaluates every blocking feature of pair (a, bRow)
// for each bRow in bRows — Projection.Batch over the all-slots blocking
// projection, which is what gen_fvs needs; a consumer of learned rules
// projects onto the rules' read set instead (ProjectBlocking).
func (v *Vectorizer) BlockingVectorsBatch(a int, bRows []int32, visit func(i int, values []float64)) {
	v.all(true).Batch(a, bRows, visit)
}

// VectorizeAll converts a pair list into vectors (full feature space).
func (v *Vectorizer) VectorizeAll(pairs []table.Pair) []Vector {
	s := simfn.GetScratch()
	defer simfn.PutScratch(s)
	full := v.all(false)
	out := make([]Vector, len(pairs))
	for i, p := range pairs {
		out[i] = full.vector(p, s)
	}
	return out
}
