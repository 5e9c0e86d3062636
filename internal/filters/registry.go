package filters

import (
	"context"
	"fmt"
	"sync"
	"time"

	"falcon/internal/feature"
	"falcon/internal/index"
	"falcon/internal/mapreduce"
	"falcon/internal/table"
	"falcon/internal/tokenize"
)

// Indexes is the registry of built filter indexes over table A. It is
// filled incrementally — generic pieces (token orderings, hash and tree
// indexes) can be built during al_matcher's crowd time, predicate-specific
// prefix indexes during eval_rules (§10.2 optimization 1) — and reused.
type Indexes struct {
	cluster *mapreduce.Cluster
	a       *table.Table

	hash   map[int]*index.HashIndex
	tree   map[int]*index.TreeIndex
	ord    map[ordKey]*index.Ordering
	prefix map[specKey]*index.PrefixIndex

	// bcols caches probe-side columns dictionary-encoded under a prefix
	// index's ordering, so probing B re-tokenizes nothing. Built whole-
	// column under mu on first access (like feature.Vectorizer's caches)
	// and immutable afterwards.
	mu    sync.RWMutex
	bcols map[bcolKey][][]uint32
}

type ordKey struct {
	col  int
	kind tokenize.Kind
}

// bcolKey identifies one probe-side encoded column: the probed table and
// column, encoded under the ordering of (A column, tokenization).
type bcolKey struct {
	tab *table.Table
	col int
	ord ordKey
}

// NewIndexes returns an empty registry for table a on the cluster.
func NewIndexes(cluster *mapreduce.Cluster, a *table.Table) *Indexes {
	return &Indexes{
		cluster: cluster,
		a:       a,
		hash:    map[int]*index.HashIndex{},
		tree:    map[int]*index.TreeIndex{},
		ord:     map[ordKey]*index.Ordering{},
		prefix:  map[specKey]*index.PrefixIndex{},
		bcols:   map[bcolKey][][]uint32{},
	}
}

// encodedCol returns the probing table's column for pp encoded as sorted
// token-ID sets under pp's index ordering (PlanPred.EncodeProbe per cell),
// building it on first access, so probing B re-tokenizes nothing.
func (ix *Indexes) encodedCol(b *table.Table, pp *PlanPred) [][]uint32 {
	k := bcolKey{b, pp.Feat.BCol, ordKey{pp.Feat.ACol, pp.prefix.Kind}}
	ix.mu.RLock()
	rows, hit := ix.bcols[k]
	ix.mu.RUnlock()
	if hit {
		return rows
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if rows, hit := ix.bcols[k]; hit {
		return rows
	}
	rows = make([][]uint32, b.Len())
	for row := range rows {
		rows[row] = pp.EncodeProbe(nil, b.Value(row, k.col))
	}
	ix.bcols[k] = rows //falcon:allow streambound one entry per (table, column, ordering) triple — bounded by the schema, not the record stream
	return rows
}

// InstallHash, InstallTree and InstallPrefix register an index built outside
// the registry's MapReduce jobs: the serving path rebuilds hash and tree
// indexes over the frozen B table in-process and restores prefix indexes
// from the artifact's postings, then binds the same Plan batch does.
func (ix *Indexes) InstallHash(col int, h *index.HashIndex) { ix.hash[col] = h }

// InstallTree registers a tree index built in-process (see InstallHash).
func (ix *Indexes) InstallTree(col int, t *index.TreeIndex) { ix.tree[col] = t }

// InstallPrefix registers a prefix index restored from its parts, together
// with its ordering (see InstallHash).
func (ix *Indexes) InstallPrefix(spec IndexSpec, idx *index.PrefixIndex) {
	ix.ord[ordKey{spec.ACol, spec.Token}] = idx.Ord()
	ix.prefix[spec.key()] = idx
}

// EnsureOrdering builds (or reuses) the global token ordering for a
// (column, tokenization) pair, returning the cluster time spent (0 if
// cached).
func (ix *Indexes) EnsureOrdering(ctx context.Context, col int, kind tokenize.Kind) (time.Duration, error) {
	k := ordKey{col, kind}
	if _, ok := ix.ord[k]; ok {
		return 0, nil
	}
	ord, d, err := index.BuildOrderingMR(ctx, ix.cluster, ix.a, col, kind)
	if err != nil {
		return 0, err
	}
	ix.ord[k] = ord
	return d, nil
}

// EnsureHash builds (or reuses) the hash index for a column.
func (ix *Indexes) EnsureHash(ctx context.Context, col int) (time.Duration, error) {
	if _, ok := ix.hash[col]; ok {
		return 0, nil
	}
	h, d, err := index.BuildHashMR(ctx, ix.cluster, ix.a, col)
	if err != nil {
		return 0, err
	}
	ix.hash[col] = h
	return d, nil
}

// EnsureTree builds (or reuses) the tree index for a column.
func (ix *Indexes) EnsureTree(ctx context.Context, col int) (time.Duration, error) {
	if _, ok := ix.tree[col]; ok {
		return 0, nil
	}
	t, d, err := index.BuildTreeMR(ctx, ix.cluster, ix.a, col)
	if err != nil {
		return 0, err
	}
	ix.tree[col] = t
	return d, nil
}

// EnsureSpec builds (or reuses) the index for one spec, including any token
// ordering a prefix index depends on. A cached prefix index is reused only
// if its build threshold is low enough for the spec.
func (ix *Indexes) EnsureSpec(ctx context.Context, spec IndexSpec) (time.Duration, error) {
	switch spec.Kind {
	case Equivalence:
		return ix.EnsureHash(ctx, spec.ACol)
	case Range:
		return ix.EnsureTree(ctx, spec.ACol)
	case PrefixSet, ShareGram:
		k := spec.key()
		if old, ok := ix.prefix[k]; ok && old.Threshold <= spec.Threshold {
			return 0, nil
		}
		dOrd, err := ix.EnsureOrdering(ctx, spec.ACol, spec.Token)
		if err != nil {
			return 0, err
		}
		idx, dIdx, err := index.BuildPrefixMR(ctx, ix.cluster, ix.a, spec.ACol, spec.Token, ix.ord[ordKey{spec.ACol, spec.Token}], spec.Measure, spec.Threshold)
		if err != nil {
			return 0, err
		}
		ix.prefix[k] = idx
		return dOrd + dIdx, nil
	default:
		panic("filters: EnsureSpec on unfilterable kind")
	}
}

// EnsureAll builds every spec, returning total cluster time.
func (ix *Indexes) EnsureAll(ctx context.Context, specs []IndexSpec) (time.Duration, error) {
	var total time.Duration
	for _, s := range specs {
		d, err := ix.EnsureSpec(ctx, s)
		if err != nil {
			return total, err
		}
		total += d
	}
	return total, nil
}

// SpecBytes returns the built size of the spec's index (0 if absent).
func (ix *Indexes) SpecBytes(spec IndexSpec) int64 {
	switch spec.Kind {
	case Equivalence:
		if h := ix.hash[spec.ACol]; h != nil {
			return h.SizeBytes()
		}
	case Range:
		if t := ix.tree[spec.ACol]; t != nil {
			return t.SizeBytes()
		}
	case PrefixSet, ShareGram:
		if p := ix.prefix[spec.key()]; p != nil {
			b := p.SizeBytes()
			if o := ix.ord[ordKey{spec.ACol, spec.Token}]; o != nil {
				b += o.SizeBytes()
			}
			return b
		}
	}
	return 0
}

// ClauseBytes sums the unique index sizes a clause's filters need.
func (ix *Indexes) ClauseBytes(ci ClauseInfo) int64 {
	seen := map[specKey]bool{}
	var total int64
	for _, bp := range ci.Preds {
		if bp.Kind == Unfilterable {
			continue
		}
		spec := bp.indexSpec()
		k := spec.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		total += ix.SpecBytes(spec)
	}
	return total
}

// TotalBytes sums all built index sizes.
func (ix *Indexes) TotalBytes() int64 {
	var total int64
	for _, h := range ix.hash {
		total += h.SizeBytes()
	}
	for _, t := range ix.tree {
		total += t.SizeBytes()
	}
	for _, o := range ix.ord {
		total += o.SizeBytes()
	}
	for _, p := range ix.prefix {
		total += p.SizeBytes()
	}
	return total
}

// Plan is a CNF's filter analysis bound to built indexes: the predicates of
// the clauses that can prune, clause by clause, each holding the index that
// serves it. It is what a Walker runs, for a whole table stripe in batch and
// for one record when serving. Immutable once bound.
type Plan struct {
	Preds []PlanPred
}

// PlanPred is one filterable predicate bound to its index.
type PlanPred struct {
	BoundPred
	keepMissing bool // the predicate accepts feature.Missing
	endsClause  bool // last predicate of its clause
	hash        *index.HashIndex
	tree        *index.TreeIndex
	prefix      *index.PrefixIndex
}

// Bind resolves the filterable clauses among use (nil: all of them) to the
// registry's indexes. It fails if an index the analysis needs was never
// built, or was built at too high a threshold for its predicate.
func (ix *Indexes) Bind(a *Analysis, use []int) (Plan, error) {
	if use == nil {
		use = a.FilterableClauses()
	}
	n := 0
	for _, ci := range use {
		if a.Clauses[ci].Filterable {
			n += len(a.Clauses[ci].Preds)
		}
	}
	p := Plan{Preds: make([]PlanPred, 0, n)}
	for _, ci := range use {
		if !a.Clauses[ci].Filterable {
			continue
		}
		for _, bp := range a.Clauses[ci].Preds {
			pp := PlanPred{BoundPred: bp, keepMissing: bp.Pred.Eval(feature.Missing)}
			spec := bp.indexSpec()
			switch bp.Kind {
			case Equivalence:
				pp.hash = ix.hash[spec.ACol]
			case Range:
				pp.tree = ix.tree[spec.ACol]
			default:
				pp.prefix = ix.prefix[spec.key()]
			}
			if pp.hash == nil && pp.tree == nil && pp.prefix == nil {
				return Plan{}, fmt.Errorf("filters: no index built for %s", spec.Key())
			}
			if pp.prefix != nil && pp.prefix.Threshold > bp.Threshold {
				return Plan{}, fmt.Errorf("filters: prefix index %s built at threshold %g, predicate needs %g",
					spec.Key(), pp.prefix.Threshold, bp.Threshold)
			}
			p.Preds = append(p.Preds, pp)
		}
		p.Preds[len(p.Preds)-1].endsClause = true
	}
	return p, nil
}

// EncodeProbe appends a raw cell's probe operand for a prefix-kind predicate
// to dst: its token IDs under the index ordering, sorted (nil dst: a fresh,
// exactly-sized slice). The cell is tokenized as-is (no missing-value
// check; a missing marker probes like any other short string, which is
// sound for a filter), and tokens the ordering does not know get extension
// IDs — the Prober.ProbeIDsInto contract.
func (pp *PlanPred) EncodeProbe(dst []uint32, cell string) []uint32 {
	toks := tokenize.Set(pp.prefix.Kind, cell)
	if dst == nil {
		dst = make([]uint32, 0, len(toks))
	}
	return pp.prefix.Ord().Dict().EncodeSorted(dst, toks)
}

// Probe is one predicate's probe operand, by value, so a table row and a
// served record probe alike: the raw cell for Equivalence (the hash index
// normalizes), the parsed cell for Range (table.ParseNum), the encoded
// token set for PrefixSet/ShareGram (PlanPred.EncodeProbe).
type Probe struct {
	Raw string
	Num float64
	Ok  bool
	IDs []uint32
}

// Walker runs a Plan: the C_Q ← ∩_q ∪_p FindProbableCandidates(V, p) step of
// Algorithm 1, for one probe at a time. The caller sets Probe(i) for every
// Plan.Preds[i] and calls Candidates; every result lands in buffers the
// walker owns and reuses, and each prefix predicate probes through an index
// session pinned for the walker's lifetime. Not safe for concurrent use;
// use it in place (it is a value only so a batch can keep it on its stack).
type Walker struct {
	preds []PlanPred
	state []predState
	inter [2][]int32 // intersection double buffer
}

// predState is the walker's mutable state for one predicate.
type predState struct {
	probe  Probe
	prober *index.Prober // pinned session; nil unless a prefix kind
	bits   []uint64      // range-probe bitmap over the indexed tuples, zero between probes; nil unless a Range kind
	buf    []int32       // prefix or range probe result
	union  [2][]int32    // union double buffer of the clause this predicate opens
}

// NewWalker returns a walker over p with its index sessions pinned; pair it
// with Release unless it lives as long as the plan's indexes do.
func (p Plan) NewWalker() Walker {
	w := Walker{preds: p.Preds, state: make([]predState, len(p.Preds))}
	for i := range p.Preds {
		if idx := p.Preds[i].prefix; idx != nil {
			//falcon:allow scratchescape the walker owns the session; Release returns every prober
			w.state[i].prober = idx.AcquireProber()
		}
		if tree := p.Preds[i].tree; tree != nil {
			w.state[i].bits = make([]uint64, (tree.Len()+63)/64)
		}
	}
	return w
}

// Release returns the walker's index sessions to their pools.
func (w *Walker) Release() {
	for i := range w.state {
		if pr := w.state[i].prober; pr != nil {
			pr.Release()
		}
	}
}

// Probe returns predicate i's probe operand, for the caller to set.
func (w *Walker) Probe(i int) *Probe { return &w.state[i].probe }

// Candidates intersects the plan's clauses for the current probe. all=true
// means no clause pruned (every indexed tuple is a candidate); otherwise
// cands is sorted, duplicate-free and valid until the next call. cost
// counts index probes for the MapReduce cost model. Alternating the
// destination buffer guarantees an accumulator never aliases the buffer
// being written.
//
//falcon:hotpath
func (w *Walker) Candidates() (cands []int32, all bool, cost int64) {
	first, start, dst := true, 0, 0
	for i := range w.preds {
		if !w.preds[i].endsClause {
			continue
		}
		got, isAll, n := w.clause(start, i+1)
		start = i + 1
		cost += n
		if isAll {
			continue
		}
		if first {
			cands, first = got, false
			continue
		}
		w.inter[dst] = intersect(w.inter[dst][:0], cands, got)
		cands = w.inter[dst]
		dst ^= 1
		if len(cands) == 0 {
			return nil, false, cost
		}
	}
	if first {
		return nil, true, cost
	}
	return cands, false, cost
}

// clause unions the candidates of predicates [start, end) — one clause, a
// disjunction; one predicate that cannot prune makes the whole clause
// unable to.
//
//falcon:hotpath
func (w *Walker) clause(start, end int) (cands []int32, all bool, cost int64) {
	u, dst := &w.state[start].union, 0
	for i := start; i < end; i++ {
		got, isAll, n := w.pred(i)
		cost += n
		if isAll {
			return nil, true, cost
		}
		if i == start {
			cands = got
			continue
		}
		u[dst] = union(u[dst][:0], cands, got)
		cands = u[dst]
		dst ^= 1
	}
	return cands, false, cost
}

// pred returns the indexed tuples that may satisfy predicate i for the
// current probe, sorted ascending.
//
//falcon:hotpath
func (w *Walker) pred(i int) (cands []int32, all bool, cost int64) {
	pp, st := &w.preds[i], &w.state[i]
	switch pp.Kind {
	case Equivalence:
		got := pp.hash.Probe(st.probe.Raw)
		return got, false, int64(1 + len(got))
	case Range:
		if !st.probe.Ok {
			// The feature is Missing against every indexed tuple: nothing can
			// be pruned if the keep predicate accepts Missing (e.g. −1 ≤ v),
			// everything otherwise.
			return nil, pp.keepMissing, 1
		}
		lo, hi := RangeBounds(pp.Feat.Measure, st.probe.Num, pp.Threshold)
		// Indexed unparseables also evaluate to Missing → keep.
		st.buf = pp.tree.ProbeRangeInto(st.buf[:0], st.bits, lo, hi, pp.keepMissing)
		return st.buf, false, int64(1 + len(st.buf))
	default: // PrefixSet, ShareGram
		var probes int64
		st.buf, probes = st.prober.ProbeIDsInto(pp.Feat.Measure, pp.Threshold, st.probe.IDs, st.buf[:0])
		return st.buf, false, probes + 1
	}
}

// RuleCandidatesBatch walks the filterable clauses among use (indexes into
// a.Clauses; nil uses all) for every B row in rows, calling
// visit(i, cands, all, cost) in input order. One walker serves the whole
// batch: each prefix predicate pins one probe session, the encoded probe
// columns are resolved once, and probe, union, and intersection results
// land in buffers reused across rows. cands is valid only during the visit
// call. Every index the clauses need must have been built (EnsureAll).
func (ix *Indexes) RuleCandidatesBatch(a *Analysis, use []int, b *table.Table, rows []int, visit func(i int, cands []int32, all bool, cost int64)) {
	plan, err := ix.Bind(a, use)
	if err != nil {
		panic(err)
	}
	w := plan.NewWalker()
	defer w.Release()
	var cols [][][]uint32 // per prefix predicate: the encoded probe column
	for i := range plan.Preds {
		if pp := &plan.Preds[i]; pp.prefix != nil {
			if cols == nil {
				cols = make([][][]uint32, len(plan.Preds))
			}
			cols[i] = ix.encodedCol(b, pp)
		}
	}
	for ri, row := range rows {
		for i := range plan.Preds {
			pp, pv := &plan.Preds[i], w.Probe(i)
			switch pp.Kind {
			case Equivalence:
				pv.Raw = b.Value(row, pp.Feat.BCol)
			case Range:
				pv.Num, pv.Ok = table.ParseNum(b.Value(row, pp.Feat.BCol))
			default:
				pv.IDs = cols[i][row]
			}
		}
		cands, all, cost := w.Candidates()
		visit(ri, cands, all, cost)
	}
}

// union appends the sorted de-duplicated union of a and b to dst. dst must
// not alias a or b.
func union(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// intersect appends the sorted intersection of a and b to dst. dst must
// not alias a or b.
func intersect(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}
