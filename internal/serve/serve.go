// Package serve is the serving half of the train/serve split: it turns a
// frozen model.MatcherArtifact into a Bundle — validated cross-references,
// resolved B-side operand columns, a filter plan bound to indexes over B,
// and a per-request scratch pool — publishes bundles through a lock-free
// Registry, and answers point-match queries with MatchOne, which runs
// block→feature→forest for one incoming A-shaped record against the frozen
// B table.
//
// There is one match kernel and this package is its second caller, not a
// copy of it. Candidates come from filters.Walker, the walker batch
// blocking runs over table stripes, here over a single probe; feature
// values come from feature.Feature.EvalOperands, the evaluator the batch
// vectorizer calls, over operand columns built by the same feature.Columns
// builders (the record side is a length-1 column in request scratch). What
// is left here is what is specific to serving: artifact resolution, the
// scratch pool, and MatchOne's control flow. The kernel is held to three
// oracles by the tests — feature.Feature.Eval for values,
// index.PrefixIndex.ReferenceProbe for probe candidates and lookup counts,
// the simfn merge/DP measures for the bit-parallel kernels — and this
// package's tests hold MatchOne to the batch answer through the wire format.
//
// The batch pipeline indexes table A and probes it with rows of B; serving
// flips the roles — the artifact carries prefix postings over B, and the
// incoming record probes them. The flip is sound because every filterable
// measure is symmetric in its two arguments (filters yield a candidate
// superset either way), and exact because every blocking strategy
// converges to "the pairs the positive CNF rule keeps": MatchOne
// re-applies the same CNF to bit-identical feature values, so its answer
// for a record equals the batch answer for that row.
package serve

import (
	"fmt"
	"slices"
	"sync"

	"falcon/internal/feature"
	"falcon/internal/filters"
	"falcon/internal/forest"
	"falcon/internal/index"
	"falcon/internal/model"
	"falcon/internal/rules"
	"falcon/internal/simfn"
	"falcon/internal/table"
	"falcon/internal/tokenize"
)

// tokSlot identifies one per-request tokenization: the record column and
// the scheme. Features sharing a slot tokenize the record once.
type tokSlot struct {
	acol int
	kind tokenize.Kind
}

// Bundle is a matcher artifact resolved for serving: the feature space, the
// frozen B-side operands of the features the model reads, the learned CNF's
// filter plan bound to indexes over B, and the forest. Nothing reachable
// from a bundle is written after NewBundle returns; per-request state
// cycles through the scratch pool.
//
// The model reads two sets of features — the positions the CNF's predicates
// compare (cnfRead) and the features the forest's trees split on
// (forestRead) — and a request computes nothing else: operand columns,
// token slots and dictionaries are resolved for their union (read) only,
// and every other per-feature entry below stays zero.
type Bundle struct {
	art *model.MatcherArtifact
	b   *table.Table
	f   *forest.Forest
	cnf rules.CNF

	aCols       map[string]int // A attribute name → record position
	nA          int
	blockingIdx []int             // blocking position → full-space feature index
	feats       []feature.Feature // full space; ACol is the record column
	cnfRead     []int             // blocking positions the CNF reads
	forestRead  []int             // features the forest reads
	read        []int             // features either reads, ascending
	opsB        []feature.Operand // per read feature: the frozen B column
	dicts       []*tokenize.Dict  // per read feature: correspondence dictionary (count-set measures)
	tokSlot     []int             // per read feature: index into tokSlots, -1 when not set-based
	tokSlots    []tokSlot
	plan        filters.Plan

	scratch sync.Pool // *reqScratch
}

// NewBundle resolves an artifact into a serving bundle: it rebuilds the
// corpora and feature space, resolves every feature's B-side operand column
// through the column builders the batch vectorizer uses (count-set columns
// come from the artifact's frozen ID rows — serving never rebuilds a
// dictionary), and binds the learned CNF's filter plan to indexes over B.
// The artifact must carry a serving payload (B table and feature specs),
// i.e. come from a completed training run or a Load. A decoded artifact is
// outside input: every cross-reference MatchOne would index through is
// checked here, once, so an inconsistent artifact is an error at publish
// time instead of a panic at request time.
//
//falcon:frozen
func NewBundle(art *model.MatcherArtifact) (*Bundle, error) {
	if art == nil || art.Matcher == nil {
		return nil, fmt.Errorf("serve: artifact has no matcher")
	}
	if art.B == nil || len(art.Feats) == 0 {
		return nil, fmt.Errorf("serve: artifact carries no serving payload (interim model-only artifact?)")
	}
	if len(art.Feats) != len(art.FeatureNames) {
		return nil, fmt.Errorf("serve: artifact has %d feature specs for %d features", len(art.Feats), len(art.FeatureNames))
	}
	bn := &Bundle{
		art:         art,
		b:           art.B,
		f:           art.Matcher,
		cnf:         rules.ToCNF(art.RuleSeq),
		aCols:       make(map[string]int, len(art.AAttrs)),
		nA:          len(art.AAttrs),
		blockingIdx: art.BlockingIdx,
	}
	for i, at := range art.AAttrs {
		bn.aCols[at.Name] = i
	}
	if err := bn.readSets(); err != nil {
		return nil, err
	}
	if err := bn.resolveFeatures(); err != nil {
		return nil, err
	}
	if err := bn.bindPlan(); err != nil {
		return nil, err
	}

	nf := len(bn.feats)
	nb := len(bn.blockingIdx)
	nt := len(bn.tokSlots)
	bn.scratch.New = func() any {
		rs := &reqScratch{
			opsA:  make([]feature.Operand, nf),
			ids:   make([][]uint32, nf),
			toks:  make([][]string, nt),
			walk:  bn.plan.NewWalker(),   // sessions stay pinned: the scratch lives and dies with the bundle's indexes
			bvals: feature.UnreadRow(nb), // slots outside the read sets are never written and stay NaN
			vals:  feature.UnreadRow(nf),
		}
		// Feature i's record operand is the length-1 window [i:i+1] of one
		// backing array per representation.
		num, ok := make([]float64, nf), make([]bool, nf)
		pack, tok := make([]simfn.PackedIDs, nf), make([][]string, nf)
		doc, norm := make([]simfn.WeightedDoc, nf), make([]string, nf)
		for i := range rs.opsA {
			rs.opsA[i] = feature.Operand{
				Num: num[i : i+1], Ok: ok[i : i+1], Pack: pack[i : i+1],
				Tok: tok[i : i+1], Doc: doc[i : i+1], Norm: norm[i : i+1],
			}
		}
		return rs
	}
	return bn, nil
}

// readSets derives what the model reads (model.Model.ReadSets, which also
// refuses a rule or a split indexing outside the feature space — it would
// otherwise panic inside MatchOne) and the union a request has to prepare.
func (bn *Bundle) readSets() error {
	var err error
	if bn.cnfRead, bn.forestRead, err = bn.art.TrainedModel().ReadSets(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	bn.read = slices.Clone(bn.forestRead)
	for _, pos := range bn.cnfRead {
		bn.read = append(bn.read, bn.blockingIdx[pos])
	}
	slices.Sort(bn.read)
	bn.read = slices.Compact(bn.read)
	return nil
}

// resolveFeatures rebuilds the feature space — every spec is checked — and,
// for the features the model reads, the frozen B-side operand, sharing
// per-(column, scheme) columns across features. Corpora, packed
// correspondence columns and token slots no read feature needs are not
// built.
func (bn *Bundle) resolveFeatures() error {
	art, nb := bn.art, bn.b.Len()
	for i := range art.Corpora {
		if c := &art.Corpora[i]; len(c.Toks) != len(c.DFs) {
			return fmt.Errorf("serve: corpus %d has %d tokens for %d document frequencies", i, len(c.Toks), len(c.DFs))
		}
	}
	corrs := make(map[string]*model.CorrData, len(art.Corrs))
	for i := range art.Corrs {
		c := &art.Corrs[i]
		if len(c.RowsB) != nb {
			return fmt.Errorf("serve: correspondence %d encodes %d rows, B has %d", i, len(c.RowsB), nb)
		}
		corrs[model.CorrKey(c.ACol, c.BCol, c.Kind)] = c
	}

	// Signatures are a serving-side resolution of the frozen ID rows — the
	// artifact wire format is untouched. Features of one correspondence share
	// the packed column, features of one corpus the rebuilt corpus.
	cols := feature.NewColumns(bn.b)
	corpora := make([]*simfn.Corpus, len(art.Corpora))
	packed := map[string][]simfn.PackedIDs{}
	slotOf := map[tokSlot]int{}
	nf := len(art.Feats)
	isRead := make([]bool, nf)
	for _, fi := range bn.read {
		isRead[fi] = true
	}
	bn.feats = make([]feature.Feature, nf)
	bn.opsB = make([]feature.Operand, nf)
	bn.dicts = make([]*tokenize.Dict, nf)
	bn.tokSlot = make([]int, nf)
	for i := range art.Feats {
		sp := &art.Feats[i]
		if sp.ACol < 0 || sp.ACol >= bn.nA || sp.BCol < 0 || sp.BCol >= bn.b.Schema.Len() {
			return fmt.Errorf("serve: feature %q reads columns (%d, %d) outside the %d×%d schemas", sp.Name, sp.ACol, sp.BCol, bn.nA, bn.b.Schema.Len())
		}
		if sp.Measure.CorpusBased() && (sp.Corpus < 0 || sp.Corpus >= len(art.Corpora)) {
			return fmt.Errorf("serve: feature %q references missing corpus %d", sp.Name, sp.Corpus)
		}
		key := model.CorrKey(sp.ACol, sp.BCol, sp.Token)
		if sp.Measure.CountBased() && (corrs[key] == nil || art.Dicts[key] == nil) {
			return fmt.Errorf("serve: artifact missing correspondence %s", key)
		}
		var corpus *simfn.Corpus
		if isRead[i] && sp.Measure.CorpusBased() {
			if corpora[sp.Corpus] == nil {
				c := &art.Corpora[sp.Corpus]
				corpora[sp.Corpus] = simfn.CorpusFromState(c.Docs, c.Toks, c.DFs)
			}
			corpus = corpora[sp.Corpus]
		}
		bn.feats[i] = feature.NewBoundFeature(i, sp.Name, sp.Measure, sp.Token, sp.ACol, sp.BCol, sp.Attr, sp.Blockable, corpus)
		bn.tokSlot[i] = -1
		if !isRead[i] {
			continue
		}
		if sp.Measure.SetBased() {
			k := tokSlot{sp.ACol, sp.Token}
			slot, ok := slotOf[k]
			if !ok {
				slot = len(bn.tokSlots)
				slotOf[k] = slot
				bn.tokSlots = append(bn.tokSlots, k)
			}
			bn.tokSlot[i] = slot
		}
		var pk []simfn.PackedIDs
		if sp.Measure.CountBased() {
			if pk = packed[key]; pk == nil {
				pk = simfn.PackRows(corrs[key].RowsB)
				packed[key] = pk
			}
			bn.dicts[i] = art.Dicts[key]
		}
		bn.opsB[i] = cols.Operand(&bn.feats[i], sp.BCol, pk)
	}
	return nil
}

// bindPlan derives the filter plan of the learned CNF over the role-flipped
// feature space (probe record against indexed B) and binds it the way batch
// does, through a filters.Indexes — here over B, filled in-process: prefix
// indexes come from the artifact's postings, hash and tree indexes are
// rebuilt from the B table (cheap and deterministic). An empty CNF (the
// matcher-only plan) binds an empty plan, whose walker prunes nothing.
func (bn *Bundle) bindPlan() error {
	flipped := make([]*feature.Feature, len(bn.blockingIdx))
	for pos, fi := range bn.blockingIdx {
		// A and B columns swap roles: the spec's "A" side is the indexed B.
		f := bn.feats[fi]
		f.ACol, f.BCol = f.BCol, f.ACol
		flipped[pos] = &f
	}
	an := filters.Analyze(bn.cnf, flipped)

	ix := filters.NewIndexes(nil, bn.b)
	for i := range bn.art.Prefix {
		pd := &bn.art.Prefix[i]
		if len(pd.SetLen) != bn.b.Len() {
			return fmt.Errorf("serve: prefix index %s covers %d rows, B has %d", pd.Spec().Key(), len(pd.SetLen), bn.b.Len())
		}
		idx, err := index.PrefixFromParts(pd.Token, pd.Threshold, index.OrderingOf(pd.Ranked), pd.Post, pd.SetLen)
		if err != nil {
			return fmt.Errorf("serve: prefix index %s: %w", pd.Spec().Key(), err)
		}
		ix.InstallPrefix(pd.Spec(), idx)
	}
	for _, spec := range an.NeededIndexes() {
		switch spec.Kind {
		case filters.Equivalence:
			ix.InstallHash(spec.ACol, index.BuildHash(bn.b, spec.ACol))
		case filters.Range:
			ix.InstallTree(spec.ACol, index.BuildTree(bn.b, spec.ACol))
		}
	}
	var err error
	if bn.plan, err = ix.Bind(an, nil); err != nil {
		return fmt.Errorf("serve: artifact does not cover its own rules: %w", err)
	}
	return nil
}

// Artifact returns the bundle's underlying (frozen) artifact.
func (bn *Bundle) Artifact() *model.MatcherArtifact { return bn.art }

// BRows returns the size of the frozen reference table.
func (bn *Bundle) BRows() int { return bn.b.Len() }

// BValues returns one frozen B row's values (the table's backing slice;
// callers must not mutate it).
func (bn *Bundle) BValues(row int) []string { return bn.b.Tuples[row].Values }

// BNames returns the frozen B table's column names.
func (bn *Bundle) BNames() []string { return bn.b.Schema.Names() }

// ColNames returns the A-schema column names a record must follow.
func (bn *Bundle) ColNames() []string {
	out := make([]string, len(bn.art.AAttrs))
	for i, at := range bn.art.AAttrs {
		out[i] = at.Name
	}
	return out
}

// Record builds the A-schema-ordered value slice from named values.
// Unknown names are rejected; absent columns become empty (missing).
func (bn *Bundle) Record(values map[string]string) ([]string, error) {
	rec := make([]string, bn.nA)
	for name, v := range values {
		col, ok := bn.aCols[name]
		if !ok {
			return nil, fmt.Errorf("serve: record column %q not in schema %v", name, bn.ColNames())
		}
		rec[col] = v
	}
	return rec, nil
}
