// Package model serializes what a Falcon run learns — the blocking-rule
// sequence and the random-forest matcher, bound to a feature-space
// signature — so an EM service can train once with the crowd and re-apply
// the learned model to refreshed tables with no further crowdsourcing.
package model

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"falcon/internal/block"
	"falcon/internal/feature"
	"falcon/internal/filters"
	"falcon/internal/forest"
	"falcon/internal/mapreduce"
	"falcon/internal/rules"
	"falcon/internal/table"
)

// Version is bumped on breaking format changes.
const Version = 1

// Model is the serializable outcome of hands-off learning.
type Model struct {
	Version int `json:"version"`
	// FeatureNames is the full feature space in vector order; it must
	// regenerate identically from schema-compatible tables.
	FeatureNames []string `json:"feature_names"`
	// BlockingIdx indexes the blocking-feature subspace.
	BlockingIdx []int `json:"blocking_idx"`
	// RuleSeq is the selected blocking-rule sequence over blocking-vector
	// positions; empty means the matcher-only plan.
	RuleSeq []rules.Rule `json:"rule_seq"`
	// ClauseSel holds each rule's sample selectivity (for apply-greedy).
	ClauseSel []float64 `json:"clause_sel"`
	// Matcher is the matching-stage forest over the full feature space.
	Matcher *forest.Forest `json:"matcher"`
}

// New assembles a model from learned artifacts.
func New(set *feature.Set, seq []rules.Rule, clauseSel []float64, matcher *forest.Forest) *Model {
	m := &Model{
		Version:     Version,
		BlockingIdx: append([]int(nil), set.BlockingIdx...),
		RuleSeq:     seq,
		ClauseSel:   clauseSel,
		Matcher:     matcher,
	}
	for _, f := range set.Features {
		m.FeatureNames = append(m.FeatureNames, f.Name)
	}
	return m
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(m)
}

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("model: decoding: %w", err)
	}
	if m.Version != Version {
		return nil, fmt.Errorf("model: version %d unsupported (want %d)", m.Version, Version)
	}
	if m.Matcher == nil {
		return nil, fmt.Errorf("model: missing matcher")
	}
	return &m, nil
}

// Bind regenerates the feature space for a new table pair and verifies it
// matches the model's signature, returning the bound set.
func (m *Model) Bind(a, b *table.Table) (*feature.Set, error) {
	set := feature.Generate(a, b)
	if len(set.Features) != len(m.FeatureNames) {
		return nil, fmt.Errorf("model: feature space mismatch: tables yield %d features, model has %d",
			len(set.Features), len(m.FeatureNames))
	}
	for i, f := range set.Features {
		if f.Name != m.FeatureNames[i] {
			return nil, fmt.Errorf("model: feature %d is %q, model expects %q", i, f.Name, m.FeatureNames[i])
		}
	}
	if len(set.BlockingIdx) != len(m.BlockingIdx) {
		return nil, fmt.Errorf("model: blocking subspace mismatch")
	}
	return set, nil
}

// ReadSets derives the two sets of features the learned model reads — the
// blocking positions its rules' predicates compare (rules.CNF.Features) and
// the features its forest's trees split on (forest.Forest.SplitFeatures) —
// which are all a consumer of the model has to compute. A model can arrive
// decoded from outside input, so both are checked against the model's own
// feature-space signature: a predicate or a split outside it is an error
// here instead of an index panic where the rule or the tree is evaluated.
func (m *Model) ReadSets() (cnfRead, forestRead []int, err error) {
	nb, nf := len(m.BlockingIdx), len(m.FeatureNames)
	for _, fi := range m.BlockingIdx {
		if fi < 0 || fi >= nf {
			return nil, nil, fmt.Errorf("model: blocking index %d outside the %d-feature space", fi, nf)
		}
	}
	cnfRead = rules.ToCNF(m.RuleSeq).Features()
	if n := len(cnfRead); n > 0 && (cnfRead[0] < 0 || cnfRead[n-1] >= nb) {
		return nil, nil, fmt.Errorf("model: rule predicate outside the %d blocking features", nb)
	}
	if m.Matcher.NumFeatures != nf {
		return nil, nil, fmt.Errorf("model: matcher trained on %d features, model has %d", m.Matcher.NumFeatures, nf)
	}
	if forestRead, err = m.Matcher.SplitFeatures(); err != nil {
		return nil, nil, fmt.Errorf("model: %w", err)
	}
	return cnfRead, forestRead, nil
}

// Apply runs the stored blocking rules and matcher over a new table pair —
// no crowd involved. It returns the predicted matches and the surviving
// candidate count.
func (m *Model) Apply(cluster *mapreduce.Cluster, a, b *table.Table) ([]table.Pair, int, error) {
	return m.ApplyContext(context.Background(), cluster, a, b)
}

// ApplyContext is Apply honoring ctx cancellation, inside the blocking jobs
// and between scored pairs. Only what the model reads is computed: blocking
// verifies candidates on the CNF's predicate features, scoring evaluates the
// forest's split features, and the columns of every other feature are never
// built.
func (m *Model) ApplyContext(ctx context.Context, cluster *mapreduce.Cluster, a, b *table.Table) ([]table.Pair, int, error) {
	if cluster == nil {
		cluster = mapreduce.Default()
	}
	set, err := m.Bind(a, b)
	if err != nil {
		return nil, 0, err
	}
	_, read, err := m.ReadSets()
	if err != nil {
		return nil, 0, err
	}
	vz := feature.NewVectorizer(set, a, b)
	sc := scorer{ctx: ctx, matcher: m.Matcher, proj: vz.Project(read)}

	if len(m.RuleSeq) == 0 {
		// Matcher-only plan: every B row is a candidate of every A row.
		all := make([]int32, b.Len())
		for j := range all {
			all[j] = int32(j)
		}
		for i := 0; i < a.Len(); i++ {
			if err := sc.score(i, all); err != nil {
				return nil, 0, err
			}
		}
		return sc.matches, a.Len() * b.Len(), nil
	}

	feats := make([]*feature.Feature, len(set.BlockingIdx))
	for i, idx := range set.BlockingIdx {
		feats[i] = &set.Features[idx]
	}
	an := filters.Analyze(rules.ToCNF(m.RuleSeq), feats)
	ix := filters.NewIndexes(cluster, a)
	if _, err := ix.EnsureAll(ctx, an.NeededIndexes()); err != nil {
		return nil, 0, err
	}
	in := &block.Input{
		A: a, B: b,
		Analysis:    an,
		Indexes:     ix,
		Vectorizer:  vz,
		ClauseSel:   m.ClauseSel,
		PassIDsOnly: true,
	}
	res, err := block.Run(ctx, cluster, in, block.Choose(cluster, in, seqSel(m.ClauseSel)))
	if err != nil {
		return nil, 0, err
	}
	// Candidates come sorted by (A, B): score each A row's run as one batch.
	var bRows []int32
	for lo, hi := 0, 0; lo < len(res.Pairs); lo = hi {
		bRows = bRows[:0]
		for ; hi < len(res.Pairs) && res.Pairs[hi].A == res.Pairs[lo].A; hi++ {
			bRows = append(bRows, int32(res.Pairs[hi].B))
		}
		if err := sc.score(res.Pairs[lo].A, bRows); err != nil {
			return nil, 0, err
		}
	}
	return sc.matches, len(res.Pairs), nil
}

// ctxCheckPairs is how many pairs the scoring loop evaluates between looks
// at its context.
const ctxCheckPairs = 4096

// scorer is the apply_matcher loop: the forest's vote on each candidate's
// projected vector, into one reused value row (nothing allocated per pair
// beyond the growth of matches).
type scorer struct {
	ctx     context.Context
	matcher *forest.Forest
	proj    *feature.Projection
	pending int // pairs scored since ctx was last checked
	matches []table.Pair
}

// score appends the matches among (a, bRow), bRow ∈ bRows, in input order.
func (sc *scorer) score(a int, bRows []int32) error {
	for len(bRows) > 0 {
		if sc.pending >= ctxCheckPairs {
			if err := sc.ctx.Err(); err != nil {
				return err
			}
			sc.pending = 0
		}
		chunk := bRows[:min(len(bRows), ctxCheckPairs-sc.pending)]
		sc.proj.Batch(a, chunk, func(i int, values []float64) {
			if sc.matcher.Predict(values) {
				sc.matches = append(sc.matches, table.Pair{A: a, B: int(chunk[i])})
			}
		})
		sc.pending += len(chunk)
		bRows = bRows[len(chunk):]
	}
	return nil
}

// seqSel approximates the sequence selectivity as the product of the
// per-rule selectivities (the independence estimate of §6).
func seqSel(sel []float64) float64 {
	s := 1.0
	for _, v := range sel {
		s *= v
	}
	return s
}
