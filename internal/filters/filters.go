// Package filters implements Falcon's filter inference (§7.4): given the
// positive CNF rule Q produced from a blocking-rule sequence, it decides
// which index-based filter serves each predicate, which indexes must be
// built, and how to compute candidate tuples for a probe tuple b ∈ B
// (the FindProbableCandidates procedure of Algorithm 1).
//
// A filter is a necessary condition: if it rejects (a,b), the predicate is
// guaranteed false; survivors still need predicate evaluation. Predicates
// that admit no sound filter (e.g. "jaccard ≤ v", which asks for
// *dissimilarity*) are Unfilterable; a clause containing one contributes no
// pruning, and the intersection in Algorithm 1 simply skips it.
package filters

import (
	"fmt"
	"math"

	"falcon/internal/feature"
	"falcon/internal/rules"
	"falcon/internal/simfn"
	"falcon/internal/tokenize"
)

// Kind classifies the filter serving a predicate.
type Kind int

const (
	// Unfilterable predicates admit no index filter.
	Unfilterable Kind = iota
	// Equivalence uses a hash index (exact_match = 1).
	Equivalence
	// Range uses a tree index (abs_diff/rel_diff ≤ v).
	Range
	// PrefixSet uses prefix+length+position filters over an inverted index
	// (Jaccard/Dice/Cosine/Overlap ≥ v).
	PrefixSet
	// ShareGram uses a 3-gram share-token filter (Levenshtein ≥ v, v ≥ 2/3).
	ShareGram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Unfilterable:
		return "unfilterable"
	case Equivalence:
		return "equivalence"
	case Range:
		return "range"
	case PrefixSet:
		return "prefix-set"
	case ShareGram:
		return "share-gram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// levenshteinFilterMin is the smallest Levenshtein similarity threshold for
// which the shared-3-gram bound is sound (max+2 − 3(1−t)·max ≥ 1 for all
// lengths requires t ≥ 2/3).
const levenshteinFilterMin = 2.0 / 3.0

// BoundPred is a CNF predicate bound to its feature metadata and filter.
type BoundPred struct {
	Pred rules.Predicate
	Feat *feature.Feature
	Kind Kind
	// Threshold is the similarity threshold (PrefixSet/ShareGram) or range
	// radius parameter (Range).
	Threshold float64
}

// Classify determines the filter kind for a keep-side predicate.
func Classify(p rules.Predicate, f *feature.Feature) (Kind, float64) {
	switch f.Measure {
	case simfn.MExactMatch:
		// Must the value be exactly 1 (equal)?
		if p.Eval(1) && !p.Eval(0) {
			return Equivalence, 1
		}
		return Unfilterable, 0
	case simfn.MAbsDiff, simfn.MRelDiff:
		// Distances: keep-side filterable when bounded above.
		if p.Op == rules.LT || p.Op == rules.LE {
			if f.Measure == simfn.MRelDiff && p.Value >= 1 {
				return Unfilterable, 0
			}
			return Range, p.Value
		}
		return Unfilterable, 0
	case simfn.MJaccard, simfn.MDice, simfn.MCosine, simfn.MOverlap:
		if (p.Op == rules.GT || p.Op == rules.GE) && p.Value > 0 {
			return PrefixSet, p.Value
		}
		return Unfilterable, 0
	case simfn.MLevenshtein:
		if (p.Op == rules.GT || p.Op == rules.GE) && p.Value >= levenshteinFilterMin {
			return ShareGram, p.Value
		}
		return Unfilterable, 0
	default:
		return Unfilterable, 0
	}
}

// ClauseInfo is one CNF clause (disjunction) with bound predicates. The
// clause prunes only if every disjunct is filterable (candidates are the
// union over disjuncts).
type ClauseInfo struct {
	Preds      []BoundPred
	Filterable bool
}

// Analysis is the filter plan for a CNF rule.
type Analysis struct {
	CNF     rules.CNF
	Clauses []ClauseInfo
	// Feats maps vector positions to features, for predicate evaluation.
	Feats []*feature.Feature
}

// Analyze binds each CNF predicate to its feature (via the blocking-feature
// index space) and classifies its filter. blockingFeats[i] must be the
// feature behind vector position i.
func Analyze(cnf rules.CNF, blockingFeats []*feature.Feature) *Analysis {
	a := &Analysis{CNF: cnf, Feats: blockingFeats}
	for _, clause := range cnf.Clauses {
		ci := ClauseInfo{Filterable: len(clause) > 0}
		for _, p := range clause {
			f := blockingFeats[p.Feature]
			kind, thr := Classify(p, f)
			if kind == Unfilterable {
				ci.Filterable = false
			}
			ci.Preds = append(ci.Preds, BoundPred{Pred: p, Feat: f, Kind: kind, Threshold: thr})
		}
		a.Clauses = append(a.Clauses, ci)
	}
	return a
}

// FilterableClauses returns the indexes of clauses that can prune.
func (a *Analysis) FilterableClauses() []int {
	var out []int
	for i, c := range a.Clauses {
		if c.Filterable {
			out = append(out, i)
		}
	}
	return out
}

// IndexSpec identifies one index to build over table A.
type IndexSpec struct {
	Kind    Kind
	ACol    int
	Token   tokenize.Kind // PrefixSet/ShareGram
	Measure simfn.Measure // PrefixSet/ShareGram: measure driving prefix length
	// Threshold is the minimal threshold among predicates served, which
	// yields the longest (most conservative) prefix.
	Threshold float64
}

// Key returns a canonical identity for the physical index this spec needs,
// used to match queued background builds against the final rule set.
func (s IndexSpec) Key() string {
	return fmt.Sprintf("%s/%d/%s/%s", s.Kind, s.ACol, s.Token, s.Measure)
}

// specKey collapses specs that share one physical index.
type specKey struct {
	kind    Kind
	col     int
	token   tokenize.Kind
	measure simfn.Measure
}

func (s IndexSpec) key() specKey { return specKey{s.Kind, s.ACol, s.Token, s.Measure} }

// NeededIndexes returns the de-duplicated index specs for all filterable
// clauses, merging thresholds downward so one index serves every predicate
// on the same (column, tokenization, measure).
func (a *Analysis) NeededIndexes() []IndexSpec {
	merged := map[specKey]IndexSpec{}
	var order []specKey
	for _, c := range a.Clauses {
		if !c.Filterable {
			continue
		}
		for _, bp := range c.Preds {
			spec := bp.indexSpec()
			k := spec.key()
			if prev, ok := merged[k]; ok {
				if spec.Threshold < prev.Threshold {
					prev.Threshold = spec.Threshold
					merged[k] = prev
				}
				continue
			}
			merged[k] = spec
			order = append(order, k)
		}
	}
	out := make([]IndexSpec, 0, len(order))
	for _, k := range order {
		out = append(out, merged[k])
	}
	return out
}

func (bp BoundPred) indexSpec() IndexSpec {
	switch bp.Kind {
	case Equivalence:
		return IndexSpec{Kind: Equivalence, ACol: bp.Feat.ACol}
	case Range:
		return IndexSpec{Kind: Range, ACol: bp.Feat.ACol}
	case PrefixSet:
		return IndexSpec{Kind: PrefixSet, ACol: bp.Feat.ACol, Token: bp.Feat.Token, Measure: bp.Feat.Measure, Threshold: bp.Threshold}
	case ShareGram:
		return IndexSpec{Kind: ShareGram, ACol: bp.Feat.ACol, Token: tokenize.Gram3, Measure: simfn.MLevenshtein, Threshold: bp.Threshold}
	default:
		panic("filters: no index for unfilterable predicate")
	}
}

// RangeBounds computes the tree-index probe window for a Range predicate
// given the probe tuple's numeric value y: abs_diff ≤ v → [y−v, y+v];
// rel_diff ≤ v → [−|y|/(1−v), |y|/(1−v)] (a sound superset for v < 1).
func RangeBounds(m simfn.Measure, y, v float64) (lo, hi float64) {
	switch m {
	case simfn.MAbsDiff:
		return y - v, y + v
	case simfn.MRelDiff:
		r := math.Abs(y) / (1 - v)
		return -r, r
	default:
		panic("filters: RangeBounds on non-range measure " + m.String())
	}
}
