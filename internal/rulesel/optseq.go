package rulesel

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"falcon/internal/rules"
)

// Weights are the α, β, γ of the §6 sequence score
//
//	score = α·prec − β·sel − γ·time.
//
// Applications trade precision (matches lost to blocking) against candidate
// set size (sel) and blocking run time.
type Weights struct {
	Alpha, Beta, Gamma float64
	// MaxEnumRules caps subset enumeration; if more rules are retained,
	// only the top rules by rank ([1−sel]/time) enter enumeration. Every
	// subset is scored, so the work doubles per rule: values above 16 (65 535
	// subsets) are treated as 16.
	MaxEnumRules int
}

// maxEnumRules bounds Weights.MaxEnumRules: unionTable gives each sample
// pair a uint16 signature and holds one entry per subset.
const maxEnumRules = 16

// DefaultWeights favors precision strongly, as Falcon does: losing true
// matches to blocking is far costlier than a somewhat larger candidate set.
func DefaultWeights() Weights {
	return Weights{Alpha: 1.0, Beta: 0.05, Gamma: 0.01, MaxEnumRules: 12}
}

func (w Weights) withDefaults() Weights {
	d := DefaultWeights()
	if w.Alpha == 0 && w.Beta == 0 && w.Gamma == 0 {
		w.Alpha, w.Beta, w.Gamma = d.Alpha, d.Beta, d.Gamma
	}
	if w.MaxEnumRules <= 0 {
		w.MaxEnumRules = d.MaxEnumRules
	}
	w.MaxEnumRules = min(w.MaxEnumRules, maxEnumRules)
	return w
}

// SeqChoice is a scored rule sequence.
type SeqChoice struct {
	Seq         []EvaluatedRule
	Score       float64
	Precision   float64 // lower bound on sequence precision (§6)
	Selectivity float64
	Time        float64 // expected per-pair evaluation cost
	CovCount    int
}

// unionTable returns, for every subset mask of pool (bit i = pool[i]), the
// number of sample pairs at least one rule of the subset drops:
// table[mask] = |∪_{i∈mask} cov(pool[i])|. One pass over the coverage
// bitmaps gives each pair a signature — which rules drop it; the pairs are
// histogrammed by the complement, the set of rules that keep them, and a
// sum-over-supersets pass turns the histogram into "pairs every rule of
// mask keeps". The union count is the sample size less that. len(pool) is
// at most maxEnumRules, the width of a signature.
func unionTable(pool []EvaluatedRule) []int32 {
	sigs := make([]uint16, pool[0].Coverage.Len())
	for i, r := range pool {
		if r.Coverage.Len() != len(sigs) {
			panic(fmt.Sprintf("rulesel: coverage length mismatch %d vs %d", r.Coverage.Len(), len(sigs)))
		}
		bit := uint16(1) << i
		r.Coverage.OnesIterate(func(j int) bool {
			sigs[j] |= bit
			return true
		})
	}
	table := make([]int32, 1<<len(pool))
	full := uint16(len(table) - 1)
	for _, sig := range sigs {
		table[full^sig]++
	}
	for bit := 1; bit < len(table); bit <<= 1 {
		for mask := range table {
			if mask&bit == 0 {
				table[mask] += table[mask|bit]
			}
		}
	}
	for mask, kept := range table {
		table[mask] = int32(len(sigs)) - kept
	}
	return table
}

// SelectOptSeq enumerates rule subsets, orders each with the
// 4-approximation greedy of §6 (adapted from pipelined-filter ordering:
// repeatedly pick the rule with the largest marginal drop rate per unit time
// given what is already in the sequence), scores the results, and returns
// the globally best sequence. n is the sample size the coverage bitmaps were
// computed over.
//
// Every coverage count the ordering and the score need is a union over some
// subset of the pool, so all of them are lookups in unionTable: the
// enumeration touches no bitmap and allocates nothing per subset.
func SelectOptSeq(retained []EvaluatedRule, n int, w Weights) SeqChoice {
	w = w.withDefaults()
	if len(retained) == 0 || n == 0 {
		return SeqChoice{Precision: 1, Selectivity: 1}
	}
	pool := retained
	if len(pool) > w.MaxEnumRules {
		// Keep the best rules by rank = [1−sel]/time.
		ranked := append([]EvaluatedRule(nil), pool...)
		slices.SortFunc(ranked, func(a, b EvaluatedRule) int {
			ra := (1 - a.Selectivity) / a.Time
			rb := (1 - b.Selectivity) / b.Time
			if c := cmp.Compare(rb, ra); c != 0 {
				return c
			}
			return cmp.Compare(a.Rule.ID, b.Rule.ID)
		})
		pool = ranked[:w.MaxEnumRules]
	}
	union := unionTable(pool)
	// survive is the fraction of the sample no rule of the subset drops.
	survive := func(mask int) float64 { return 1 - float64(union[mask])/float64(n) }

	best := SeqChoice{Score: math.Inf(-1)}
	remaining := make([]int, 0, len(pool)) // pool indexes not yet sequenced
	seq := make([]int, 0, len(pool))       // the subset in greedy order
	bestSeq := make([]int, 0, len(pool))
	for mask := 1; mask < len(union); mask++ {
		remaining, seq = remaining[:0], seq[:0]
		for i := range pool {
			if mask&(1<<i) != 0 {
				remaining = append(remaining, i)
			}
		}
		// t is the expected per-pair cost: each rule runs on the pairs that
		// survived the rules before it.
		t, prevSel, done := 0.0, 1.0, 0
		for len(remaining) > 0 {
			bestIdx, bestScore := 0, math.Inf(-1)
			for i, ri := range remaining {
				// Marginal selectivity if pool[ri] were appended.
				var drop float64
				if prevSel > 0 {
					drop = 1 - survive(done|1<<ri)/prevSel
				}
				score := drop / pool[ri].Time
				if score > bestScore || (score == bestScore && pool[ri].Rule.ID < pool[remaining[bestIdx]].Rule.ID) {
					bestIdx, bestScore = i, score
				}
			}
			chosen := remaining[bestIdx]
			seq = append(seq, chosen)
			t += prevSel * pool[chosen].Time
			done |= 1 << chosen
			prevSel = survive(done)
			remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		}
		cov := int(union[mask])
		sel := survive(mask)
		// Precision lower bound: 1 − Σ|cov(R_i)|(1−prec_i) / |cov(seq)|.
		prec := 1.0
		if cov > 0 {
			bad := 0.0
			for _, ri := range seq {
				bad += float64(pool[ri].CovCount) * (1 - pool[ri].Precision)
			}
			prec = 1 - bad/float64(cov)
			if prec < 0 {
				prec = 0
			}
		}
		score := w.Alpha*prec - w.Beta*sel - w.Gamma*t
		if score > best.Score {
			best = SeqChoice{Score: score, Precision: prec, Selectivity: sel, Time: t, CovCount: cov}
			bestSeq = append(bestSeq[:0], seq...)
		}
	}
	if len(bestSeq) > 0 {
		best.Seq = make([]EvaluatedRule, len(bestSeq))
		for i, ri := range bestSeq {
			best.Seq[i] = pool[ri]
		}
	}
	return best
}

// RuleSeq extracts the plain rules of the chosen sequence in order.
func (c SeqChoice) RuleSeq() []rules.Rule {
	out := make([]rules.Rule, len(c.Seq))
	for i, r := range c.Seq {
		out[i] = r.Rule
	}
	return out
}
