package rulesel

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"falcon/internal/bitset"
	"falcon/internal/crowd"
	"falcon/internal/rules"
	"falcon/internal/table"
)

// fixture builds a sample with ground truth: pairs with vec[0] ≤ 0.5 are
// non-matches (rule 0's territory), a small band are matches.
func fixture(n int, seed int64) (pairs []table.Pair, vecs [][]float64, oracle func(table.Pair) bool) {
	rng := rand.New(rand.NewSource(seed))
	truth := map[table.Pair]bool{}
	for i := 0; i < n; i++ {
		v := []float64{rng.Float64(), rng.Float64()}
		p := table.Pair{A: i, B: i}
		pairs = append(pairs, p)
		vecs = append(vecs, v)
		truth[p] = v[0] > 0.8 // matches have high similarity
	}
	return pairs, vecs, func(p table.Pair) bool { return truth[p] }
}

func newCrowd(err float64) *crowd.Crowd {
	return crowd.New(crowd.NewRandomWorkers(err, 0, 5), crowd.Config{})
}

func TestEvalRulesRetainsPrecise(t *testing.T) {
	pairs, vecs, oracle := fixture(2000, 1)
	// Rule 0: high precision (drops only sim ≤ 0.5, all true non-matches).
	// Rule 1: terrible (drops sim ≤ 0.9, including many matches).
	cands := []rules.Rule{
		{ID: 0, Preds: []rules.Predicate{{Feature: 0, Op: rules.LE, Value: 0.5}}},
		{ID: 1, Preds: []rules.Predicate{{Feature: 0, Op: rules.LE, Value: 0.95}}},
	}
	res, err := EvalRules(context.Background(), cands, pairs, vecs, newCrowd(0), oracle, nil, EvalConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Retained) != 1 {
		t.Fatalf("retained %d rules, want 1", len(res.Retained))
	}
	if res.Retained[0].Rule.ID != 0 {
		t.Fatalf("retained rule %d, want 0", res.Retained[0].Rule.ID)
	}
	if res.Dropped != 1 {
		t.Fatalf("dropped = %d", res.Dropped)
	}
	r := res.Retained[0]
	if r.Precision < 0.95 {
		t.Fatalf("precision = %v", r.Precision)
	}
	if r.CovCount == 0 || r.Coverage == nil {
		t.Fatal("coverage missing")
	}
	if math.Abs(r.Selectivity-(1-float64(r.CovCount)/2000)) > 1e-9 {
		t.Fatalf("selectivity = %v", r.Selectivity)
	}
}

func TestEvalRulesIterationCap(t *testing.T) {
	pairs, vecs, oracle := fixture(3000, 3)
	// A borderline rule (~93% precision) keeps the loop undecided.
	cands := []rules.Rule{{ID: 0, Preds: []rules.Predicate{{Feature: 0, Op: rules.LE, Value: 0.82}}}}
	cfg := EvalConfig{MaxIterPerRule: 3, Seed: 4}
	res, err := EvalRules(context.Background(), cands, pairs, vecs, newCrowd(0), oracle, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 3 {
		t.Fatalf("iterations %d exceed cap 3", res.Iterations)
	}
}

func TestEvalRulesProposition2Bound(t *testing.T) {
	// With b=20 per iteration, ε ≤ 0.05 at 95% is guaranteed by n ≥ 384
	// (Prop. 2) — i.e. at most 20 iterations even with no cap.
	pairs, vecs, oracle := fixture(20000, 5)
	cands := []rules.Rule{{ID: 0, Preds: []rules.Predicate{{Feature: 0, Op: rules.LE, Value: 0.8}}}}
	cfg := EvalConfig{MaxIterPerRule: 100, Seed: 6} // effectively uncapped
	res, err := EvalRules(context.Background(), cands, pairs, vecs, newCrowd(0.3), oracle, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 20 {
		t.Fatalf("iterations %d exceed the Prop. 2 bound of 20", res.Iterations)
	}
}

func TestEvalRulesTopK(t *testing.T) {
	pairs, vecs, oracle := fixture(500, 7)
	var cands []rules.Rule
	for i := 0; i < 30; i++ {
		cands = append(cands, rules.Rule{ID: i, Preds: []rules.Predicate{{Feature: 0, Op: rules.LE, Value: 0.3 + float64(i)*0.001}}})
	}
	cfg := EvalConfig{TopK: 5, Seed: 8}
	res, err := EvalRules(context.Background(), cands, pairs, vecs, newCrowd(0), oracle, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Retained)+res.Dropped > 5 {
		t.Fatalf("evaluated %d rules, cap was 5", len(res.Retained)+res.Dropped)
	}
}

func TestEvalRulesLabelCacheSavesQuestions(t *testing.T) {
	pairs, vecs, oracle := fixture(300, 9)
	// Two nearly identical rules share coverage; the cache should avoid
	// re-asking the crowd for shared pairs.
	cands := []rules.Rule{
		{ID: 0, Preds: []rules.Predicate{{Feature: 0, Op: rules.LE, Value: 0.5}}},
		{ID: 1, Preds: []rules.Predicate{{Feature: 0, Op: rules.LE, Value: 0.5}, {Feature: 1, Op: rules.LE, Value: 2}}},
	}
	cr := newCrowd(0)
	if _, err := EvalRules(context.Background(), cands, pairs, vecs, cr, oracle, nil, EvalConfig{Seed: 10}); err != nil {
		t.Fatal(err)
	}
	// Coverage of both rules is identical (~150 pairs); without the cache
	// we'd ask up to 2×coverage questions.
	cov := cands[0].Coverage(vecs).Count()
	if cr.Ledger().Questions > cov {
		t.Fatalf("questions %d exceed unique coverage %d; cache not working", cr.Ledger().Questions, cov)
	}
}

func TestEvalRulesEmpty(t *testing.T) {
	res, err := EvalRules(context.Background(), nil, nil, nil, newCrowd(0), nil, nil, EvalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Retained) != 0 || res.Dropped != 0 {
		t.Fatal("empty eval should be empty")
	}
}

func TestDefaultRuleTime(t *testing.T) {
	r := rules.Rule{Preds: make([]rules.Predicate, 3)}
	if DefaultRuleTime(r) != 3 {
		t.Fatal("DefaultRuleTime wrong")
	}
}

// The bitmap-walking select_opt_seq, kept as the oracle SelectOptSeq is
// compared against: every union is an OR of the coverage bitmaps and a
// popcount, per subset and per greedy step.

// seqStats computes selectivity, expected time, and the precision lower
// bound of an ordered sequence over a sample of size n.
func seqStats(seq []EvaluatedRule, n int) (sel, t, prec float64, cov int) {
	if len(seq) == 0 || n == 0 {
		return 1, 0, 1, 0
	}
	union := bitset.New(seq[0].Coverage.Len())
	t = 0.0
	surviving := 1.0
	for _, r := range seq {
		t += surviving * r.Time
		union.Or(r.Coverage)
		surviving = 1 - float64(union.Count())/float64(n)
	}
	cov = union.Count()
	sel = 1 - float64(cov)/float64(n)
	// Precision lower bound: 1 − Σ|cov(R_i)|(1−prec_i) / |cov(seq)|.
	if cov > 0 {
		bad := 0.0
		for _, r := range seq {
			bad += float64(r.CovCount) * (1 - r.Precision)
		}
		prec = 1 - bad/float64(cov)
		if prec < 0 {
			prec = 0
		}
	} else {
		prec = 1
	}
	return sel, t, prec, cov
}

// greedyOrder orders a rule subset with the 4-approximation greedy of §6.
func greedyOrder(subset []EvaluatedRule, n int) []EvaluatedRule {
	if len(subset) <= 1 {
		return subset
	}
	remaining := append([]EvaluatedRule(nil), subset...)
	var out []EvaluatedRule
	union := bitset.New(subset[0].Coverage.Len())
	prevSel := 1.0
	for len(remaining) > 0 {
		bestIdx, bestScore := 0, math.Inf(-1)
		for i, r := range remaining {
			// Marginal selectivity if r were appended.
			u := union.Clone()
			u.Or(r.Coverage)
			newSel := 1 - float64(u.Count())/float64(n)
			var drop float64
			if prevSel > 0 {
				drop = 1 - newSel/prevSel
			}
			score := drop / r.Time
			if score > bestScore || (score == bestScore && r.Rule.ID < remaining[bestIdx].Rule.ID) {
				bestIdx, bestScore = i, score
			}
		}
		chosen := remaining[bestIdx]
		out = append(out, chosen)
		union.Or(chosen.Coverage)
		prevSel = 1 - float64(union.Count())/float64(n)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return out
}

// selectOptSeqOracle is SelectOptSeq over greedyOrder and seqStats.
func selectOptSeqOracle(retained []EvaluatedRule, n int, w Weights) SeqChoice {
	w = w.withDefaults()
	if len(retained) == 0 || n == 0 {
		return SeqChoice{Precision: 1, Selectivity: 1}
	}
	pool := retained
	if len(pool) > w.MaxEnumRules {
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
	best := SeqChoice{Score: math.Inf(-1)}
	for mask := 1; mask < 1<<len(pool); mask++ {
		var subset []EvaluatedRule
		for i := range pool {
			if mask&(1<<i) != 0 {
				subset = append(subset, pool[i])
			}
		}
		seq := greedyOrder(subset, n)
		sel, t, prec, cov := seqStats(seq, n)
		score := w.Alpha*prec - w.Beta*sel - w.Gamma*t
		if score > best.Score {
			best = SeqChoice{Seq: seq, Score: score, Precision: prec, Selectivity: sel, Time: t, CovCount: cov}
		}
	}
	return best
}

// SequenceOf builds a SeqChoice for a fixed rule list (all rules, top-1,
// top-3), the fixed choices SelectOptSeq must beat.
func SequenceOf(seq []EvaluatedRule, n int, w Weights) SeqChoice {
	w = w.withDefaults()
	sel, t, prec, cov := seqStats(seq, n)
	return SeqChoice{
		Seq: seq, Precision: prec, Selectivity: sel, Time: t, CovCount: cov,
		Score: w.Alpha*prec - w.Beta*sel - w.Gamma*t,
	}
}

// mkEval builds an EvaluatedRule with a synthetic coverage bitmap.
func mkEval(id, n int, coverFrac float64, prec, cost float64, seed int64) EvaluatedRule {
	rng := rand.New(rand.NewSource(seed))
	b := bitset.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < coverFrac {
			b.Set(i)
		}
	}
	c := b.Count()
	return EvaluatedRule{
		Rule:        rules.Rule{ID: id},
		Precision:   prec,
		Coverage:    b,
		CovCount:    c,
		Selectivity: 1 - float64(c)/float64(n),
		Time:        cost,
	}
}

func TestGreedyOrderPrefersCheapSelective(t *testing.T) {
	const n = 10000
	cheap := mkEval(0, n, 0.5, 0.99, 1, 1)   // drops half, cost 1
	pricey := mkEval(1, n, 0.5, 0.99, 10, 2) // drops half, cost 10
	seq := greedyOrder([]EvaluatedRule{pricey, cheap}, n)
	if seq[0].Rule.ID != 0 {
		t.Fatalf("greedy should put the cheap rule first, got %d", seq[0].Rule.ID)
	}
}

func TestSeqStatsOrderIndependentSelPrec(t *testing.T) {
	const n = 5000
	a := mkEval(0, n, 0.4, 0.98, 1, 3)
	b := mkEval(1, n, 0.3, 0.97, 2, 4)
	s1, _, p1, c1 := seqStats([]EvaluatedRule{a, b}, n)
	s2, _, p2, c2 := seqStats([]EvaluatedRule{b, a}, n)
	if s1 != s2 || p1 != p2 || c1 != c2 {
		t.Fatal("selectivity/precision must be order-independent")
	}
}

func TestSeqStatsTimeOrderDependent(t *testing.T) {
	const n = 5000
	a := mkEval(0, n, 0.6, 0.98, 1, 5)
	b := mkEval(1, n, 0.1, 0.97, 9, 6)
	_, tAB, _, _ := seqStats([]EvaluatedRule{a, b}, n)
	_, tBA, _, _ := seqStats([]EvaluatedRule{b, a}, n)
	// Cheap selective rule first should cost less overall.
	if tAB >= tBA {
		t.Fatalf("time(a,b)=%v should beat time(b,a)=%v", tAB, tBA)
	}
}

func TestSelectOptSeqBeatsFixedChoices(t *testing.T) {
	const n = 8000
	pool := []EvaluatedRule{
		mkEval(0, n, 0.5, 0.99, 1, 11),
		mkEval(1, n, 0.45, 0.98, 2, 12),
		mkEval(2, n, 0.2, 0.90, 1, 13),  // imprecise
		mkEval(3, n, 0.05, 0.99, 8, 14), // expensive, low coverage
	}
	w := DefaultWeights()
	best := SelectOptSeq(pool, n, w)
	if len(best.Seq) == 0 {
		t.Fatal("no sequence chosen")
	}
	// The optimum must score at least as well as using all rules, top-1,
	// and top-3 in given order.
	for _, alt := range [][]EvaluatedRule{pool, pool[:1], pool[:3]} {
		c := SequenceOf(alt, n, w)
		if c.Score > best.Score+1e-12 {
			t.Fatalf("fixed sequence scored %v > optimal %v", c.Score, best.Score)
		}
	}
}

func TestSelectOptSeqEmpty(t *testing.T) {
	c := SelectOptSeq(nil, 100, Weights{})
	if len(c.Seq) != 0 || c.Precision != 1 {
		t.Fatalf("empty choice = %+v", c)
	}
}

func TestSelectOptSeqEnumCap(t *testing.T) {
	const n = 1000
	var pool []EvaluatedRule
	for i := 0; i < 15; i++ {
		pool = append(pool, mkEval(i, n, 0.1+float64(i)*0.02, 0.99, 1+float64(i%3), int64(20+i)))
	}
	w := Weights{Alpha: 1, Beta: 0.25, Gamma: 0.02, MaxEnumRules: 6}
	best := SelectOptSeq(pool, n, w)
	if len(best.Seq) > 6 {
		t.Fatalf("sequence length %d exceeds enumeration cap", len(best.Seq))
	}
}

func TestRuleSeq(t *testing.T) {
	const n = 100
	pool := []EvaluatedRule{mkEval(7, n, 0.5, 0.99, 1, 31)}
	c := SelectOptSeq(pool, n, DefaultWeights())
	rs := c.RuleSeq()
	if len(rs) != 1 || rs[0].ID != 7 {
		t.Fatalf("RuleSeq = %v", rs)
	}
}

// Property: the precision lower bound never exceeds 1 and never goes below
// 0; selectivity stays in [0,1]; greedy order is a permutation.
func TestQuickSeqInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 2000
		k := 1 + rng.Intn(5)
		var pool []EvaluatedRule
		for i := 0; i < k; i++ {
			pool = append(pool, mkEval(i, n, rng.Float64()*0.8, 0.9+rng.Float64()*0.1, 1+rng.Float64()*5, rng.Int63()))
		}
		seq := greedyOrder(pool, n)
		if len(seq) != k {
			return false
		}
		seen := map[int]bool{}
		for _, r := range seq {
			if seen[r.Rule.ID] {
				return false
			}
			seen[r.Rule.ID] = true
		}
		sel, tm, prec, _ := seqStats(seq, n)
		return sel >= 0 && sel <= 1 && prec >= 0 && prec <= 1 && tm >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: SelectOptSeq's score is the max over every explicit subset
// ordering score for small pools.
func TestQuickOptSeqDominates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 500
		var pool []EvaluatedRule
		for i := 0; i < 3; i++ {
			pool = append(pool, mkEval(i, n, rng.Float64()*0.7, 0.92+rng.Float64()*0.08, 1+rng.Float64()*4, rng.Int63()))
		}
		w := DefaultWeights()
		best := SelectOptSeq(pool, n, w)
		// Compare against each singleton and each pair in both orders.
		alts := [][]EvaluatedRule{
			{pool[0]}, {pool[1]}, {pool[2]},
			{pool[0], pool[1]}, {pool[1], pool[0]},
			{pool[0], pool[2]}, {pool[2], pool[0]},
			{pool[1], pool[2]}, {pool[2], pool[1]},
		}
		for _, alt := range alts {
			// Optimal uses greedy ordering, so compare on sel/prec score
			// only up to greedy's 4-approximation on time; allow slack γ·Δt.
			c := SequenceOf(alt, n, w)
			if c.Score > best.Score+w.Gamma*c.Time*3+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomPool draws k rules over an n-pair sample the way the differential
// and table tests need them: coverage from empty to full, exact duplicates of
// an earlier rule's coverage, times and precisions from small sets so ranks,
// greedy scores and sequence scores tie and the ID order has to decide.
func randomPool(rng *rand.Rand, k, n int) []EvaluatedRule {
	times := []float64{1, 1, 2, 3, 8}
	precs := []float64{0.95, 0.97, 0.97, 1}
	pool := make([]EvaluatedRule, 0, k)
	for _, id := range rng.Perm(k) {
		frac := rng.Float64()
		switch rng.Intn(8) {
		case 0:
			frac = 0
		case 1:
			frac = 1
		}
		r := mkEval(id, n, frac, precs[rng.Intn(len(precs))], times[rng.Intn(len(times))], rng.Int63())
		if len(pool) > 0 && rng.Intn(4) == 0 {
			dup := pool[rng.Intn(len(pool))]
			r.Coverage, r.CovCount, r.Selectivity = dup.Coverage.Clone(), dup.CovCount, dup.Selectivity
			if rng.Intn(2) == 0 {
				r.Time, r.Precision = dup.Time, dup.Precision
			}
		}
		pool = append(pool, r)
	}
	return pool
}

// Property: unionTable[mask] is the popcount of the OR of the mask's
// coverage bitmaps, for every mask.
func TestUnionTableMatchesUnionCount(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		k := 1 + trial%9
		n := []int{1, 63, 64, 65, 700}[rng.Intn(5)]
		pool := randomPool(rng, k, n)
		table := unionTable(pool)
		if len(table) != 1<<k {
			t.Fatalf("k=%d: table has %d entries", k, len(table))
		}
		for mask := range table {
			var sets []*bitset.Bitset
			for i := range pool {
				if mask&(1<<i) != 0 {
					sets = append(sets, pool[i].Coverage)
				}
			}
			if want := bitset.UnionCount(sets...); int(table[mask]) != want {
				t.Fatalf("trial %d k=%d n=%d mask %b: table says %d, UnionCount %d", trial, k, n, mask, table[mask], want)
			}
		}
	}
}

// Differential: SelectOptSeq returns exactly what the bitmap-walking oracle
// returns — every field and the sequence order, compared with ==.
func TestSelectOptSeqMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	weights := []Weights{
		{},
		{Alpha: 1, Beta: 0.25, Gamma: 0.02},
		{Alpha: 1, Beta: 0.05, Gamma: 0.01, MaxEnumRules: 5},
		{Beta: 1, MaxEnumRules: 3}, // precision ignored: many subsets score alike
		{Gamma: -1},                // costlier is better: the answer is the whole pool in greedy order
	}
	cuts, idDecided := 0, 0
	for trial := 0; trial < 240; trial++ {
		k := 1 + rng.Intn(9)
		n := []int{50, 64, 333, 2000}[rng.Intn(4)]
		pool := randomPool(rng, k, n)
		w := weights[trial%len(weights)]
		if k > w.withDefaults().MaxEnumRules {
			cuts++
		}
		got, want := SelectOptSeq(pool, n, w), selectOptSeqOracle(pool, n, w)
		if got.Score != want.Score || got.Precision != want.Precision || got.Selectivity != want.Selectivity ||
			got.Time != want.Time || got.CovCount != want.CovCount || len(got.Seq) != len(want.Seq) {
			t.Fatalf("trial %d (k=%d n=%d w=%+v):\n got %+v\nwant %+v", trial, k, n, w, got, want)
		}
		for i := range want.Seq {
			g, o := got.Seq[i], want.Seq[i]
			if g.Rule.ID != o.Rule.ID || g.Coverage != o.Coverage || g.Precision != o.Precision ||
				g.CovCount != o.CovCount || g.Selectivity != o.Selectivity || g.Time != o.Time {
				t.Fatalf("trial %d (k=%d n=%d): sequence position %d is rule %d, oracle has rule %d", trial, k, n, i, g.Rule.ID, o.Rule.ID)
			}
		}
		// Did a Rule.ID tie-break decide this answer? Negate the IDs and see
		// whether the oracle picks other rules.
		flipped := slices.Clone(pool)
		for i := range flipped {
			flipped[i].Rule.ID = -flipped[i].Rule.ID
		}
		alt := selectOptSeqOracle(flipped, n, w).Seq
		if !slices.EqualFunc(alt, want.Seq, func(a, b EvaluatedRule) bool { return a.Coverage == b.Coverage }) {
			idDecided++
		}
	}
	// The generator must actually reach the branches the comparison is for.
	if cuts < 20 || idDecided < 20 {
		t.Fatalf("only %d instances were cut to MaxEnumRules and %d were decided by a Rule.ID tie-break", cuts, idDecided)
	}
}

// MaxEnumRules is clamped: 40 would otherwise ask for 2^40 subsets.
func TestSelectOptSeqMaxEnumRulesClamped(t *testing.T) {
	const n = 400
	rng := rand.New(rand.NewSource(47))
	pool := randomPool(rng, 30, n)
	w := Weights{Alpha: 1, Beta: 0.25, Gamma: 0.02, MaxEnumRules: 40}
	got := SelectOptSeq(pool, n, w)
	w.MaxEnumRules = 16
	want := SelectOptSeq(pool, n, w)
	if got.Score != want.Score || len(got.Seq) != len(want.Seq) || len(got.Seq) == 0 {
		t.Fatalf("MaxEnumRules 40 chose %+v, 16 chose %+v", got, want)
	}
	for i := range want.Seq {
		if got.Seq[i].Rule.ID != want.Seq[i].Rule.ID {
			t.Fatalf("position %d: rule %d vs %d", i, got.Seq[i].Rule.ID, want.Seq[i].Rule.ID)
		}
	}
}

// The enumeration allocates nothing per subset: four rules (15 subsets) and
// twelve (4 095) cost the same handful of allocations.
func TestSelectOptSeqAllocs(t *testing.T) {
	const n = 5000
	pool := randomPool(rand.New(rand.NewSource(53)), 14, n)
	allocs := func(maxEnum int) float64 {
		w := Weights{Alpha: 1, Beta: 0.05, Gamma: 0.01, MaxEnumRules: maxEnum}
		return testing.AllocsPerRun(5, func() { SelectOptSeq(pool, n, w) })
	}
	few, many := allocs(4), allocs(12)
	if few != many || many > 10 {
		t.Fatalf("%v allocations over 15 subsets, %v over 4095; want equal and at most 10", few, many)
	}
}

// benchPool is k rules of rising coverage over a 100 000-pair sample, the
// benchmark's sample size.
func benchPool(k int) []EvaluatedRule {
	const n = 100_000
	pool := make([]EvaluatedRule, k)
	for i := range pool {
		pool[i] = mkEval(i, n, 0.1+float64(i)*0.05, 0.95+float64(i%5)*0.01, 1+float64(i%4), int64(i))
	}
	return pool
}

func BenchmarkSelectOptSeq(b *testing.B) {
	for _, k := range []int{8, 12} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			pool := benchPool(k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchChoice = SelectOptSeq(pool, 100_000, DefaultWeights())
			}
		})
	}
}

var benchChoice SeqChoice
