package block

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"falcon/internal/feature"
	"falcon/internal/filters"
	"falcon/internal/mapreduce"
	"falcon/internal/rules"
	"falcon/internal/table"
)

// fixture builds tables, features, a realistic two-rule sequence, its
// analysis, indexes, and the Input.
type fixture struct {
	a, b *table.Table
	in   *Input
	seq  []rules.Rule
	set  *feature.Set
}

func mkTables(nA, nB int, seed int64) (*table.Table, *table.Table) {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"war", "peace", "art", "code", "go", "data", "cloud", "entity", "match", "block"}
	mk := func(name string, n int) *table.Table {
		t := table.New(name, table.NewSchema("title", "year", "price"))
		for i := 0; i < n; i++ {
			var title string
			for j := 0; j < 2+rng.Intn(4); j++ {
				if j > 0 {
					title += " "
				}
				title += words[rng.Intn(len(words))]
			}
			year := fmt.Sprint(1990 + rng.Intn(25))
			if rng.Intn(12) == 0 {
				year = ""
			}
			price := fmt.Sprintf("%.2f", 10+rng.Float64()*90)
			t.Append(title, year, price)
		}
		t.InferTypes()
		return t
	}
	return mk("A", nA), mk("B", nB)
}

func newFixture(t *testing.T, nA, nB int, seed int64) *fixture {
	t.Helper()
	a, b := mkTables(nA, nB, seed)
	set := feature.Generate(a, b)
	feats := make([]*feature.Feature, len(set.BlockingIdx))
	for i, idx := range set.BlockingIdx {
		feats[i] = &set.Features[idx]
	}
	pos := func(name string) int {
		for i, f := range feats {
			if f.Name == name {
				return i
			}
		}
		t.Fatalf("feature %s missing", name)
		return -1
	}
	seq := []rules.Rule{
		{ID: 0, Preds: []rules.Predicate{{Feature: pos("jaccard_word(title)"), Op: rules.LE, Value: 0.4}}},
		{ID: 1, Preds: []rules.Predicate{
			{Feature: pos("exact_match(year)"), Op: rules.LE, Value: 0.5},
			{Feature: pos("abs_diff(price)"), Op: rules.GE, Value: 15},
		}},
	}
	an := filters.Analyze(rules.ToCNF(seq), feats)
	ix := filters.NewIndexes(mapreduce.Default(), a)
	if _, err := ix.EnsureAll(context.Background(), an.NeededIndexes()); err != nil {
		t.Fatal(err)
	}
	in := &Input{
		A: a, B: b,
		Analysis:   an,
		Indexes:    ix,
		Vectorizer: feature.NewVectorizer(set, a, b),
		ClauseSel:  []float64{0.3, 0.7},
	}
	return &fixture{a: a, b: b, in: in, seq: seq, set: set}
}

// truth computes the expected surviving pairs by brute force, on the
// all-features blocking vector (the strategies verify on the CNF's read set).
func (f *fixture) truth() map[table.Pair]bool {
	out := map[table.Pair]bool{}
	for a := 0; a < f.a.Len(); a++ {
		for b := 0; b < f.b.Len(); b++ {
			p := table.Pair{A: a, B: b}
			if f.in.Analysis.CNF.Keep(f.in.Vectorizer.BlockingVector(p).Values) {
				out[p] = true
			}
		}
	}
	return out
}

func TestAllStrategiesAgree(t *testing.T) {
	fx := newFixture(t, 60, 40, 1)
	want := fx.truth()
	cluster := mapreduce.Default()
	for _, s := range []Strategy{ApplyAll, ApplyGreedy, ApplyConjunct, ApplyPredicate, MapSide, ReduceSplit} {
		res, err := Run(context.Background(), cluster, fx.in, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(res.Pairs) != len(want) {
			t.Fatalf("%v: %d pairs, want %d", s, len(res.Pairs), len(want))
		}
		for _, p := range res.Pairs {
			if !want[p] {
				t.Fatalf("%v: unexpected pair %v", s, p)
			}
		}
		if res.SimTime <= 0 {
			t.Fatalf("%v: no sim time", s)
		}
		if res.Strategy != s {
			t.Fatalf("%v: wrong strategy tag %v", s, res.Strategy)
		}
	}
}

func TestIndexStrategiesEnumerateLess(t *testing.T) {
	fx := newFixture(t, 150, 100, 2)
	cluster := mapreduce.Default()
	aa, err := Run(context.Background(), cluster, fx.in, ApplyAll)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(context.Background(), cluster, fx.in, ReduceSplit)
	if err != nil {
		t.Fatal(err)
	}
	cartesian := int64(fx.a.Len()) * int64(fx.b.Len())
	if rs.PairsEnumerated != cartesian {
		t.Fatalf("reduce-split enumerated %d, want the full %d", rs.PairsEnumerated, cartesian)
	}
	if aa.PairsEnumerated >= cartesian {
		t.Fatalf("apply-all enumerated the whole Cartesian product (%d)", aa.PairsEnumerated)
	}
	if aa.SimTime >= rs.SimTime {
		t.Fatalf("apply-all (%v) should beat reduce-split (%v)", aa.SimTime, rs.SimTime)
	}
}

func TestBaselinesRefuseHugeTables(t *testing.T) {
	fx := newFixture(t, 20, 20, 3)
	// Fake huge tables by growing B's length artificially is intrusive;
	// instead check the guard directly on a synthetic input.
	big := table.New("big", table.NewSchema("x"))
	for i := 0; i < 11000; i++ {
		big.Append("v")
	}
	in := *fx.in
	in.A = big
	in.B = big
	if _, err := in.runMapSide(context.Background(), mapreduce.Default(), nil); err != ErrTooLarge {
		t.Fatalf("map-side on 121M pairs: err = %v, want ErrTooLarge", err)
	}
	if _, err := in.runReduceSplit(context.Background(), mapreduce.Default(), nil); err != ErrTooLarge {
		t.Fatalf("reduce-split on 121M pairs: err = %v, want ErrTooLarge", err)
	}
}

func TestMemoryNeedOrdering(t *testing.T) {
	fx := newFixture(t, 120, 60, 4)
	all := MemoryNeed(fx.in, ApplyAll)
	conj := MemoryNeed(fx.in, ApplyConjunct)
	pred := MemoryNeed(fx.in, ApplyPredicate)
	if all <= 0 || conj <= 0 || pred <= 0 {
		t.Fatalf("memory estimates: all=%d conj=%d pred=%d", all, conj, pred)
	}
	if !(all >= conj && conj >= pred) {
		t.Fatalf("memory ladder violated: all=%d conj=%d pred=%d", all, conj, pred)
	}
	if MemoryNeed(fx.in, ReduceSplit) != 0 {
		t.Fatal("reduce-split needs no mapper memory")
	}
	if MemoryNeed(fx.in, MapSide) != TableBytes(fx.a) {
		t.Fatal("map-side memory should be table A size")
	}
}

func TestChooseLadder(t *testing.T) {
	fx := newFixture(t, 100, 50, 5)
	// Plenty of memory, low greedy ratio → ApplyAll.
	cl := &mapreduce.Cluster{Nodes: 10, SlotsPerNode: 8, MapperMemory: 1 << 40}
	fx.in.ClauseSel = []float64{0.3, 0.7}
	if got := Choose(cl, fx.in, 0.2); got != ApplyAll {
		t.Fatalf("Choose = %v, want apply-all", got)
	}
	// seqSel close to best clause sel → ApplyGreedy.
	if got := Choose(cl, fx.in, 0.29); got != ApplyGreedy {
		t.Fatalf("Choose = %v, want apply-greedy", got)
	}
	// Tiny memory → baselines; A won't fit either → ReduceSplit.
	tiny := &mapreduce.Cluster{Nodes: 10, SlotsPerNode: 8, MapperMemory: 1}
	if got := Choose(tiny, fx.in, 0.2); got != ReduceSplit {
		t.Fatalf("Choose = %v, want reduce-split", got)
	}
	// Memory fitting only per-predicate indexes.
	pred := MemoryNeed(fx.in, ApplyPredicate)
	conj := MemoryNeed(fx.in, ApplyConjunct)
	if pred < conj {
		mid := &mapreduce.Cluster{Nodes: 10, SlotsPerNode: 8, MapperMemory: pred}
		if got := Choose(mid, fx.in, 0.2); got != ApplyPredicate {
			t.Fatalf("Choose = %v, want apply-predicate", got)
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	for s, want := range map[Strategy]string{
		ApplyAll: "apply-all", ApplyGreedy: "apply-greedy", ApplyConjunct: "apply-conjunct",
		ApplyPredicate: "apply-predicate", MapSide: "map-side", ReduceSplit: "reduce-split",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
	if Strategy(99).String() != "strategy(99)" {
		t.Fatal("unknown strategy string")
	}
}

func TestPairKeyRoundTrip(t *testing.T) {
	f := func(a, b int32) bool {
		if a < 0 || b < 0 {
			return true
		}
		p := unpairKey(pairKey(a, b))
		return p.A == int(a) && p.B == int(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPassIDsOnlyCheaper(t *testing.T) {
	fx := newFixture(t, 150, 100, 6)
	cluster := mapreduce.Default()
	fx.in.PassIDsOnly = false
	full, err := Run(context.Background(), cluster, fx.in, ApplyAll)
	if err != nil {
		t.Fatal(err)
	}
	fx.in.PassIDsOnly = true
	ids, err := Run(context.Background(), cluster, fx.in, ApplyAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids.Pairs) != len(full.Pairs) {
		t.Fatal("optimization changed results")
	}
	if ids.SimTime > full.SimTime {
		t.Fatalf("ID-only (%v) should not exceed full-tuple (%v)", ids.SimTime, full.SimTime)
	}
}

func TestRunUnknownStrategy(t *testing.T) {
	fx := newFixture(t, 10, 10, 7)
	if _, err := Run(context.Background(), mapreduce.Default(), fx.in, Strategy(99)); err == nil {
		t.Fatal("unknown strategy should error")
	}
}

func TestUnfilterableRuleFallsBackToFullScan(t *testing.T) {
	a, b := mkTables(20, 15, 8)
	set := feature.Generate(a, b)
	feats := make([]*feature.Feature, len(set.BlockingIdx))
	for i, idx := range set.BlockingIdx {
		feats[i] = &set.Features[idx]
	}
	var jw int
	for i, f := range feats {
		if f.Name == "jaccard_word(title)" {
			jw = i
		}
	}
	// Keep-pred "jaccard ≤ 0.9" — unfilterable dissimilarity clause.
	seq := []rules.Rule{{ID: 0, Preds: []rules.Predicate{{Feature: jw, Op: rules.GT, Value: 0.9}}}}
	an := filters.Analyze(rules.ToCNF(seq), feats)
	in := &Input{
		A: a, B: b, Analysis: an,
		Indexes:    filters.NewIndexes(mapreduce.Default(), a),
		Vectorizer: feature.NewVectorizer(set, a, b),
		ClauseSel:  []float64{0.9},
	}
	res, err := Run(context.Background(), mapreduce.Default(), in, ApplyAll)
	if err != nil {
		t.Fatal(err)
	}
	// Everything must still be correct: compare against brute force.
	want := 0
	for ar := 0; ar < a.Len(); ar++ {
		for br := 0; br < b.Len(); br++ {
			if an.CNF.Keep(in.Vectorizer.BlockingVector(table.Pair{A: ar, B: br}).Values) {
				want++
			}
		}
	}
	if len(res.Pairs) != want {
		t.Fatalf("got %d pairs, want %d", len(res.Pairs), want)
	}
	if res.PairsEnumerated != int64(a.Len()*b.Len()) {
		t.Fatal("unfilterable rule should enumerate everything")
	}
}

// Property: every strategy's output is sorted and within the Cartesian
// bounds.
func TestQuickOutputSorted(t *testing.T) {
	fx := newFixture(t, 40, 30, 9)
	cluster := mapreduce.Default()
	f := func(sRaw uint8) bool {
		s := Strategy(int(sRaw) % 4) // index-based strategies
		res, err := Run(context.Background(), cluster, fx.in, s)
		if err != nil {
			return false
		}
		for i := 1; i < len(res.Pairs); i++ {
			p, q := res.Pairs[i-1], res.Pairs[i]
			if p.A > q.A || (p.A == q.A && p.B >= q.B) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkApplyAll(b *testing.B) {
	fx := newFixture(&testing.T{}, 400, 200, 10)
	cluster := mapreduce.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), cluster, fx.in, ApplyAll); err != nil {
			b.Fatal(err)
		}
	}
}
