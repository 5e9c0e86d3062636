package filters

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"falcon/internal/feature"
	"falcon/internal/mapreduce"
	"falcon/internal/rules"
	"falcon/internal/simfn"
	"falcon/internal/table"
	"falcon/internal/tokenize"
)

// booksTables builds a small A/B pair with title (short string), year and
// price (numeric) columns, including dirty rows.
func booksTables(nA, nB int, seed int64) (*table.Table, *table.Table) {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"war", "peace", "art", "code", "go", "data", "cloud", "entity", "match", "systems"}
	mk := func(name string, n int) *table.Table {
		t := table.New(name, table.NewSchema("title", "year", "price"))
		for i := 0; i < n; i++ {
			var ws []string
			for j := 0; j < 2+rng.Intn(4); j++ {
				ws = append(ws, words[rng.Intn(len(words))])
			}
			title := ""
			for j, w := range ws {
				if j > 0 {
					title += " "
				}
				title += w
			}
			year := fmt.Sprint(1990 + rng.Intn(30))
			price := fmt.Sprintf("%.2f", 10+rng.Float64()*90)
			if rng.Intn(10) == 0 {
				year = "" // missing
			}
			if rng.Intn(30) == 0 {
				price = "n/a" // dirty
			}
			t.Append(title, year, price)
		}
		t.InferTypes()
		return t
	}
	return mk("A", nA), mk("B", nB)
}

// blockingFeatures returns the blocking feature pointers in vector order.
func blockingFeatures(set *feature.Set) []*feature.Feature {
	out := make([]*feature.Feature, len(set.BlockingIdx))
	for i, idx := range set.BlockingIdx {
		out[i] = &set.Features[idx]
	}
	return out
}

// featPos finds the blocking-vector position of a named feature.
func featPos(set *feature.Set, name string) int {
	for i, idx := range set.BlockingIdx {
		if set.Features[idx].Name == name {
			return i
		}
	}
	panic("feature not found: " + name)
}

func TestClassify(t *testing.T) {
	a, b := booksTables(10, 10, 1)
	set := feature.Generate(a, b)
	feats := blockingFeatures(set)

	em := featPos(set, "exact_match(year)")
	jw := featPos(set, "jaccard_word(title)")
	ad := featPos(set, "abs_diff(price)")
	rd := featPos(set, "rel_diff(price)")
	lev := featPos(set, "levenshtein(year)")

	cases := []struct {
		pred rules.Predicate
		want Kind
	}{
		{rules.Predicate{Feature: em, Op: rules.GT, Value: 0.5}, Equivalence},
		{rules.Predicate{Feature: em, Op: rules.LE, Value: 0.5}, Unfilterable},
		{rules.Predicate{Feature: jw, Op: rules.GT, Value: 0.4}, PrefixSet},
		{rules.Predicate{Feature: jw, Op: rules.LE, Value: 0.4}, Unfilterable},
		{rules.Predicate{Feature: ad, Op: rules.LE, Value: 10}, Range},
		{rules.Predicate{Feature: ad, Op: rules.GT, Value: 10}, Unfilterable},
		{rules.Predicate{Feature: rd, Op: rules.LT, Value: 0.2}, Range},
		{rules.Predicate{Feature: rd, Op: rules.LT, Value: 1.5}, Unfilterable},
		{rules.Predicate{Feature: lev, Op: rules.GE, Value: 0.8}, ShareGram},
		{rules.Predicate{Feature: lev, Op: rules.GE, Value: 0.5}, Unfilterable},
	}
	for _, c := range cases {
		got, _ := Classify(c.pred, feats[c.pred.Feature])
		if got != c.want {
			t.Errorf("Classify(%v on %s) = %v, want %v", c.pred, feats[c.pred.Feature].Name, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{Unfilterable, Equivalence, Range, PrefixSet, ShareGram} {
		if k.String() == "" {
			t.Fatal("empty Kind string")
		}
	}
	if Kind(42).String() != "kind(42)" {
		t.Fatal("unknown kind string")
	}
}

func TestAnalyzeAndNeededIndexes(t *testing.T) {
	a, b := booksTables(30, 30, 2)
	set := feature.Generate(a, b)
	feats := blockingFeatures(set)
	jw := featPos(set, "jaccard_word(title)")
	em := featPos(set, "exact_match(year)")
	ad := featPos(set, "abs_diff(price)")

	// Two rules: (jaccard ≤ 0.6 → drop) and (year differs AND price far → drop).
	seq := []rules.Rule{
		{ID: 0, Preds: []rules.Predicate{{Feature: jw, Op: rules.LE, Value: 0.6}}},
		{ID: 1, Preds: []rules.Predicate{
			{Feature: em, Op: rules.LE, Value: 0.5},
			{Feature: ad, Op: rules.GE, Value: 10},
		}},
	}
	an := Analyze(rules.ToCNF(seq), feats)
	if len(an.Clauses) != 2 {
		t.Fatalf("clauses = %d", len(an.Clauses))
	}
	if !an.Clauses[0].Filterable || !an.Clauses[1].Filterable {
		t.Fatalf("both clauses should be filterable: %+v", an.Clauses)
	}
	specs := an.NeededIndexes()
	kinds := map[Kind]int{}
	for _, s := range specs {
		kinds[s.Kind]++
	}
	if kinds[PrefixSet] != 1 || kinds[Equivalence] != 1 || kinds[Range] != 1 {
		t.Fatalf("specs = %v", specs)
	}
	if got := an.FilterableClauses(); len(got) != 2 {
		t.Fatalf("FilterableClauses = %v", got)
	}
}

func TestAnalyzeUnfilterableClause(t *testing.T) {
	a, b := booksTables(10, 10, 3)
	set := feature.Generate(a, b)
	feats := blockingFeatures(set)
	jw := featPos(set, "jaccard_word(title)")
	// Rule "jaccard > 0.6 → drop" negates to keep-pred jaccard ≤ 0.6:
	// dissimilarity, unfilterable.
	seq := []rules.Rule{{ID: 0, Preds: []rules.Predicate{{Feature: jw, Op: rules.GT, Value: 0.6}}}}
	an := Analyze(rules.ToCNF(seq), feats)
	if an.Clauses[0].Filterable {
		t.Fatal("dissimilarity clause must be unfilterable")
	}
	if len(an.NeededIndexes()) != 0 {
		t.Fatal("unfilterable clause should need no indexes")
	}
}

func TestThresholdMergingTakesMin(t *testing.T) {
	a, b := booksTables(10, 10, 4)
	set := feature.Generate(a, b)
	feats := blockingFeatures(set)
	jw := featPos(set, "jaccard_word(title)")
	seq := []rules.Rule{
		{ID: 0, Preds: []rules.Predicate{{Feature: jw, Op: rules.LE, Value: 0.7}}},
		{ID: 1, Preds: []rules.Predicate{{Feature: jw, Op: rules.LE, Value: 0.3}}},
	}
	an := Analyze(rules.ToCNF(seq), feats)
	specs := an.NeededIndexes()
	if len(specs) != 1 {
		t.Fatalf("specs = %v, want one merged", specs)
	}
	if specs[0].Threshold != 0.3 {
		t.Fatalf("merged threshold = %v, want 0.3 (the min)", specs[0].Threshold)
	}
}

func TestRangeBounds(t *testing.T) {
	lo, hi := RangeBounds(simfn.MAbsDiff, 100, 10)
	if lo != 90 || hi != 110 {
		t.Fatalf("abs bounds = [%v,%v]", lo, hi)
	}
	lo, hi = RangeBounds(simfn.MRelDiff, 100, 0.5)
	if lo != -200 || hi != 200 {
		t.Fatalf("rel bounds = [%v,%v]", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-range measure")
		}
	}()
	RangeBounds(simfn.MJaccard, 1, 1)
}

// buildAnalysis creates a rule set whose CNF has a predicate of every
// filter kind — PrefixSet; Equivalence ∪ Range; ShareGram ∪ Range — plus one
// unfilterable clause, and builds its indexes.
func buildAnalysis(t *testing.T, a, b *table.Table) (*Analysis, *Indexes, *feature.Set, []rules.Rule) {
	t.Helper()
	set := feature.Generate(a, b)
	feats := blockingFeatures(set)
	jw := featPos(set, "jaccard_word(title)")
	em := featPos(set, "exact_match(year)")
	ad := featPos(set, "abs_diff(price)")
	lev := featPos(set, "levenshtein(year)")
	rd := featPos(set, "rel_diff(price)")
	seq := []rules.Rule{
		{ID: 0, Preds: []rules.Predicate{{Feature: jw, Op: rules.LE, Value: 0.5}}},
		{ID: 1, Preds: []rules.Predicate{
			{Feature: em, Op: rules.LE, Value: 0.5},
			{Feature: ad, Op: rules.GE, Value: 20},
		}},
		{ID: 2, Preds: []rules.Predicate{
			{Feature: lev, Op: rules.LT, Value: 0.7},
			{Feature: rd, Op: rules.GT, Value: 0.4},
		}},
		{ID: 3, Preds: []rules.Predicate{{Feature: jw, Op: rules.GT, Value: 0.95}}},
	}
	an := Analyze(rules.ToCNF(seq), feats)
	ix := NewIndexes(mapreduce.Default(), a)
	if _, err := ix.EnsureAll(context.Background(), an.NeededIndexes()); err != nil {
		t.Fatal(err)
	}
	return an, ix, set, seq
}

// ruleCandidates runs the walker for one B row with nothing carried over
// from another row: a one-row batch binds a fresh plan and walker.
func ruleCandidates(ix *Indexes, an *Analysis, use []int, b *table.Table, row int) (cands []int32, all bool, cost int64) {
	ix.RuleCandidatesBatch(an, use, b, []int{row}, func(_ int, c []int32, isAll bool, n int64) {
		cands, all, cost = slices.Clone(c), isAll, n
	})
	return cands, all, cost
}

// refRuleCandidates is the per-row reference the walker is held to: the
// same C_Q ← ∩_q ∪_p step written the obvious way — map-based unions and
// intersections, raw cells parsed and probed per call, prefix predicates
// through the string-keyed ReferenceProbe — with the walker's cost
// accounting (1 + results per hash or range probe, lookups + 1 per prefix
// probe; a clause stops at its first predicate that cannot prune, the rule
// at its first empty intersection).
func refRuleCandidates(ix *Indexes, an *Analysis, use []int, b *table.Table, row int) (cands []int32, all bool, cost int64) {
	if use == nil {
		use = an.FilterableClauses()
	}
	var acc map[int32]bool // nil until the first pruning clause
	for _, ci := range use {
		if !an.Clauses[ci].Filterable {
			continue
		}
		clause, clauseAll := map[int32]bool{}, false
		for _, bp := range an.Clauses[ci].Preds {
			cell := b.Value(row, bp.Feat.BCol)
			var got []int32
			switch bp.Kind {
			case Equivalence:
				got = ix.hash[bp.Feat.ACol].Probe(cell)
				cost += int64(1 + len(got))
			case Range:
				y, ok := table.ParseNum(cell)
				if !ok {
					cost++
					clauseAll = bp.Pred.Eval(feature.Missing)
					break
				}
				lo, hi := RangeBounds(bp.Feat.Measure, y, bp.Threshold)
				got = ix.tree[bp.Feat.ACol].ProbeRange(lo, hi)
				if bp.Pred.Eval(feature.Missing) {
					got = append(got, ix.tree[bp.Feat.ACol].Unparseable()...)
				}
				cost += int64(1 + len(got))
			default:
				var probes int64
				got, probes = ix.prefix[bp.indexSpec().key()].ReferenceProbe(bp.Feat.Measure, bp.Threshold, cell)
				cost += probes + 1
			}
			if clauseAll {
				break
			}
			for _, id := range got {
				clause[id] = true
			}
		}
		if clauseAll {
			continue
		}
		if acc == nil {
			acc = clause
			continue
		}
		for id := range acc {
			if !clause[id] {
				delete(acc, id)
			}
		}
		if len(acc) == 0 {
			return nil, false, cost
		}
	}
	if acc == nil {
		return nil, true, cost
	}
	for id := range acc {
		cands = append(cands, id)
	}
	slices.Sort(cands)
	return cands, false, cost
}

// TestRuleCandidatesComplete is the soundness property of Algorithm 1: every
// pair the CNF rule keeps must appear in the candidate set.
func TestRuleCandidatesComplete(t *testing.T) {
	a, b := booksTables(80, 40, 5)
	an, ix, set, _ := buildAnalysis(t, a, b)
	vz := feature.NewVectorizer(set, a, b)
	for row := 0; row < b.Len(); row++ {
		cands, all, _ := ruleCandidates(ix, an, nil, b, row)
		inCands := map[int32]bool{}
		for _, c := range cands {
			inCands[c] = true
		}
		for aRow := 0; aRow < a.Len(); aRow++ {
			vec := vz.BlockingVector(table.Pair{A: aRow, B: row})
			if an.CNF.Keep(vec.Values) && !all && !inCands[int32(aRow)] {
				t.Fatalf("pair (%d,%d) kept by CNF but missing from candidates", aRow, row)
			}
		}
	}
}

func TestRuleCandidatesPrune(t *testing.T) {
	a, b := booksTables(200, 30, 6)
	an, ix, _, _ := buildAnalysis(t, a, b)
	totalCands, probes := 0, int64(0)
	for row := 0; row < b.Len(); row++ {
		cands, all, cost := ruleCandidates(ix, an, nil, b, row)
		if all {
			t.Fatalf("row %d: filters should prune", row)
		}
		totalCands += len(cands)
		probes += cost
	}
	if totalCands >= a.Len()*b.Len()/2 {
		t.Fatalf("filters pruned almost nothing: %d of %d", totalCands, a.Len()*b.Len())
	}
	if probes <= 0 {
		t.Fatal("no probe cost accounted")
	}
}

func TestClauseCandidatesUnfilterable(t *testing.T) {
	a, b := booksTables(10, 10, 7)
	set := feature.Generate(a, b)
	feats := blockingFeatures(set)
	jw := featPos(set, "jaccard_word(title)")
	seq := []rules.Rule{{ID: 0, Preds: []rules.Predicate{{Feature: jw, Op: rules.GT, Value: 0.6}}}}
	an := Analyze(rules.ToCNF(seq), feats)
	ix := NewIndexes(mapreduce.Default(), a)
	_, all, _ := ruleCandidates(ix, an, []int{0}, b, 0)
	if !all {
		t.Fatal("unfilterable clause must return all=true")
	}
	_, all, _ = ruleCandidates(ix, an, nil, b, 0)
	if !all {
		t.Fatal("rule with no filterable clause must return all=true")
	}
}

// TestBindNeedsBuiltIndexes: a plan binds only to indexes that exist and
// were built at a threshold its predicates can use.
func TestBindNeedsBuiltIndexes(t *testing.T) {
	a, b := booksTables(30, 10, 13)
	an, ix, _, _ := buildAnalysis(t, a, b)
	if _, err := ix.Bind(an, nil); err != nil {
		t.Fatalf("complete registry: %v", err)
	}
	if _, err := NewIndexes(mapreduce.Default(), a).Bind(an, nil); err == nil {
		t.Fatal("bound a plan to an empty registry")
	}
	strict := NewIndexes(mapreduce.Default(), a)
	for _, spec := range an.NeededIndexes() {
		if spec.Kind == PrefixSet {
			spec.Threshold = 0.9 // the rule needs jaccard > 0.5
		}
		if _, err := strict.EnsureSpec(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := strict.Bind(an, nil); err == nil {
		t.Fatal("bound a predicate to a prefix index built at a higher threshold")
	}
}

func TestEnsureSpecCaching(t *testing.T) {
	a, b := booksTables(50, 10, 8)
	an, ix, _, _ := buildAnalysis(t, a, b)
	// Second EnsureAll must be free.
	d, err := ix.EnsureAll(context.Background(), an.NeededIndexes())
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("cached rebuild took %v, want 0", d)
	}
	if ix.TotalBytes() <= 0 {
		t.Fatal("TotalBytes = 0")
	}
	for _, ci := range an.Clauses {
		if ci.Filterable && ix.ClauseBytes(ci) <= 0 {
			t.Fatal("ClauseBytes = 0 for filterable clause")
		}
	}
}

func TestEnsureSpecThresholdRebuild(t *testing.T) {
	a, _ := booksTables(50, 10, 9)
	ix := NewIndexes(mapreduce.Default(), a)
	spec := IndexSpec{Kind: PrefixSet, ACol: 0, Token: tokenize.Word, Measure: simfn.MJaccard, Threshold: 0.8}
	if _, err := ix.EnsureSpec(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	// Lower threshold needs a longer prefix → rebuild.
	spec.Threshold = 0.4
	d, err := ix.EnsureSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if d == 0 {
		t.Fatal("lower threshold should force rebuild")
	}
	// Higher threshold reuses.
	spec.Threshold = 0.9
	d, err = ix.EnsureSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatal("higher threshold should reuse")
	}
}

func TestSetOps(t *testing.T) {
	u := union(nil, union(nil, []int32{1, 3, 5}, []int32{2, 3, 6}), []int32{5})
	if want := []int32{1, 2, 3, 5, 6}; !slices.Equal(u, want) {
		t.Fatalf("union = %v, want %v", u, want)
	}
	i := intersect(nil, []int32{1, 2, 3, 7}, []int32{2, 3, 4, 7})
	if want := []int32{2, 3, 7}; !slices.Equal(i, want) {
		t.Fatalf("intersect = %v, want %v", i, want)
	}
	if got := union(nil, nil, nil); len(got) != 0 {
		t.Fatalf("empty union = %v", got)
	}
	// Both append to dst and leave what is already there alone.
	if got := intersect(union([]int32{9}, []int32{1}, nil), []int32{4}, []int32{4}); !slices.Equal(got, []int32{9, 1, 4}) {
		t.Fatalf("append-into-dst = %v", got)
	}
}

// Property: candidates are always sorted and duplicate-free.
func TestQuickCandidatesSortedUnique(t *testing.T) {
	a, b := booksTables(100, 50, 10)
	an, ix, _, _ := buildAnalysis(t, a, b)
	f := func(row uint8) bool {
		r := int(row) % b.Len()
		cands, all, _ := ruleCandidates(ix, an, nil, b, r)
		if all {
			return true
		}
		for i := 1; i < len(cands); i++ {
			if cands[i] <= cands[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: using a subset of clauses yields a superset of candidates.
func TestQuickClauseSubsetMonotone(t *testing.T) {
	a, b := booksTables(100, 50, 11)
	an, ix, _, _ := buildAnalysis(t, a, b)
	all := an.FilterableClauses()
	if len(all) < 2 {
		t.Skip("need 2 filterable clauses")
	}
	f := func(row uint8) bool {
		r := int(row) % b.Len()
		full, fAll, _ := ruleCandidates(ix, an, all, b, r)
		part, pAll, _ := ruleCandidates(ix, an, all[:1], b, r)
		if fAll || pAll {
			return true
		}
		set := map[int32]bool{}
		for _, c := range part {
			set[c] = true
		}
		for _, c := range full {
			if !set[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRuleCandidatesBatchEquivalence: for every row and every clause subset
// the strategies use (the whole rule, one clause, one predicate), a walker
// reused across the whole stripe must report exactly what the per-row
// reference reports — same candidates, same all flag, same probe cost — and
// exactly what a walker with fresh buffers per row reports.
func TestRuleCandidatesBatchEquivalence(t *testing.T) {
	a, b := booksTables(200, 60, 12)
	an, ix, _, _ := buildAnalysis(t, a, b)
	rows := make([]int, b.Len())
	for r := range rows {
		rows[r] = r
	}
	type sub struct {
		name string
		an   *Analysis
		use  []int
	}
	subs := []sub{{"rule", an, nil}, {"unfilterable-clause", an, []int{3}}}
	kinds := map[Kind]bool{}
	for ci, c := range an.Clauses {
		if !c.Filterable {
			continue
		}
		subs = append(subs, sub{fmt.Sprintf("clause%d", ci), an, []int{ci}})
		for pi, bp := range c.Preds {
			kinds[bp.Kind] = true
			only := &Analysis{Clauses: []ClauseInfo{{Preds: []BoundPred{bp}, Filterable: true}}}
			subs = append(subs, sub{fmt.Sprintf("clause%d/pred%d", ci, pi), only, nil})
		}
	}
	if len(kinds) != 4 {
		t.Fatalf("fixture covers filter kinds %v, want all four", kinds)
	}
	for _, sb := range subs {
		visited, pruned := 0, 0
		ix.RuleCandidatesBatch(sb.an, sb.use, b, rows, func(i int, cands []int32, all bool, cost int64) {
			if i != visited {
				t.Fatalf("%s: visit order %d, want %d", sb.name, i, visited)
			}
			visited++
			if !all {
				pruned++
			}
			wc, wAll, wCost := refRuleCandidates(ix, sb.an, sb.use, b, rows[i])
			if all != wAll || cost != wCost || !slices.Equal(cands, wc) {
				t.Fatalf("%s row %d: (cands,all,cost)=(%v,%v,%d), reference (%v,%v,%d)", sb.name, rows[i], cands, all, cost, wc, wAll, wCost)
			}
			fc, fAll, fCost := ruleCandidates(ix, sb.an, sb.use, b, rows[i])
			if all != fAll || cost != fCost || !slices.Equal(cands, fc) {
				t.Fatalf("%s row %d: (cands,all,cost)=(%v,%v,%d), fresh walker (%v,%v,%d)", sb.name, rows[i], cands, all, cost, fc, fAll, fCost)
			}
		})
		if visited != len(rows) {
			t.Fatalf("%s: visited %d rows, want %d", sb.name, visited, len(rows))
		}
		if (pruned == 0) != (sb.name == "unfilterable-clause") {
			t.Fatalf("%s: %d of %d rows pruned", sb.name, pruned, len(rows))
		}
	}
}
