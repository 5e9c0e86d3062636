package model

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"falcon/internal/feature"
	"falcon/internal/forest"
	"falcon/internal/mapreduce"
	"falcon/internal/rules"
	"falcon/internal/table"
)

// trainWorld builds tables, a feature set, and a hand-trained matcher with
// a simple rule sequence, so models can be built without the full pipeline.
func trainWorld(t *testing.T, n int, seed int64) (*table.Table, *table.Table, *feature.Set, *Model) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	words := []string{"war", "peace", "art", "code", "go", "data", "cloud", "entity"}
	mk := func(name string) *table.Table {
		tb := table.New(name, table.NewSchema("title", "price"))
		for i := 0; i < n; i++ {
			var ws []string
			for j := 0; j < 3+rng.Intn(3); j++ {
				ws = append(ws, words[rng.Intn(len(words))])
			}
			tb.Append(strings.Join(ws, " "), "10")
		}
		tb.InferTypes()
		return tb
	}
	a, b := mk("A"), mk("B")
	// Plant exact-title matches so the matcher has positives to find.
	for i := 0; i < n/2; i++ {
		b.Tuples[i].Values[0] = a.Tuples[i].Values[0]
	}
	set := feature.Generate(a, b)
	vz := feature.NewVectorizer(set, a, b)

	// Train a matcher on "same title" ground truth: the planted positives
	// plus random (mostly negative) pairs.
	var exs []forest.Example
	addExample := func(p table.Pair) {
		vec := vz.Vector(p)
		exs = append(exs, forest.Example{Values: vec.Values, Label: a.Value(p.A, 0) == b.Value(p.B, 0)})
	}
	for i := 0; i < n/2; i++ {
		addExample(table.Pair{A: i, B: i})
	}
	for i := 0; i < 300; i++ {
		addExample(table.Pair{A: rng.Intn(n), B: rng.Intn(n)})
	}
	matcher := forest.Train(exs, forest.Config{Seed: 5})

	// One blocking rule: drop if title jaccard ≤ 0.5.
	jw := -1
	for i, idx := range set.BlockingIdx {
		if set.Features[idx].Name == "jaccard_word(title)" {
			jw = i
		}
	}
	if jw < 0 {
		t.Fatal("no jaccard_word(title) feature")
	}
	seq := []rules.Rule{{ID: 0, Preds: []rules.Predicate{{Feature: jw, Op: rules.LE, Value: 0.5}}}}
	m := New(set, seq, []float64{0.2}, matcher)
	return a, b, set, m
}

func TestSaveLoadRoundTrip(t *testing.T) {
	a, b, _, m := trainWorld(t, 60, 1)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.FeatureNames) != len(m.FeatureNames) || len(m2.RuleSeq) != 1 {
		t.Fatalf("round trip lost structure: %d features, %d rules", len(m2.FeatureNames), len(m2.RuleSeq))
	}
	// Both models must predict identically.
	got1, n1, err := m.Apply(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	got2, n2, err := m2.Apply(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got1) != len(got2) || n1 != n2 {
		t.Fatalf("loaded model differs: %d/%d vs %d/%d", len(got1), n1, len(got2), n2)
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatal("loaded model predicts differently")
		}
	}
}

func TestApplyMatchesTruth(t *testing.T) {
	a, b, _, m := trainWorld(t, 80, 2)
	matches, cands, err := m.Apply(mapreduce.Default(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if cands == 0 {
		t.Fatal("blocking dropped everything")
	}
	if cands >= a.Len()*b.Len() {
		t.Fatal("blocking dropped nothing")
	}
	// Spot-check: predicted matches mostly share titles.
	good := 0
	for _, p := range matches {
		if a.Value(p.A, 0) == b.Value(p.B, 0) {
			good++
		}
	}
	if len(matches) == 0 || good < len(matches)*6/10 {
		t.Fatalf("model predictions poor: %d/%d share titles", good, len(matches))
	}
}

func TestApplyMatcherOnly(t *testing.T) {
	a, b, set, m := trainWorld(t, 25, 3)
	m2 := New(set, nil, nil, m.Matcher)
	matches, cands, err := m2.Apply(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if cands != a.Len()*b.Len() {
		t.Fatalf("matcher-only should scan the full product: %d", cands)
	}
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
}

func TestBindRejectsSchemaMismatch(t *testing.T) {
	a, _, _, m := trainWorld(t, 20, 4)
	other := table.New("other", table.NewSchema("totally", "different", "schema"))
	other.Append("x", "y", "z")
	other.InferTypes()
	if _, err := m.Bind(a, other); err == nil {
		t.Fatal("schema mismatch should fail Bind")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage should fail")
	}
	if _, err := Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("wrong version should fail")
	}
	if _, err := Load(strings.NewReader(`{"version": 1}`)); err == nil {
		t.Fatal("missing matcher should fail")
	}
}

func TestSeqSel(t *testing.T) {
	if got := seqSel([]float64{0.5, 0.5}); got != 0.25 {
		t.Fatalf("seqSel = %v", got)
	}
	if got := seqSel(nil); got != 1 {
		t.Fatalf("empty seqSel = %v", got)
	}
}

// oracleApply is Apply from scratch: every feature of every pair of A×B
// through the string oracle Feature.Eval, the CNF on the whole blocking
// vector, the forest on the whole full vector.
func oracleApply(a, b *table.Table, set *feature.Set, m *Model) (matches []table.Pair, cands int) {
	cnf := rules.ToCNF(m.RuleSeq)
	full, blocking := make([]float64, len(set.Features)), make([]float64, len(set.BlockingIdx))
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			for k := range set.Features {
				f := &set.Features[k]
				full[k] = f.Eval(a.Value(i, f.ACol), b.Value(j, f.BCol))
			}
			for pos, k := range set.BlockingIdx {
				blocking[pos] = full[k]
			}
			if !cnf.Keep(blocking) {
				continue
			}
			cands++
			if m.Matcher.Predict(full) {
				matches = append(matches, table.Pair{A: i, B: j})
			}
		}
	}
	return matches, cands
}

// TestApplyProjectedMatchesOracle: Apply computes only the features the CNF
// and the forest read (every other slot of its value rows is NaN), and must
// still return exactly the oracle's pairs — for the trained model and for
// the edge models whose read sets are empty, absent or disjoint.
func TestApplyProjectedMatchesOracle(t *testing.T) {
	a, b, set, trained := trainWorld(t, 60, 6)
	full := func(name string) int {
		f := set.ByName(name)
		if f == nil {
			t.Fatalf("no feature %s", name)
		}
		return f.ID
	}
	leaf := func(match bool) *forest.Node { return &forest.Node{Feature: -1, Match: match} }
	stump := func(feat int, thr float64) *forest.Tree {
		return &forest.Tree{Root: &forest.Node{Feature: feat, Threshold: thr, Left: leaf(false), Right: leaf(true)}}
	}
	yes := &forest.Forest{NumFeatures: len(set.Features), Trees: []*forest.Tree{{Root: leaf(true)}}}
	// The rule reads jaccard_word(title); this forest reads two features the
	// blocking stage may not even use.
	disjoint := &forest.Forest{NumFeatures: len(set.Features), Trees: []*forest.Tree{
		stump(full("monge_elkan_word(title)"), 0.8), stump(full("levenshtein(price)"), 0.5), stump(full("monge_elkan_word(title)"), 0.6),
	}}
	for _, c := range []struct {
		name string
		m    *Model
	}{
		{"trained", trained},
		{"single-leaf forest", New(set, trained.RuleSeq, trained.ClauseSel, yes)},
		{"empty CNF", New(set, nil, nil, trained.Matcher)},
		{"empty CNF and single-leaf forest", New(set, nil, nil, yes)},
		{"disjoint read sets", New(set, trained.RuleSeq, trained.ClauseSel, disjoint)},
	} {
		want, wantCands := oracleApply(a, b, set, c.m)
		got, cands, err := c.m.Apply(mapreduce.Default(), a, b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cands != wantCands || !slices.Equal(got, want) {
			t.Errorf("%s: %d matches of %d candidates, oracle has %d of %d", c.name, len(got), cands, len(want), wantCands)
		}
		if len(want) == 0 {
			t.Errorf("%s: oracle finds no match; the comparison is vacuous", c.name)
		}
	}
}

// TestApplyRejectsModelOutsideFeatureSpace: a model decoded from outside
// input whose rules or trees index past the feature space is an error, not
// a panic inside the scoring loop.
func TestApplyRejectsModelOutsideFeatureSpace(t *testing.T) {
	a, b, set, m := trainWorld(t, 20, 7)
	leaf := &forest.Node{Feature: -1}
	for _, c := range []struct {
		name string
		m    *Model
		want string
	}{
		{"rule past the blocking space", New(set, []rules.Rule{{Preds: []rules.Predicate{{Feature: len(set.BlockingIdx), Op: rules.LE, Value: 0.5}}}}, []float64{0.5}, m.Matcher), "rule predicate outside"},
		{"split past the feature space", New(set, nil, nil, &forest.Forest{NumFeatures: len(set.Features), Trees: []*forest.Tree{{Root: &forest.Node{Feature: len(set.Features), Left: leaf, Right: leaf}}}}), "outside"},
		{"non-leaf without children", New(set, nil, nil, &forest.Forest{NumFeatures: len(set.Features), Trees: []*forest.Tree{{Root: &forest.Node{Feature: -2}}}}), "outside"},
		{"forest over another feature space", New(set, nil, nil, &forest.Forest{NumFeatures: len(set.Features) + 1, Trees: m.Matcher.Trees}), "matcher trained on"},
	} {
		if _, _, err := c.m.Apply(nil, a, b); err == nil {
			t.Errorf("%s: applied", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestApplyScoringHonorsCancellation: the scoring loop looks at its context
// every ctxCheckPairs pairs, on the matcher-only plan too (no blocking job
// to notice the cancellation for it).
func TestApplyScoringHonorsCancellation(t *testing.T) {
	a, b, set, m := trainWorld(t, 80, 8) // 6400 pairs > ctxCheckPairs
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := New(set, nil, nil, m.Matcher).ApplyContext(ctx, nil, a, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("matcher-only apply under a cancelled context: err = %v, want context.Canceled", err)
	}

	// Cancelled after the first A row, the scorer must stop at its next check.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	sc := scorer{ctx: ctx, matcher: m.Matcher, proj: feature.NewVectorizer(set, a, b).Project(nil)}
	rows := make([]int32, b.Len())
	scored := 0
	for i := 0; i < a.Len(); i++ {
		if i == 1 {
			cancel()
		}
		if err := sc.score(i, rows); err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			break
		}
		scored += len(rows)
	}
	if scored < b.Len() || scored > b.Len()+ctxCheckPairs {
		t.Fatalf("scored %d pairs after cancelling at pair %d; want a stop within %d pairs", scored, b.Len(), ctxCheckPairs)
	}
}

// TestApplyScoringAllocs pins the scoring loop's budget: one reused value
// row and the pooled scratch, so nothing is allocated per pair (only the
// match list grows, and it is pre-grown here).
func TestApplyScoringAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops pooled rows under the race detector")
	}
	a, b, set, m := trainWorld(t, 60, 9)
	read, err := m.Matcher.SplitFeatures()
	if err != nil {
		t.Fatal(err)
	}
	sc := scorer{ctx: context.Background(), matcher: m.Matcher, proj: feature.NewVectorizer(set, a, b).Project(read)}
	rows := make([]int32, b.Len())
	for j := range rows {
		rows[j] = int32(j)
	}
	pass := func() {
		sc.matches = sc.matches[:0]
		for i := 0; i < a.Len(); i++ {
			if err := sc.score(i, rows); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	if len(sc.matches) == 0 {
		t.Fatal("no matches scored")
	}
	if allocs := testing.AllocsPerRun(5, pass); allocs > 0 {
		t.Fatalf("scoring %d pairs allocates %.1f objects, want 0", a.Len()*b.Len(), allocs)
	}
}
