package rules

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"falcon/internal/forest"
)

func TestOpEvalAndNegate(t *testing.T) {
	cases := []struct {
		op       Op
		v, bound float64
		want     bool
	}{
		{LE, 0.5, 0.5, true},
		{LE, 0.6, 0.5, false},
		{GT, 0.6, 0.5, true},
		{GT, 0.5, 0.5, false},
		{LT, 0.4, 0.5, true},
		{GE, 0.5, 0.5, true},
		{EQ, 1, 1, true},
		{NE, 1, 1, false},
	}
	for _, c := range cases {
		p := Predicate{Feature: 0, Op: c.op, Value: c.bound}
		if got := p.Eval(c.v); got != c.want {
			t.Errorf("%v Eval(%v) = %v, want %v", p, c.v, got, c.want)
		}
		n := p.Negate()
		if got := n.Eval(c.v); got == c.want {
			t.Errorf("negated %v should flip on %v", p, c.v)
		}
	}
}

func TestOpStrings(t *testing.T) {
	for op, s := range map[Op]string{LE: "<=", GT: ">", LT: "<", GE: ">=", EQ: "==", NE: "!="} {
		if op.String() != s {
			t.Errorf("Op %d String = %q, want %q", op, op.String(), s)
		}
	}
}

func TestRuleFires(t *testing.T) {
	// "isbn_exact <= 0.5 AND pages_exact <= 0.5 → drop" (Figure 2 rule 2).
	r := Rule{Preds: []Predicate{
		{Feature: 0, Op: LE, Value: 0.5},
		{Feature: 1, Op: LE, Value: 0.5},
	}}
	if !r.Fires([]float64{0, 0}) {
		t.Fatal("both predicates hold; should fire")
	}
	if r.Fires([]float64{1, 0}) {
		t.Fatal("first predicate fails; should not fire")
	}
}

func TestCoverage(t *testing.T) {
	r := Rule{Preds: []Predicate{{Feature: 0, Op: LE, Value: 0.5}}}
	vecs := [][]float64{{0.1}, {0.9}, {0.5}, {0.6}}
	cov := r.Coverage(vecs)
	if cov.Count() != 2 || !cov.Get(0) || !cov.Get(2) {
		t.Fatalf("coverage = %v", cov.Ones())
	}
}

func trainSmallForest(t *testing.T) *forest.Forest {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var exs []forest.Example
	for i := 0; i < 400; i++ {
		x0, x1 := rng.Float64(), rng.Float64()
		exs = append(exs, forest.Example{Values: []float64{x0, x1}, Label: x0 > 0.6 && x1 > 0.3})
	}
	return forest.Train(exs, forest.Config{Seed: 2, NumTrees: 5})
}

func TestExtract(t *testing.T) {
	f := trainSmallForest(t)
	rs := Extract(f)
	if len(rs) == 0 {
		t.Fatal("no rules extracted")
	}
	// IDs dense.
	for i, r := range rs {
		if r.ID != i {
			t.Fatalf("rule %d has ID %d", i, r.ID)
		}
		if len(r.Preds) == 0 {
			t.Fatalf("rule %d has no predicates", i)
		}
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, r := range rs {
		if seen[r.key()] {
			t.Fatalf("duplicate rule %v", r)
		}
		seen[r.key()] = true
	}
	// Extracted rules must agree with the trees: a vector dropped by all
	// trees should fire at least one rule.
	vec := []float64{0.1, 0.1} // clear negative
	fired := false
	for _, r := range rs {
		if r.Fires(vec) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("no extracted rule fires on a clear negative")
	}
}

func TestExtractOnlyNoLeaves(t *testing.T) {
	// Tree with one split: left=No, right=Yes → exactly one rule (f0 <= t).
	tree := &forest.Tree{Root: &forest.Node{
		Feature:   0,
		Threshold: 0.5,
		Left:      &forest.Node{Feature: -1, Match: false},
		Right:     &forest.Node{Feature: -1, Match: true},
	}}
	f := &forest.Forest{Trees: []*forest.Tree{tree}, NumFeatures: 1}
	rs := Extract(f)
	if len(rs) != 1 {
		t.Fatalf("got %d rules, want 1", len(rs))
	}
	want := Predicate{Feature: 0, Op: LE, Value: 0.5}
	if rs[0].Preds[0] != want {
		t.Fatalf("rule = %v", rs[0])
	}
}

func TestSimplifyMergesBounds(t *testing.T) {
	r := Rule{Preds: []Predicate{
		{Feature: 0, Op: LT, Value: 0.5},
		{Feature: 0, Op: LT, Value: 0.2},
		{Feature: 0, Op: GT, Value: 0.05},
		{Feature: 1, Op: GE, Value: 0.7},
	}}
	s := Simplify(r)
	if len(s.Preds) != 3 {
		t.Fatalf("simplified to %d predicates, want 3: %v", len(s.Preds), s)
	}
	// Feature 0 keeps > 0.05 and < 0.2.
	found := map[string]bool{}
	for _, p := range s.Preds {
		found[p.String()] = true
	}
	for _, want := range []string{"f0 > 0.05", "f0 < 0.2", "f1 >= 0.7"} {
		if !found[want] {
			t.Fatalf("missing %q in %v", want, s)
		}
	}
}

func TestSimplifyTieBreaksStrictness(t *testing.T) {
	r := Rule{Preds: []Predicate{
		{Feature: 0, Op: LE, Value: 0.5},
		{Feature: 0, Op: LT, Value: 0.5},
	}}
	s := Simplify(r)
	if len(s.Preds) != 1 || s.Preds[0].Op != LT {
		t.Fatalf("want single strict <, got %v", s)
	}
}

func TestSimplifyKeepsEquality(t *testing.T) {
	r := Rule{Preds: []Predicate{
		{Feature: 0, Op: EQ, Value: 1},
		{Feature: 0, Op: LE, Value: 2},
	}}
	s := Simplify(r)
	if len(s.Preds) != 2 {
		t.Fatalf("EQ should pass through: %v", s)
	}
}

// Property: Simplify preserves rule semantics.
func TestQuickSimplifyEquivalent(t *testing.T) {
	ops := []Op{LE, GT, LT, GE}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var preds []Predicate
		for i := 0; i < 1+rng.Intn(6); i++ {
			preds = append(preds, Predicate{
				Feature: rng.Intn(3),
				Op:      ops[rng.Intn(len(ops))],
				Value:   float64(rng.Intn(10)) / 10,
			})
		}
		r := Rule{Preds: preds}
		s := Simplify(r)
		for trial := 0; trial < 50; trial++ {
			vec := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			if r.Fires(vec) != s.Fires(vec) {
				t.Logf("rule %v vs simplified %v differ on %v", r, s, vec)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestToCNFKeepSemantics(t *testing.T) {
	seq := []Rule{
		{ID: 0, Preds: []Predicate{{Feature: 0, Op: LE, Value: 0.6}}},
		{ID: 1, Preds: []Predicate{
			{Feature: 1, Op: LE, Value: 0.5},
			{Feature: 2, Op: GE, Value: 10},
		}},
	}
	cnf := ToCNF(seq)
	if len(cnf.Clauses) != 2 {
		t.Fatalf("clauses = %d", len(cnf.Clauses))
	}
	cases := []struct {
		vec  []float64
		keep bool
	}{
		{[]float64{0.7, 0.6, 0}, true},   // survives both
		{[]float64{0.5, 0.6, 0}, false},  // rule 0 fires
		{[]float64{0.7, 0.4, 15}, false}, // rule 1 fires
		{[]float64{0.7, 0.4, 5}, true},   // rule 1 half-fires only
	}
	for _, c := range cases {
		if got := cnf.Keep(c.vec); got != c.keep {
			t.Errorf("Keep(%v) = %v, want %v", c.vec, got, c.keep)
		}
	}
}

// Property: CNF.Keep ⇔ no rule in the sequence fires.
func TestQuickCNFMatchesSequence(t *testing.T) {
	ops := []Op{LE, GT, LT, GE}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var seq []Rule
		for r := 0; r < 1+rng.Intn(4); r++ {
			var preds []Predicate
			for i := 0; i < 1+rng.Intn(3); i++ {
				preds = append(preds, Predicate{
					Feature: rng.Intn(4),
					Op:      ops[rng.Intn(len(ops))],
					Value:   rng.Float64(),
				})
			}
			seq = append(seq, Rule{ID: r, Preds: preds})
		}
		cnf := ToCNF(seq)
		for trial := 0; trial < 40; trial++ {
			vec := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
			if cnf.Keep(vec) == SequenceFires(seq, vec) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStrings(t *testing.T) {
	r := Rule{ID: 3, Preds: []Predicate{{Feature: 1, Op: LE, Value: 0.25}}}
	if !strings.Contains(r.String(), "R3") || !strings.Contains(r.String(), "f1 <= 0.25") {
		t.Fatalf("Rule.String = %q", r.String())
	}
	cnf := ToCNF([]Rule{r})
	if !strings.Contains(cnf.String(), "keep") {
		t.Fatalf("CNF.String = %q", cnf.String())
	}
}

func TestCNFFeatures(t *testing.T) {
	cnf := ToCNF([]Rule{
		{Preds: []Predicate{{Feature: 7, Op: LE, Value: 0.4}, {Feature: 2, Op: GT, Value: 1}}},
		{Preds: []Predicate{{Feature: 7, Op: GT, Value: 0.9}}},
	})
	if got := cnf.Features(); !slices.Equal(got, []int{2, 7}) {
		t.Fatalf("Features = %v, want [2 7]", got)
	}
	if got := (CNF{}).Features(); len(got) != 0 {
		t.Fatalf("empty CNF reads %v", got)
	}
}
