package forest

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// linearData generates a separable two-feature problem: label = (x0 > 0.5).
func linearData(n int, seed int64, noise float64) []Example {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Example, n)
	for i := range out {
		x0, x1 := rng.Float64(), rng.Float64()
		label := x0 > 0.5
		if rng.Float64() < noise {
			label = !label
		}
		out[i] = Example{Values: []float64{x0, x1}, Label: label}
	}
	return out
}

func accuracy(f *Forest, data []Example) float64 {
	correct := 0
	for _, e := range data {
		if f.Predict(e.Values) == e.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(data))
}

func TestTrainSeparable(t *testing.T) {
	train := linearData(400, 1, 0)
	test := linearData(200, 2, 0)
	f := Train(train, Config{Seed: 7})
	if acc := accuracy(f, test); acc < 0.95 {
		t.Fatalf("accuracy %v on separable data, want ≥0.95", acc)
	}
	if len(f.Trees) != 10 {
		t.Fatalf("default forest size %d, want 10", len(f.Trees))
	}
	if f.NumFeatures != 2 {
		t.Fatalf("NumFeatures = %d", f.NumFeatures)
	}
}

func TestTrainNoisy(t *testing.T) {
	train := linearData(600, 3, 0.1)
	test := linearData(300, 4, 0)
	f := Train(train, Config{Seed: 7, NumTrees: 15})
	if acc := accuracy(f, test); acc < 0.85 {
		t.Fatalf("accuracy %v on noisy data, want ≥0.85", acc)
	}
}

func TestTrainEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Train(nil, Config{})
}

func TestDeterminism(t *testing.T) {
	train := linearData(200, 5, 0.05)
	f1 := Train(train, Config{Seed: 42})
	f2 := Train(train, Config{Seed: 42})
	probe := linearData(100, 6, 0)
	for _, e := range probe {
		if f1.Confidence(e.Values) != f2.Confidence(e.Values) {
			t.Fatal("same seed should give identical forests")
		}
	}
}

func TestPureNodeBecomesLeaf(t *testing.T) {
	// All positive: root must be a match leaf.
	exs := []Example{
		{Values: []float64{0.1}, Label: true},
		{Values: []float64{0.9}, Label: true},
	}
	f := Train(exs, Config{Seed: 1, NumTrees: 3})
	for _, tree := range f.Trees {
		if !tree.Root.IsLeaf() || !tree.Root.Match {
			t.Fatal("pure-positive training should yield match leaves")
		}
	}
}

func TestConstantFeatureNoSplit(t *testing.T) {
	// Identical vectors with mixed labels: no split exists.
	exs := []Example{
		{Values: []float64{0.5}, Label: true},
		{Values: []float64{0.5}, Label: false},
		{Values: []float64{0.5}, Label: false},
		{Values: []float64{0.5}, Label: false},
	}
	f := Train(exs, Config{Seed: 1, NumTrees: 1})
	root := f.Trees[0].Root
	if !root.IsLeaf() {
		t.Fatal("unsplittable data should produce a leaf")
	}
	if f.Predict([]float64{0.5}) {
		t.Fatal("majority-negative leaf should predict no-match")
	}
}

func TestMaxDepthRespected(t *testing.T) {
	train := linearData(500, 8, 0.2)
	f := Train(train, Config{Seed: 1, MaxDepth: 2, NumTrees: 5})
	var depth func(n *Node) int
	depth = func(n *Node) int {
		if n.IsLeaf() {
			return 0
		}
		l, r := depth(n.Left), depth(n.Right)
		if r > l {
			l = r
		}
		return 1 + l
	}
	for _, tree := range f.Trees {
		if d := depth(tree.Root); d > 2 {
			t.Fatalf("tree depth %d exceeds MaxDepth 2", d)
		}
	}
}

func TestVotesAndConfidence(t *testing.T) {
	train := linearData(300, 9, 0)
	f := Train(train, Config{Seed: 1})
	v := []float64{0.95, 0.5}
	votes := f.Votes(v)
	if votes < 8 {
		t.Fatalf("clear positive got only %d/10 votes", votes)
	}
	if got := f.Confidence(v); got != float64(votes)/10 {
		t.Fatalf("Confidence = %v, want %v", got, float64(votes)/10)
	}
}

func TestEntropy(t *testing.T) {
	f := &Forest{Trees: nil}
	if f.Entropy([]float64{0}) != 0 {
		t.Fatal("empty forest entropy should be 0")
	}
	// Build a fake forest with half/half votes.
	leafYes := &Tree{Root: &Node{Feature: -1, Match: true}}
	leafNo := &Tree{Root: &Node{Feature: -1, Match: false}}
	f = &Forest{Trees: []*Tree{leafYes, leafNo}}
	if got := f.Entropy([]float64{0}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("50/50 entropy = %v, want 1", got)
	}
	f = &Forest{Trees: []*Tree{leafYes, leafYes}}
	if got := f.Entropy([]float64{0}); got != 0 {
		t.Fatalf("unanimous entropy = %v, want 0", got)
	}
}

func TestSizeAndString(t *testing.T) {
	train := linearData(100, 10, 0)
	f := Train(train, Config{Seed: 1, NumTrees: 2})
	if f.Size() < 2 {
		t.Fatalf("Size = %d", f.Size())
	}
	if f.String() == "" {
		t.Fatal("String empty")
	}
}

func TestPredictUsesThresholdDirection(t *testing.T) {
	// Manual tree: x0 <= 0.5 → no-match, else match.
	tree := &Tree{Root: &Node{
		Feature:   0,
		Threshold: 0.5,
		Left:      &Node{Feature: -1, Match: false},
		Right:     &Node{Feature: -1, Match: true},
	}}
	if tree.Predict([]float64{0.5}) {
		t.Fatal("boundary value should go left")
	}
	if !tree.Predict([]float64{0.51}) {
		t.Fatal("value above threshold should go right")
	}
}

// Property: forest predictions are invariant to example order (training is
// seeded on indices, so this checks bagging uses the permuted copy correctly
// — it shouldn't be identical, but accuracy must stay high).
func TestQuickAccuracyStableUnderReseed(t *testing.T) {
	test := linearData(200, 99, 0)
	f := func(seed int64) bool {
		train := linearData(300, seed, 0.05)
		forest := Train(train, Config{Seed: seed})
		return accuracy(forest, test) > 0.8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: Confidence is always in [0,1] and Predict agrees with it.
func TestQuickConfidenceConsistency(t *testing.T) {
	train := linearData(300, 11, 0.1)
	forest := Train(train, Config{Seed: 3})
	f := func(a, b float64) bool {
		v := []float64{math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))}
		c := forest.Confidence(v)
		if c < 0 || c > 1 {
			return false
		}
		return forest.Predict(v) == (c > 0.5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTrain(b *testing.B) {
	train := linearData(1000, 1, 0.05)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Train(train, Config{Seed: int64(i)})
	}
}

func BenchmarkPredict(b *testing.B) {
	train := linearData(1000, 1, 0.05)
	f := Train(train, Config{Seed: 1})
	v := []float64{0.4, 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(v)
	}
}

// TestSplitFeatures: the read set is exactly the features some split
// compares — poisoning every other slot with NaN changes no vote — and a
// forest that Predict would panic on is reported instead.
func TestSplitFeatures(t *testing.T) {
	data := linearData(300, 3, 0.1)
	for i := range data { // pad to 6 features so most go unread
		data[i].Values = append(data[i].Values, 0, 1, 0, 1)
	}
	f := Train(data, Config{NumTrees: 5, Seed: 4})
	read, err := f.SplitFeatures()
	if err != nil {
		t.Fatal(err)
	}
	if len(read) == 0 || len(read) > 2 || !slices.IsSorted(read) {
		t.Fatalf("read set %v, want a sorted subset of the two varying features", read)
	}
	for _, e := range data {
		poisoned := make([]float64, len(e.Values))
		for i := range poisoned {
			poisoned[i] = math.NaN()
		}
		for _, fi := range read {
			poisoned[fi] = e.Values[fi]
		}
		if f.Votes(poisoned) != f.Votes(e.Values) {
			t.Fatalf("votes differ once the slots outside %v are NaN", read)
		}
	}

	leaf := func(match bool) *Node { return &Node{Feature: -1, Match: match} }
	single := &Forest{NumFeatures: 6, Trees: []*Tree{{Root: leaf(true)}}}
	if read, err := single.SplitFeatures(); err != nil || len(read) != 0 {
		t.Fatalf("single-leaf forest: read set %v, err %v; want empty, nil", read, err)
	}
	for _, c := range []struct {
		name string
		f    *Forest
		want string
	}{
		{"split past the feature space", &Forest{NumFeatures: 6, Trees: []*Tree{{Root: &Node{Feature: 6, Left: leaf(false), Right: leaf(true)}}}}, "outside"},
		{"negative non-leaf feature", &Forest{NumFeatures: 6, Trees: []*Tree{{Root: &Node{Feature: -2}}}}, "outside"},
		{"split without children", &Forest{NumFeatures: 6, Trees: []*Tree{{Root: leaf(true)}, {Root: &Node{Feature: 1, Left: leaf(false)}}}}, "tree 1: split on feature 1 is missing a child"},
		{"tree without a root", &Forest{NumFeatures: 6, Trees: []*Tree{{}}}, "missing node"},
		{"nil tree", &Forest{NumFeatures: 6, Trees: []*Tree{nil}}, "missing"},
		{"bad node below a good split", &Forest{NumFeatures: 6, Trees: []*Tree{{Root: &Node{Feature: 0, Left: leaf(false), Right: &Node{Feature: 9, Left: leaf(false), Right: leaf(true)}}}}}, "feature 9 outside"},
	} {
		if _, err := c.f.SplitFeatures(); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want mention of %q", c.name, err, c.want)
		}
	}
}
