// Package forest implements the random-forest matcher Falcon learns via
// crowdsourced active learning (paper §3.2). Trees are CART-style binary
// decision trees over numeric feature vectors with Gini-impurity splits,
// bagged training sets, and per-node random feature subsets.
//
// Tree structure is exported because get_blocking_rules extracts root→"No"
// paths from the trees as candidate blocking rules (Figure 2).
package forest

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Example is one labeled feature vector.
type Example struct {
	Values []float64
	Label  bool // true = the pair matches
}

// Node is a decision-tree node. Leaf nodes have Feature == -1.
type Node struct {
	// Feature is the split feature index, or -1 for a leaf.
	Feature int
	// Threshold splits: value <= Threshold goes Left, else Right.
	Threshold float64
	Left      *Node
	Right     *Node
	// Match is the leaf prediction (valid only when Feature == -1).
	Match bool
	// NPos and NNeg record the training examples that reached this node,
	// useful for diagnostics and rule ranking.
	NPos, NNeg int
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Feature == -1 }

// Tree is one decision tree.
type Tree struct {
	Root *Node
}

// Predict returns the tree's vote for the vector.
func (t *Tree) Predict(v []float64) bool {
	n := t.Root
	for !n.IsLeaf() {
		if v[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Match
}

// Config controls forest training.
type Config struct {
	// NumTrees is the forest size (default 10, as in Corleone).
	NumTrees int
	// MaxDepth bounds tree depth (default 10).
	MaxDepth int
	// MinLeaf is the minimum examples per leaf (default 2).
	MinLeaf int
	// FeatureFrac is the fraction of features sampled at each node; 0 means
	// sqrt(numFeatures)/numFeatures.
	FeatureFrac float64
	// Seed makes training deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.NumTrees <= 0 {
		c.NumTrees = 10
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 10
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	return c
}

// Forest is a trained random forest.
type Forest struct {
	Trees       []*Tree
	NumFeatures int
}

// Train fits a random forest on the examples. It panics on an empty training
// set (callers always seed active learning with labeled pairs first).
func Train(examples []Example, cfg Config) *Forest {
	if len(examples) == 0 {
		panic("forest: empty training set")
	}
	cfg = cfg.withDefaults()
	m := len(examples[0].Values)
	rng := rand.New(rand.NewSource(cfg.Seed))
	mtry := int(cfg.FeatureFrac * float64(m))
	if cfg.FeatureFrac <= 0 {
		mtry = int(math.Sqrt(float64(m)))
	}
	if mtry < 1 {
		mtry = 1
	}
	if mtry > m {
		mtry = m
	}
	f := &Forest{NumFeatures: m}
	for t := 0; t < cfg.NumTrees; t++ {
		bag := make([]int, len(examples))
		for i := range bag {
			bag[i] = rng.Intn(len(examples))
		}
		b := &builder{
			examples: examples,
			mtry:     mtry,
			maxDepth: cfg.MaxDepth,
			minLeaf:  cfg.MinLeaf,
			rng:      rand.New(rand.NewSource(rng.Int63())),
		}
		f.Trees = append(f.Trees, &Tree{Root: b.build(bag, 0)})
	}
	return f
}

type builder struct {
	examples []Example
	mtry     int
	maxDepth int
	minLeaf  int
	rng      *rand.Rand
}

func counts(examples []Example, idx []int) (pos, neg int) {
	for _, i := range idx {
		if examples[i].Label {
			pos++
		} else {
			neg++
		}
	}
	return
}

func gini(pos, neg int) float64 {
	n := pos + neg
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

func (b *builder) leaf(idx []int) *Node {
	pos, neg := counts(b.examples, idx)
	return &Node{Feature: -1, Match: pos > neg, NPos: pos, NNeg: neg}
}

func (b *builder) build(idx []int, depth int) *Node {
	pos, neg := counts(b.examples, idx)
	if depth >= b.maxDepth || pos == 0 || neg == 0 || len(idx) < 2*b.minLeaf {
		return &Node{Feature: -1, Match: pos > neg, NPos: pos, NNeg: neg}
	}
	feat, thr, ok := b.bestSplit(idx, gini(pos, neg))
	if !ok {
		return &Node{Feature: -1, Match: pos > neg, NPos: pos, NNeg: neg}
	}
	var left, right []int
	for _, i := range idx {
		if b.examples[i].Values[feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.minLeaf || len(right) < b.minLeaf {
		return &Node{Feature: -1, Match: pos > neg, NPos: pos, NNeg: neg}
	}
	return &Node{
		Feature:   feat,
		Threshold: thr,
		Left:      b.build(left, depth+1),
		Right:     b.build(right, depth+1),
		NPos:      pos,
		NNeg:      neg,
	}
}

// bestSplit scans a random feature subset for the split with the largest
// Gini decrease. Thresholds are midpoints between adjacent distinct values.
func (b *builder) bestSplit(idx []int, parentGini float64) (feat int, thr float64, ok bool) {
	m := len(b.examples[0].Values)
	perm := b.rng.Perm(m)[:b.mtry]
	bestGain := 1e-12
	type valLabel struct {
		v     float64
		label bool
	}
	vals := make([]valLabel, 0, len(idx))
	for _, fi := range perm {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, valLabel{b.examples[i].Values[fi], b.examples[i].Label})
		}
		slices.SortFunc(vals, func(a, b valLabel) int { return cmp.Compare(a.v, b.v) })
		totalPos, totalNeg := 0, 0
		for _, v := range vals {
			if v.label {
				totalPos++
			} else {
				totalNeg++
			}
		}
		leftPos, leftNeg := 0, 0
		n := len(vals)
		for i := 0; i < n-1; i++ {
			if vals[i].label {
				leftPos++
			} else {
				leftNeg++
			}
			if vals[i].v == vals[i+1].v {
				continue
			}
			nl, nr := i+1, n-i-1
			g := (float64(nl)*gini(leftPos, leftNeg) + float64(nr)*gini(totalPos-leftPos, totalNeg-leftNeg)) / float64(n)
			if gain := parentGini - g; gain > bestGain {
				bestGain = gain
				feat = fi
				thr = (vals[i].v + vals[i+1].v) / 2
				ok = true
			}
		}
	}
	return
}

// Votes returns the number of trees voting "match" for the vector.
func (f *Forest) Votes(v []float64) int {
	n := 0
	for _, t := range f.Trees {
		if t.Predict(v) {
			n++
		}
	}
	return n
}

// Predict returns the majority vote.
func (f *Forest) Predict(v []float64) bool {
	return 2*f.Votes(v) > len(f.Trees)
}

// Confidence returns the fraction of trees voting "match", in [0,1].
// Values near 0.5 identify the controversial pairs active learning selects.
func (f *Forest) Confidence(v []float64) float64 {
	if len(f.Trees) == 0 {
		return 0
	}
	return float64(f.Votes(v)) / float64(len(f.Trees))
}

// SplitFeatures returns the distinct features the trees split on, ascending:
// the only vector slots Votes (and so Predict, Confidence and Entropy)
// reads, so the only features a consumer of the forest has to compute. A
// single-leaf forest reads none. A forest can arrive decoded from outside
// input, so the walk also checks what those readers assume — every tree has
// a root, every split indexes inside [0, NumFeatures) and has both
// children — and reports the first violation instead of leaving it to panic
// at prediction time.
func (f *Forest) SplitFeatures() ([]int, error) {
	seen := make([]bool, max(f.NumFeatures, 0))
	var walk func(n *Node) error
	walk = func(n *Node) error {
		switch {
		case n == nil:
			return fmt.Errorf("missing node")
		case n.IsLeaf():
			return nil
		case n.Feature < 0 || n.Feature >= len(seen):
			return fmt.Errorf("split on feature %d outside the %d-feature space", n.Feature, len(seen))
		case n.Left == nil || n.Right == nil:
			return fmt.Errorf("split on feature %d is missing a child", n.Feature)
		}
		seen[n.Feature] = true
		if err := walk(n.Left); err != nil {
			return err
		}
		return walk(n.Right)
	}
	for i, t := range f.Trees {
		if t == nil {
			return nil, fmt.Errorf("forest: tree %d: missing", i)
		}
		if err := walk(t.Root); err != nil {
			return nil, fmt.Errorf("forest: tree %d: %w", i, err)
		}
	}
	var out []int
	for fi, ok := range seen {
		if ok {
			out = append(out, fi)
		}
	}
	return out, nil
}

// Entropy returns the binary vote entropy, maximal at confidence 0.5.
func (f *Forest) Entropy(v []float64) float64 {
	p := f.Confidence(v)
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// Size returns the total node count across trees (diagnostics).
func (f *Forest) Size() int {
	total := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		total++
		if !n.IsLeaf() {
			walk(n.Left)
			walk(n.Right)
		}
	}
	for _, t := range f.Trees {
		walk(t.Root)
	}
	return total
}

// String summarizes the forest.
func (f *Forest) String() string {
	return fmt.Sprintf("Forest(%d trees, %d features, %d nodes)", len(f.Trees), f.NumFeatures, f.Size())
}
