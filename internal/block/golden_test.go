package block

import (
	"context"
	"math"
	"slices"
	"testing"

	"falcon/internal/feature"
	"falcon/internal/filters"
	"falcon/internal/mapreduce"
	"falcon/internal/rules"
	"falcon/internal/table"
)

// The dictionary-encoded token pipeline, the bit-parallel kernels and the
// batched candidate walker must be invisible in every output. These golden
// tests hold the one production path to oracles that share none of its
// machinery: feature vectors must equal Feature.Eval on the raw cell values
// bit for bit, and every physical operator, at any worker count, must
// produce exactly the pairs a brute-force scan of A×B keeps when the CNF is
// evaluated on those oracle values — with modeled SimTime and the engine
// counters independent of the worker count. Every strategy verifies on the
// CNF's read set only (the other slots of its value rows hold NaN), so the
// brute-force comparison is also the proof that the projection reads nothing
// else. (Probe candidates and lookup counts are held to
// index.ReferenceProbe in the filters and index tests; plan-template
// coverage lives in core's worker-invariance tests.)

// goldenInput builds a fresh Input over shared tables so column caches
// cannot leak between runs. The rule sequence's CNF has a predicate of every
// filter kind plus one unfilterable clause.
func goldenInput(t *testing.T, a, b *table.Table, set *feature.Set) *Input {
	t.Helper()
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
		{ID: 2, Preds: []rules.Predicate{
			{Feature: pos("levenshtein(year)"), Op: rules.LT, Value: 0.7},
			{Feature: pos("rel_diff(price)"), Op: rules.GT, Value: 0.5},
		}},
		{ID: 3, Preds: []rules.Predicate{{Feature: pos("jaccard_word(title)"), Op: rules.GT, Value: 0.95}}},
	}
	an := filters.Analyze(rules.ToCNF(seq), feats)
	ix := filters.NewIndexes(mapreduce.Default(), a)
	if _, err := ix.EnsureAll(context.Background(), an.NeededIndexes()); err != nil {
		t.Fatal(err)
	}
	return &Input{
		A: a, B: b,
		Analysis:   an,
		Indexes:    ix,
		Vectorizer: feature.NewVectorizer(set, a, b),
		ClauseSel:  []float64{0.3, 0.7, 0.8, 0.99},
	}
}

// bruteForcePairs scans A×B, evaluating the CNF on blocking vectors computed
// by Feature.Eval from the raw cells.
func bruteForcePairs(in *Input) []table.Pair {
	var out []table.Pair
	vals := make([]float64, len(in.Analysis.Feats))
	for ai := 0; ai < in.A.Len(); ai++ {
		for bi := 0; bi < in.B.Len(); bi++ {
			for k, f := range in.Analysis.Feats {
				vals[k] = f.Eval(in.A.Value(ai, f.ACol), in.B.Value(bi, f.BCol))
			}
			if in.Analysis.CNF.Keep(vals) {
				out = append(out, table.Pair{A: ai, B: bi})
			}
		}
	}
	return out
}

func TestGoldenStringVsIDPathAllStrategies(t *testing.T) {
	a, bt := mkTables(120, 80, 11)
	set := feature.Generate(a, bt)
	want := bruteForcePairs(goldenInput(t, a, bt, set))
	if len(want) == 0 || len(want) == a.Len()*bt.Len() {
		t.Fatalf("degenerate fixture: brute force keeps %d of %d pairs", len(want), a.Len()*bt.Len())
	}
	for _, s := range []Strategy{ApplyAll, ApplyGreedy, ApplyConjunct, ApplyPredicate, MapSide, ReduceSplit} {
		var base *Result
		for _, workers := range []int{1, 8} {
			cluster := mapreduce.Default()
			cluster.Workers = workers
			res, err := Run(context.Background(), cluster, goldenInput(t, a, bt, set), s)
			if err != nil {
				t.Fatalf("%v/w%d: %v", s, workers, err)
			}
			if !slices.Equal(res.Pairs, want) {
				t.Fatalf("%v/w%d: %d pairs, brute force over Feature.Eval keeps %d", s, workers, len(res.Pairs), len(want))
			}
			if base == nil {
				base = res
				continue
			}
			if res.SimTime != base.SimTime {
				t.Fatalf("%v: SimTime %v at %d workers, %v at 1", s, res.SimTime, workers, base.SimTime)
			}
			if res.PairsEnumerated != base.PairsEnumerated {
				t.Fatalf("%v: enumerated %d at %d workers, %d at 1", s, res.PairsEnumerated, workers, base.PairsEnumerated)
			}
		}
	}
}

// TestGoldenVectorsStringVsIDPath proves bit-identical feature vectors —
// the full matching-stage feature space and the blocking subset — between
// the production evaluator and the string oracle Feature.Eval.
func TestGoldenVectorsStringVsIDPath(t *testing.T) {
	a, bt := mkTables(90, 60, 12)
	set := feature.Generate(a, bt)
	vz := feature.NewVectorizer(set, a, bt)
	vz.Warm()
	for ai := 0; ai < a.Len(); ai += 3 {
		for bi := 0; bi < bt.Len(); bi += 2 {
			p := table.Pair{A: ai, B: bi}
			full, blocking := vz.Vector(p), vz.BlockingVector(p)
			if len(full.Values) != len(set.Features) || len(blocking.Values) != len(set.BlockingIdx) {
				t.Fatalf("%v: vector lengths %d/%d, want %d/%d", p, len(full.Values), len(blocking.Values), len(set.Features), len(set.BlockingIdx))
			}
			for k := range set.Features {
				f := &set.Features[k]
				want := f.Eval(a.Value(ai, f.ACol), bt.Value(bi, f.BCol))
				if math.Float64bits(full.Values[k]) != math.Float64bits(want) {
					t.Fatalf("%v: feature %q = %v, Feature.Eval = %v", p, f.Name, full.Values[k], want)
				}
			}
			for k, fi := range set.BlockingIdx {
				if math.Float64bits(blocking.Values[k]) != math.Float64bits(full.Values[fi]) {
					t.Fatalf("%v: blocking feature %d = %v, full vector has %v", p, k, blocking.Values[k], full.Values[fi])
				}
			}
		}
	}
}

// TestEmptyCNFReadsNothing: with no rules the read set is empty, no feature
// is evaluated, and every strategy keeps all of A×B.
func TestEmptyCNFReadsNothing(t *testing.T) {
	a, bt := mkTables(12, 9, 13)
	set := feature.Generate(a, bt)
	for _, s := range []Strategy{ApplyAll, ApplyGreedy, ApplyConjunct, ApplyPredicate, MapSide, ReduceSplit} {
		in := &Input{
			A: a, B: bt,
			Analysis:   filters.Analyze(rules.CNF{}, nil),
			Indexes:    filters.NewIndexes(mapreduce.Default(), a),
			Vectorizer: feature.NewVectorizer(set, a, bt),
		}
		res, err := Run(context.Background(), mapreduce.Default(), in, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(res.Pairs) != a.Len()*bt.Len() || res.PairsEnumerated != int64(len(res.Pairs)) {
			t.Fatalf("%v: kept %d of %d enumerated pairs, want all %d", s, len(res.Pairs), res.PairsEnumerated, a.Len()*bt.Len())
		}
	}
}
