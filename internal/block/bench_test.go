package block

import (
	"context"
	"testing"

	"falcon/internal/datagen"
	"falcon/internal/feature"
	"falcon/internal/filters"
	"falcon/internal/mapreduce"
	"falcon/internal/rules"
)

// blockingBenchInput builds the full blocking stack over the synthetic
// Products dataset: generated features, a realistic two-rule sequence,
// filter analysis, and warm indexes.
func blockingBenchInput(b *testing.B) *Input {
	b.Helper()
	ds := datagen.Products(0.05, 3)
	set := feature.Generate(ds.A, ds.B)
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
		b.Fatalf("feature %s missing", name)
		return -1
	}
	seq := []rules.Rule{
		{ID: 0, Preds: []rules.Predicate{{Feature: pos("jaccard_word(title)"), Op: rules.LE, Value: 0.4}}},
		{ID: 1, Preds: []rules.Predicate{
			{Feature: pos("exact_match(modelno)"), Op: rules.LE, Value: 0.5},
			{Feature: pos("abs_diff(price)"), Op: rules.GE, Value: 15},
		}},
	}
	an := filters.Analyze(rules.ToCNF(seq), feats)
	ix := filters.NewIndexes(mapreduce.Default(), ds.A)
	if _, err := ix.EnsureAll(context.Background(), an.NeededIndexes()); err != nil {
		b.Fatal(err)
	}
	vz := feature.NewVectorizer(set, ds.A, ds.B)
	vz.Warm()
	return &Input{
		A: ds.A, B: ds.B,
		Analysis:   an,
		Indexes:    ix,
		Vectorizer: vz,
		ClauseSel:  []float64{0.3, 0.7},
	}
}

// BenchmarkBlocking measures end-to-end apply_blocking_rules throughput
// (probe + rule evaluation through the in-process engine).
func BenchmarkBlocking(b *testing.B) {
	in := blockingBenchInput(b)
	cluster := mapreduce.Default()
	ctx := context.Background()
	// One untimed run warms every column cache and index.
	if _, err := Run(ctx, cluster, in, ApplyAll); err != nil {
		b.Fatal(err)
	}
	crossSize := float64(in.A.Len()) * float64(in.B.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ctx, cluster, in, ApplyAll); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(crossSize*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}
