package feature

import (
	"math"
	"testing"

	"falcon/internal/datagen"
	"falcon/internal/table"
)

func benchPairs(a, b *table.Table, n int) []table.Pair {
	pairs := make([]table.Pair, n)
	for i := range pairs {
		pairs[i] = table.Pair{A: (i * 7) % a.Len(), B: (i * 13) % b.Len()}
	}
	return pairs
}

// BenchmarkVectorize measures blocking-vector throughput per tuple pair.
func BenchmarkVectorize(b *testing.B) {
	ds := datagen.Products(0.05, 5)
	set := Generate(ds.A, ds.B)
	pairs := benchPairs(ds.A, ds.B, 1024)
	vz := NewVectorizer(set, ds.A, ds.B)
	vz.Warm()
	vz.BlockingVector(pairs[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vz.BlockingVector(pairs[i%len(pairs)])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// TestBlockingVectorAllocs sanity-checks the pooled wrapper: the scratch
// pool keeps the DP buffers out of steady-state allocation, so the wrapper
// stays within a few objects per call.
func TestBlockingVectorAllocs(t *testing.T) {
	ds := datagen.Products(0.02, 7)
	set := Generate(ds.A, ds.B)
	vz := NewVectorizer(set, ds.A, ds.B)
	vz.Warm()
	pairs := benchPairs(ds.A, ds.B, 16)
	for _, p := range pairs {
		vz.BlockingVector(p)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		vz.BlockingVector(pairs[i%len(pairs)])
		i++
	})
	if allocs > 4 {
		t.Fatalf("BlockingVector allocates %.1f objects/op after warm-up, want <= 4", allocs)
	}
}

// TestBlockingVectorsBatch proves the batch entry point computes exactly
// what BlockingVector computes — same features, same order — and that both
// equal the string oracle Feature.Eval on the raw cells bit for bit, over
// the generated Products data (long titles cross the bit-parallel kernels'
// packing threshold, short ones stay on the merge fallback); and that the
// steady-state batch path allocates (almost) nothing per stripe.
func TestBlockingVectorsBatch(t *testing.T) {
	ds := datagen.Products(0.02, 9)
	set := Generate(ds.A, ds.B)
	bRows := make([]int32, 24)
	for i := range bRows {
		bRows[i] = int32((i * 11) % ds.B.Len())
	}
	vz := NewVectorizer(set, ds.A, ds.B)
	for _, aRow := range []int{3, 17, ds.A.Len() - 1} {
		visited := 0
		vz.BlockingVectorsBatch(aRow, bRows, func(i int, values []float64) {
			if i != visited {
				t.Fatalf("visit order %d, want %d", i, visited)
			}
			visited++
			want := vz.BlockingVector(table.Pair{A: aRow, B: int(bRows[i])})
			if len(values) != len(want.Values) {
				t.Fatalf("row %d: %d values, want %d", bRows[i], len(values), len(want.Values))
			}
			for k, fi := range set.BlockingIdx {
				f := &set.Features[fi]
				oracle := f.Eval(ds.A.Value(aRow, f.ACol), ds.B.Value(int(bRows[i]), f.BCol))
				if math.Float64bits(values[k]) != math.Float64bits(want.Values[k]) || math.Float64bits(values[k]) != math.Float64bits(oracle) {
					t.Fatalf("pair (%d,%d) %s: batch %v, BlockingVector %v, Eval %v", aRow, bRows[i], f.Name, values[k], want.Values[k], oracle)
				}
			}
		})
		if visited != len(bRows) {
			t.Fatalf("visited %d rows, want %d", visited, len(bRows))
		}
	}

	// Steady-state allocation budget.
	vz.Warm()
	sink := 0.0
	visit := func(_ int, values []float64) { sink += values[0] }
	vz.BlockingVectorsBatch(0, bRows, visit)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		vz.BlockingVectorsBatch(i%ds.A.Len(), bRows, visit)
		i++
	})
	if allocs > 2 {
		t.Fatalf("BlockingVectorsBatch allocates %.1f objects/stripe after warm-up, want <= 2", allocs)
	}
	_ = sink
}
