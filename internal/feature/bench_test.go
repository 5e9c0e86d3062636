package feature

import (
	"math"
	"sync"
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

// TestProjection holds the projected evaluator to the string oracle: in both
// vector spaces, for the empty, a sparse and the all-slots read set, every
// read slot equals Feature.Eval on the raw cells bit for bit, every other
// slot is NaN, and the columns of features nothing reads are never built.
func TestProjection(t *testing.T) {
	ds := datagen.Products(0.02, 9)
	set := Generate(ds.A, ds.B)
	bRows := make([]int32, 24)
	for i := range bRows {
		bRows[i] = int32((i * 11) % ds.B.Len())
	}
	every := func(n, step int) []int {
		var out []int
		for i := 0; i < n; i += step {
			out = append(out, i)
		}
		return out
	}
	for _, c := range []struct {
		name     string
		blocking bool
		read     []int
	}{
		{"full/none", false, nil},
		{"full/sparse", false, every(len(set.Features), 5)},
		{"full/all", false, every(len(set.Features), 1)},
		{"blocking/none", true, nil},
		{"blocking/sparse", true, every(len(set.BlockingIdx), 4)},
	} {
		vz := NewVectorizer(set, ds.A, ds.B)
		proj, idx := vz.Project(c.read), []int(nil)
		if c.blocking {
			proj, idx = vz.ProjectBlocking(c.read), set.BlockingIdx
		}
		width := len(set.Features)
		if c.blocking {
			width = len(idx)
		}
		isRead := make([]bool, width)
		for _, slot := range c.read {
			isRead[slot] = true
		}
		for _, aRow := range []int{3, ds.A.Len() - 1} {
			visited := 0
			proj.Batch(aRow, bRows, func(i int, values []float64) {
				if i != visited || len(values) != width {
					t.Fatalf("%s: visit %d of width %d, want %d of width %d", c.name, i, len(values), visited, width)
				}
				visited++
				for slot, v := range values {
					if !isRead[slot] {
						if !math.IsNaN(v) {
							t.Fatalf("%s: unread slot %d holds %v, want NaN", c.name, slot, v)
						}
						continue
					}
					f := &set.Features[slot]
					if c.blocking {
						f = &set.Features[idx[slot]]
					}
					want := f.Eval(ds.A.Value(aRow, f.ACol), ds.B.Value(int(bRows[i]), f.BCol))
					if math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("%s: pair (%d,%d) %s = %v, Feature.Eval = %v", c.name, aRow, bRows[i], f.Name, v, want)
					}
				}
			})
			if visited != len(bRows) {
				t.Fatalf("%s: visited %d rows, want %d", c.name, visited, len(bRows))
			}
		}
		// A column is built on first touch, so the caches hold exactly what
		// the read features' measure families need.
		if built := len(vz.a.tok) + len(vz.a.num) + len(vz.a.norm) + len(vz.a.docs) + len(vz.ids); (built == 0) != (len(c.read) == 0) {
			t.Fatalf("%s: %d operand columns built for %d read features", c.name, built, len(c.read))
		}
	}
}

// TestProjectionBatchAllocs pins the per-pair budget of a warm projection:
// the scratch and the value row come from pools, so a batch allocates nothing.
func TestProjectionBatchAllocs(t *testing.T) {
	ds := datagen.Products(0.02, 9)
	set := Generate(ds.A, ds.B)
	vz := NewVectorizer(set, ds.A, ds.B)
	proj := vz.Project([]int{0, len(set.Features) / 2, len(set.Features) - 1})
	bRows := make([]int32, 24)
	for i := range bRows {
		bRows[i] = int32((i * 11) % ds.B.Len())
	}
	sink := 0.0
	visit := func(_ int, values []float64) { sink += values[0] }
	proj.Batch(0, bRows, visit)
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		proj.Batch(i%ds.A.Len(), bRows, visit)
		i++
	}); allocs > 0 {
		t.Fatalf("Projection.Batch allocates %.1f objects per %d-pair batch after warm-up, want 0", allocs, len(bRows))
	}
	_ = sink
}

// TestProjectionConcurrent shares one cold vectorizer among goroutines the
// way reduce tasks do: they race to build the all-slots projection and its
// columns, then batch through it and through one sparse projection at once,
// and every value must still be the oracle's (run under -race in CI).
func TestProjectionConcurrent(t *testing.T) {
	ds := datagen.Products(0.02, 9)
	set := Generate(ds.A, ds.B)
	vz := NewVectorizer(set, ds.A, ds.B)
	sparse := vz.Project([]int{1, len(set.Features) - 1})
	bRows := []int32{0, 5, 9, 2}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for aRow := g; aRow < ds.A.Len(); aRow += 8 {
				check := func(slots []int) func(int, []float64) {
					return func(i int, values []float64) {
						for _, slot := range slots {
							f := &set.Features[slot]
							want := f.Eval(ds.A.Value(aRow, f.ACol), ds.B.Value(int(bRows[i]), f.BCol))
							if math.Float64bits(values[slot]) != math.Float64bits(want) {
								t.Errorf("pair (%d,%d) %s = %v, Feature.Eval = %v", aRow, bRows[i], f.Name, values[slot], want)
							}
						}
					}
				}
				sparse.Batch(aRow, bRows, check(sparse.slots))
				full := vz.Vector(table.Pair{A: aRow, B: int(bRows[0])})
				check(vz.all(false).slots)(0, full.Values)
			}
		}(g)
	}
	wg.Wait()
}
