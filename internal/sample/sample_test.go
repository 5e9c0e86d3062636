package sample

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"falcon/internal/datagen"
	"falcon/internal/mapreduce"
	"falcon/internal/table"
)

// matchedTables builds A and B where B row i matches A row i (same title
// with a typo) for i < nMatch; the rest are unrelated.
func matchedTables(nA, nB, nMatch int, seed int64) (*table.Table, *table.Table) {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"entity", "match", "cloud", "service", "crowd", "data", "rule", "block", "learn", "forest",
		"alpha", "beta", "gamma", "delta", "kappa", "sigma", "omega", "query", "plan", "index"}
	title := func() string {
		out := ""
		for j := 0; j < 4+rng.Intn(3); j++ {
			if j > 0 {
				out += " "
			}
			out += words[rng.Intn(len(words))]
		}
		return out
	}
	a := table.New("A", table.NewSchema("title", "price"))
	b := table.New("B", table.NewSchema("title", "price"))
	for i := 0; i < nA; i++ {
		a.Append(title(), fmt.Sprintf("%d", 10+rng.Intn(90)))
	}
	for i := 0; i < nB; i++ {
		if i < nMatch && i < nA {
			b.Append(a.Value(i, 0)+" x", a.Value(i, 1))
		} else {
			b.Append(title(), fmt.Sprintf("%d", 10+rng.Intn(90)))
		}
	}
	a.InferTypes()
	b.InferTypes()
	return a, b
}

func TestPairsBasic(t *testing.T) {
	a, b := matchedTables(200, 200, 50, 1)
	pairs, sim, err := Pairs(context.Background(), mapreduce.Default(), a, b, Config{N: 1000, Y: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sim <= 0 {
		t.Fatal("no sim time")
	}
	// n/y = 50 b-tuples × y = 20 pairs each.
	if len(pairs) != 1000 {
		t.Fatalf("got %d pairs, want 1000", len(pairs))
	}
	// All IDs valid, no duplicate (a,b).
	seen := map[table.Pair]bool{}
	for _, p := range pairs {
		if p.A < 0 || p.A >= a.Len() || p.B < 0 || p.B >= b.Len() {
			t.Fatalf("invalid pair %v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

func TestPairsContainsMatches(t *testing.T) {
	// Sampling must pull true matches into S (the whole point of the
	// token-sharing half). B row i matches A row i.
	a, b := matchedTables(300, 300, 300, 2)
	pairs, _, err := Pairs(context.Background(), mapreduce.Default(), a, b, Config{N: 2000, Y: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	sampledB := map[int]bool{}
	for _, p := range pairs {
		sampledB[p.B] = true
		if p.A == p.B {
			matches++
		}
	}
	// Every sampled b has an existing match; the top-shared-token half
	// should find most of them.
	if matches < len(sampledB)*5/10 {
		t.Fatalf("only %d of %d sampled b-tuples got their match into S", matches, len(sampledB))
	}
}

func TestPairsRandomHalf(t *testing.T) {
	a, b := matchedTables(500, 100, 0, 4)
	pairs, _, err := Pairs(context.Background(), mapreduce.Default(), a, b, Config{N: 400, Y: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Distinct A tuples should be spread widely by the random half.
	distinct := map[int]bool{}
	for _, p := range pairs {
		distinct[p.A] = true
	}
	if len(distinct) < 100 {
		t.Fatalf("random half covers only %d distinct A tuples", len(distinct))
	}
}

func TestPairsDeterministic(t *testing.T) {
	a, b := matchedTables(100, 100, 20, 6)
	run := func() []table.Pair {
		pairs, _, err := Pairs(context.Background(), mapreduce.Default(), a, b, Config{N: 500, Y: 10, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return pairs
	}
	p1, p2 := run(), run()
	if len(p1) != len(p2) {
		t.Fatal("nondeterministic size")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("nondeterministic pairs")
		}
	}
}

func TestPairsSmallTables(t *testing.T) {
	a, b := matchedTables(5, 5, 5, 7)
	pairs, _, err := Pairs(context.Background(), mapreduce.Default(), a, b, Config{N: 100, Y: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// y clamps to |A| = 5; all 5 b-tuples selected → 25 pairs.
	if len(pairs) != 25 {
		t.Fatalf("got %d pairs, want 25", len(pairs))
	}
}

func TestPairsEmptyTables(t *testing.T) {
	a, _ := matchedTables(5, 5, 0, 8)
	empty := table.New("E", table.NewSchema("title", "price"))
	pairs, _, err := Pairs(context.Background(), mapreduce.Default(), a, empty, Config{N: 10, Y: 2, Seed: 1})
	if err != nil || pairs != nil {
		t.Fatalf("empty B: pairs=%v err=%v", pairs, err)
	}
	pairs, _, err = Pairs(context.Background(), mapreduce.Default(), empty, a, Config{N: 10, Y: 2, Seed: 1})
	if err != nil || pairs != nil {
		t.Fatalf("empty A: pairs=%v err=%v", pairs, err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults(50000)
	if c.N != 1_000_000 || c.Y != 100 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.StopwordDF != 5000 {
		t.Fatalf("StopwordDF = %d, want |A|/10", c.StopwordDF)
	}
	if got := (Config{}).withDefaults(100).StopwordDF; got != 1000 {
		t.Fatalf("small-table StopwordDF = %d, want 1000 floor", got)
	}
}

// Property: sample size is exactly numB × min(y, |A|) and pairs are unique.
func TestQuickSampleShape(t *testing.T) {
	a, b := matchedTables(80, 60, 10, 9)
	f := func(seed int64, yRaw uint8) bool {
		y := int(yRaw%30) + 2
		n := y * 10
		pairs, _, err := Pairs(context.Background(), mapreduce.Default(), a, b, Config{N: n, Y: y, Seed: seed})
		if err != nil {
			return false
		}
		yEff := y
		if yEff > a.Len() {
			yEff = a.Len()
		}
		if len(pairs) != 10*yEff {
			return false
		}
		seen := map[table.Pair]bool{}
		for _, p := range pairs {
			if seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPairs(b *testing.B) {
	ta, tb := matchedTables(2000, 2000, 500, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Pairs(context.Background(), mapreduce.Default(), ta, tb, Config{N: 5000, Y: 50, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplePairs draws the benchmark's sample: 100 000 pairs over
// Songs 3000×3000.
func BenchmarkSamplePairs(b *testing.B) {
	d := datagen.Songs(3000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Pairs(context.Background(), mapreduce.Default(), d.A, d.B, Config{N: 100_000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
