package simfn

import (
	"math/rand"
	"strings"
	"testing"
)

// benchIDSets builds n token-ID sets shaped like 3-gram encodings of short
// product/song titles: 30–80 IDs drawn from a few-thousand-gram dictionary,
// the regime blocking and vectorization spend their time in.
func benchIDSets(n int) [][]uint32 {
	rng := rand.New(rand.NewSource(5))
	sets := make([][]uint32, n)
	for i := range sets {
		sets[i] = randomIDSet(rng, 30+rng.Intn(51), 4096)
	}
	return sets
}

// BenchmarkJaccardKernels compares the sorted-merge ID kernel against the
// bit-parallel signature kernel on identical set pairs. The packed case
// includes no packing cost because both blocking and serving pack rows
// once, not per pair.
func BenchmarkJaccardKernels(b *testing.B) {
	sets := benchIDSets(512)
	packed := make([]PackedIDs, len(sets))
	for i, ids := range sets {
		packed[i] = PackIDs(ids)
	}
	b.Run("ids", func(b *testing.B) {
		b.ReportAllocs()
		sink := 0.0
		for i := 0; i < b.N; i++ {
			a := sets[i%len(sets)]
			c := sets[(i*31+7)%len(sets)]
			sink += JaccardIDs(a, c)
		}
		benchSinkF = sink
		reportPairsPerSec(b)
	})
	b.Run("bitparallel", func(b *testing.B) {
		b.ReportAllocs()
		sink := 0.0
		for i := 0; i < b.N; i++ {
			a := &packed[i%len(packed)]
			c := &packed[(i*31+7)%len(packed)]
			sink += JaccardPacked(a, c)
		}
		benchSinkF = sink
		reportPairsPerSec(b)
	})
}

// BenchmarkEditDistanceKernels compares the rolling-row DP against Myers'
// bit-vector kernel on identical ASCII title pairs (the dominant string
// shape in the Figure 5 feature space).
func BenchmarkEditDistanceKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const alpha = "abcdefghijklmnopqrstuvwxyz 0123456789"
	titles := make([]string, 512)
	for i := range titles {
		n := 24 + rng.Intn(25)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		titles[i] = sb.String()
	}
	b.Run("dp", func(b *testing.B) {
		s := GetScratch()
		defer PutScratch(s)
		b.ReportAllocs()
		sink := 0
		for i := 0; i < b.N; i++ {
			a := titles[i%len(titles)]
			c := titles[(i*17+3)%len(titles)]
			s.ra = appendRunes(s.ra, a)
			s.rb = appendRunes(s.rb, c)
			s.ia = growInts(s.ia, len(s.rb)+1)
			s.ib = growInts(s.ib, len(s.rb)+1)
			sink += dpDistance(s.ra, s.rb, s.ia, s.ib)
		}
		benchSinkI = sink
		reportPairsPerSec(b)
	})
	b.Run("bitparallel", func(b *testing.B) {
		s := GetScratch()
		defer PutScratch(s)
		b.ReportAllocs()
		sink := 0
		for i := 0; i < b.N; i++ {
			a := titles[i%len(titles)]
			c := titles[(i*17+3)%len(titles)]
			sink += s.LevenshteinDistance(a, c)
		}
		benchSinkI = sink
		reportPairsPerSec(b)
	})
}

func reportPairsPerSec(b *testing.B) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "pairs/s")
	}
}

var (
	benchSinkF float64
	benchSinkI int
)
