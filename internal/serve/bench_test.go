package serve

import (
	"slices"
	"testing"
	"time"

	"falcon/internal/core"
)

// BenchmarkServeMatchOne measures the point-lookup serving path: one
// A-shaped record tokenized, encoded, walked through the frozen filter
// plan, CNF-verified, and forest-scored per iteration. Reports throughput
// (qps), tail latency (p99-ns), and allocations per request — for
// profiling; the gated serving numbers come from the repository benchmark's
// songs_serve workloads.
func BenchmarkServeMatchOne(b *testing.B) {
	force := true
	d, res := trainSongs(b, 800, 1, func(o *core.Options) { o.ForceBlocking = &force })
	bn := loadBundle(b, res)

	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := d.A.Tuples[i%d.A.Len()].Values
		t0 := time.Now()
		if _, err := bn.MatchOne(rec); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()

	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "qps")
	}
	slices.Sort(lat)
	idx := len(lat) * 99 / 100
	if idx >= len(lat) {
		idx = len(lat) - 1
	}
	if idx >= 0 {
		b.ReportMetric(float64(lat[idx].Nanoseconds()), "p99-ns")
	}
}
