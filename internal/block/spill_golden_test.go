package block

import (
	"context"
	"os"
	"testing"

	"falcon/internal/feature"
	"falcon/internal/mapreduce"
	"falcon/internal/table"
)

// TestGoldenSpillAllStrategies is the out-of-core acceptance matrix: every
// strategy, at workers 1 and 8, with a tiny spill threshold (every few
// shuffle records hit disk) and with no threshold, must produce
// byte-identical pairs, SimTime, and enumeration counters — and leave
// nothing behind in the spill directory.
func TestGoldenSpillAllStrategies(t *testing.T) {
	a, bt := mkTables(120, 80, 11)
	set := feature.Generate(a, bt)
	configs := []struct {
		name    string
		spill   int
		workers int
	}{
		{"inmemory-w1", 0, 1},
		{"inmemory-w8", 0, 8},
		{"spill3-w1", 3, 1},
		{"spill3-w8", 3, 8},
		{"spill64-w8", 64, 8},
	}
	for _, s := range []Strategy{ApplyAll, ApplyGreedy, ApplyConjunct, ApplyPredicate, MapSide, ReduceSplit} {
		var base *Result
		var baseName string
		for _, cfg := range configs {
			in := goldenInput(t, a, bt, set)
			cluster := mapreduce.Default()
			cluster.Workers = cfg.workers
			cluster.SpillRecords = cfg.spill
			cluster.SpillDir = t.TempDir()
			res, err := Run(context.Background(), cluster, in, s)
			if err != nil {
				t.Fatalf("%v/%s: %v", s, cfg.name, err)
			}
			if ents := spillDirEntries(t, cluster.SpillDir); ents != 0 {
				t.Fatalf("%v/%s: %d leftover spill entries", s, cfg.name, ents)
			}
			if base == nil {
				base, baseName = res, cfg.name
				if len(res.Pairs) == 0 {
					t.Fatalf("%v/%s: degenerate fixture, no candidates", s, cfg.name)
				}
				continue
			}
			if len(res.Pairs) != len(base.Pairs) {
				t.Fatalf("%v: %s has %d pairs, %s has %d", s, cfg.name, len(res.Pairs), baseName, len(base.Pairs))
			}
			for i := range res.Pairs {
				if res.Pairs[i] != base.Pairs[i] {
					t.Fatalf("%v: %s pair[%d]=%v, %s has %v", s, cfg.name, i, res.Pairs[i], baseName, base.Pairs[i])
				}
			}
			if res.SimTime != base.SimTime {
				t.Fatalf("%v: %s SimTime=%v, %s SimTime=%v", s, cfg.name, res.SimTime, baseName, base.SimTime)
			}
			if res.PairsEnumerated != base.PairsEnumerated {
				t.Fatalf("%v: %s enumerated %d, %s enumerated %d", s, cfg.name, res.PairsEnumerated, baseName, base.PairsEnumerated)
			}
		}
	}
}

func spillDirEntries(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestRunStreamMatchesRun checks the streaming sink delivers exactly the
// candidate set Run materializes — same pairs once sorted, same SimTime and
// counters — under both execution modes.
func TestRunStreamMatchesRun(t *testing.T) {
	a, bt := mkTables(100, 70, 13)
	set := feature.Generate(a, bt)
	for _, s := range []Strategy{ApplyAll, ApplyConjunct, MapSide, ReduceSplit} {
		in := goldenInput(t, a, bt, set)
		want, err := Run(context.Background(), mapreduce.Default(), in, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, spill := range []int{0, 5} {
			in := goldenInput(t, a, bt, set)
			cluster := mapreduce.Default()
			cluster.SpillRecords = spill
			cluster.SpillDir = t.TempDir()
			var got []table.Pair
			res, err := RunStream(context.Background(), cluster, in, s, func(p table.Pair) {
				got = append(got, p)
			})
			if err != nil {
				t.Fatalf("%v/spill=%d: %v", s, spill, err)
			}
			if res.Pairs != nil {
				t.Fatalf("%v/spill=%d: RunStream materialized Pairs", s, spill)
			}
			sortPairs(got)
			if len(got) != len(want.Pairs) {
				t.Fatalf("%v/spill=%d: streamed %d pairs, want %d", s, spill, len(got), len(want.Pairs))
			}
			for i := range got {
				if got[i] != want.Pairs[i] {
					t.Fatalf("%v/spill=%d: pair[%d]=%v, want %v", s, spill, i, got[i], want.Pairs[i])
				}
			}
			if res.SimTime != want.SimTime || res.PairsEnumerated != want.PairsEnumerated {
				t.Fatalf("%v/spill=%d: stats diverged", s, spill)
			}
		}
	}
}
