package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"falcon/internal/core"
	"falcon/internal/datagen"
	"falcon/internal/mapreduce"
	"falcon/internal/metrics"
	"falcon/internal/model"
	"falcon/internal/table"
)

// run is one invocation's state: the inputs drawn from the seed, the files
// set-up left, and the tally of operations attempted and failed. A wrong
// answer is a failed operation.
type run struct {
	w       workload
	scale   string
	seed    int64
	seconds float64
	dir     string // scratch under benchmark/out, removed when the run ends
	tr      *tracer

	base  *datagen.Dataset // tables the artifacts are trained on
	fresh *datagen.Dataset // tables drawn from --seed the artifact is applied to
	prev  *prevGeneration

	mu                sync.Mutex // guards the tally and notes while client goroutines run
	attempted, failed int
	notes             []string
}

// failf counts one failed operation and keeps its description.
func (r *run) failf(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	r.mu.Unlock()
	r.note(format, args...)
}

// budget is the workload's share of --seconds for one phase.
func (r *run) budget(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

// matchOut is what the match phase measured.
type matchOut struct {
	walls    []time.Duration
	res      *core.Result
	score    metrics.PRF1
	artifact []byte // res.Artifact in the wire format
}

// matchPhase times the full hands-off run — sampling, both active-learning
// stages against the simulated crowd, rule evaluation, blocking, matching —
// at least minReps times and until its budget is spent. Every rep must return
// the same match set, and F1 against datagen's truth may not fall below the
// workload's recorded floor.
func (r *run) matchPhase(ctx context.Context, budget time.Duration, minReps int) (*matchOut, error) {
	out := &matchOut{}
	latency := hitLatency(r.seed)
	deadline := now().Add(budget)
	for rep := 0; rep < minReps || now().Before(deadline); rep++ {
		var res *core.Result
		var err error
		d := r.tr.call("core.RunContext", 0, func() {
			res, err = train(ctx, r.w, r.base, trainSeedNew, latency)
		})
		if err != nil {
			return nil, err
		}
		r.attempted++
		out.walls = append(out.walls, d)
		if out.res == nil {
			out.res = res
		} else if !slices.Equal(res.Matches, out.res.Matches) {
			r.failf("match rep %d returned a different match set (%d vs %d pairs)", rep, len(res.Matches), len(out.res.Matches))
		}
	}
	out.score = metrics.Score(out.res.Matches, r.base.Truth)
	if out.score.F1 < r.w.f1Floor {
		r.failf("match F1 %.4f below the recorded floor %.4f", out.score.F1, r.w.f1Floor)
	}
	var buf bytes.Buffer
	if err := out.res.Artifact.Save(&buf); err != nil {
		return nil, fmt.Errorf("saving the trained artifact: %w", err)
	}
	out.artifact = buf.Bytes()
	return out, nil
}

// applyOut is what the apply phase measured.
type applyOut struct {
	walls      []time.Duration
	spillWall  time.Duration
	freshF1    float64
	candidates int
	spillDir   string
}

// applyMinReps is the least number of apply reps a run times, whatever its
// budget.
const applyMinReps = 5

// applyPhase times the crowd-free MatcherArtifact.ApplyContext on the tables
// drawn from --seed. The artifact comes back through the wire format first.
// On the training tables it must reproduce the training run's matches; every
// rep must return the same pairs; and one rep that spills the shuffle to a
// directory under the run's scratch must return them too and leave the
// directory empty. That rep's time is printed but is not a metric: it follows
// the filesystem's mood, not the program (README, finding d).
func (r *run) applyPhase(ctx context.Context, m *matchOut, budget time.Duration) (*applyOut, error) {
	art, err := model.LoadArtifact(bytes.NewReader(m.artifact))
	if err != nil {
		return nil, fmt.Errorf("reloading the trained artifact: %w", err)
	}
	out := &applyOut{spillDir: filepath.Join(r.dir, "spill")}
	if err := os.MkdirAll(out.spillDir, 0o755); err != nil {
		return nil, err
	}
	mem, spill := applyCluster(), applyCluster()
	spill.SpillRecords = r.w.spillRecords
	spill.SpillDir = out.spillDir

	// Train-then-apply identity; also warms the code paths before timing.
	got, _, err := art.ApplyContext(ctx, mem, r.base.A, r.base.B)
	if err != nil {
		return nil, fmt.Errorf("apply on the training tables: %w", err)
	}
	r.attempted++
	if !samePairs(got, m.res.Matches) {
		r.failf("apply on the training tables gave %d matches, the training run %d", len(got), len(m.res.Matches))
	}

	var first []table.Pair
	deadline := now().Add(budget)
	for rep := 0; rep < applyMinReps || now().Before(deadline); rep++ {
		var pairs []table.Pair
		var cands int
		out.walls = append(out.walls, r.tr.call("model.ApplyContext", 0, func() {
			pairs, cands, err = art.ApplyContext(ctx, mem, r.fresh.A, r.fresh.B)
		}))
		if err != nil {
			return nil, fmt.Errorf("apply: %w", err)
		}
		r.attempted++
		if rep == 0 {
			first, out.candidates = pairs, cands
			out.freshF1 = metrics.Score(pairs, r.fresh.Truth).F1
			if len(pairs) == 0 {
				r.failf("apply on the seed's tables found no match")
			}
		} else if cands != out.candidates || !slices.Equal(pairs, first) {
			r.failf("apply rep %d differs from the first: %d/%d pairs, %d/%d candidates", rep, len(pairs), len(first), cands, out.candidates)
		}
	}

	var pairs []table.Pair
	var cands int
	out.spillWall = r.tr.call("model.ApplyContext/spill", 0, func() {
		pairs, cands, err = art.ApplyContext(ctx, spill, r.fresh.A, r.fresh.B)
	})
	if err != nil {
		return nil, fmt.Errorf("spilled apply: %w", err)
	}
	r.attempted++
	if cands != out.candidates || !slices.Equal(pairs, first) {
		r.failf("spilled apply differs from in-memory: %d/%d pairs, %d/%d candidates", len(pairs), len(first), cands, out.candidates)
	}
	if left, err := os.ReadDir(out.spillDir); err == nil && len(left) > 0 {
		r.failf("spilled apply left %d entries in %s", len(left), out.spillDir)
	}
	return out, nil
}

// applyCluster is the simulated cluster the apply reps run on: one 8-slot
// node, not the paper's ten. A spilled job writes one run file per (map task,
// reduce partition), so on the default 80 slots a spilled apply creates
// thousands of tiny files (1.1–4.9 s against 0.15–0.36 s in memory); on 8
// slots it stays within 2× of in-memory, which keeps the spilled rep and the
// spill probes inside the run's budget. In-memory time is the same on both.
func applyCluster() *mapreduce.Cluster {
	c := mapreduce.Default()
	c.Nodes, c.SlotsPerNode = 1, 8
	return c
}

// samePairs compares two match lists as sets.
func samePairs(a, b []table.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	cmp := func(x, y table.Pair) int {
		if x.A != y.A {
			return x.A - y.A
		}
		return x.B - y.B
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, cmp)
	slices.SortFunc(b, cmp)
	return slices.Equal(a, b)
}
