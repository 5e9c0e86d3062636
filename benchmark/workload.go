package main

import (
	"fmt"
	"math/rand"
	"time"

	"falcon/internal/core"
	"falcon/internal/crowd"
	"falcon/internal/datagen"
)

// workload is one set of inputs the benchmark runs. Every workload walks
// the same life cycle — train, apply the artifact to new tables, serve it,
// swap it — because the driver wants every end-to-end metric from every
// run; what differs is the data shape and where the measured seconds go.
type workload struct {
	name string
	// products selects datagen.Products(size) over datagen.Songs(int(size)).
	products bool
	size     float64
	sampleN  int
	// spillRecords is Cluster.SpillRecords on the spilled apply reps.
	spillRecords int
	// matchShare/applyShare/serveShare split --seconds between the phases.
	matchShare, applyShare, serveShare float64
	// f1Floor fails the match phase when F1 against datagen's truth falls
	// below it: the value recorded for these constant training inputs, less
	// the f1 bound.
	f1Floor float64
	// swapInline puts PUT /artifacts/current on connection 0 of the measured
	// traffic; otherwise swaps run after it, on an idle server.
	swapInline bool
}

// The training inputs are constants, not functions of --seed: active
// learning is chaotic in its inputs (Songs 3000 costs $18 or $53 and applies
// in 0.15 s or 3.4 s depending on the seed), so a per-seed training run
// cannot give a steady number. --seed draws what the product responds to
// smoothly: the tables the artifact is applied to, the request order, and the
// simulated crowd's HIT latency.
const (
	dataSeed      = 1 // tables the artifacts are trained on
	trainSeedNew  = 1 // the measured hands-off run; its artifact is served
	trainSeedPrev = 2 // trained in set-up; the artifact swaps alternate with
)

var fullScale = []workload{
	{name: "songs_match", size: 3000, sampleN: 100_000, spillRecords: 64, f1Floor: 0.995,
		matchShare: 0.55, applyShare: 0.15, serveShare: 0.30},
	{name: "products_apply", products: true, size: 0.3, sampleN: 100_000, spillRecords: 64, f1Floor: 0.89,
		matchShare: 0.30, applyShare: 0.45, serveShare: 0.25},
	{name: "songs_serve", size: 6000, sampleN: 50_000, spillRecords: 64, f1Floor: 0.995,
		matchShare: 0.20, applyShare: 0.15, serveShare: 0.65},
	{name: "songs_serve_swap", size: 6000, sampleN: 50_000, spillRecords: 64, f1Floor: 0.995,
		matchShare: 0.20, applyShare: 0.15, serveShare: 0.65, swapInline: true},
}

// tinyScale is the smoke test's: same code paths, a second or two each.
var tinyScale = []workload{
	{name: "songs_match", size: 400, sampleN: 4000, spillRecords: 4, f1Floor: 0.995,
		matchShare: 0.55, applyShare: 0.15, serveShare: 0.30},
	{name: "products_apply", products: true, size: 0.02, sampleN: 4000, spillRecords: 4, f1Floor: 0.816,
		matchShare: 0.30, applyShare: 0.45, serveShare: 0.25},
	{name: "songs_serve", size: 400, sampleN: 4000, spillRecords: 4, f1Floor: 0.995,
		matchShare: 0.20, applyShare: 0.15, serveShare: 0.65},
	{name: "songs_serve_swap", size: 400, sampleN: 4000, spillRecords: 4, f1Floor: 0.995,
		matchShare: 0.20, applyShare: 0.15, serveShare: 0.65, swapInline: true},
}

func findWorkload(scale, name string) (workload, error) {
	set := fullScale
	switch scale {
	case "full":
	case "tiny":
		set = tinyScale
	default:
		return workload{}, fmt.Errorf("unknown -scale %q (full, tiny)", scale)
	}
	for _, w := range set {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown -workload %q", name)
}

// dataset generates the workload's tables for one datagen seed.
func (w workload) dataset(seed int64) *datagen.Dataset {
	if w.products {
		return datagen.Products(w.size, seed)
	}
	return datagen.Songs(int(w.size), seed)
}

// hitLatency is the simulated crowd's per-HIT latency for a run: the paper's
// 1.5 minutes, moved by at most ±0.3% by the seed. It changes no label, so
// the learning trajectory, the dollars and the F1 repeat exactly while
// sim_total_s stays a function of the seed.
func hitLatency(seed int64) time.Duration {
	u := rand.New(rand.NewSource(seed)).Float64()*2 - 1
	return time.Duration(float64(90*time.Second) * (1 + 0.003*u))
}

// trainOptions are the paper's defaults with the sample cut to fit the run
// budget and the blocking plan forced: at these sizes the planner would pick
// the matcher-only plan (and on Products refuse to materialize A×B).
func (w workload) trainOptions(trainSeed int64, latency time.Duration) core.Options {
	opt := core.DefaultOptions()
	opt.Seed = trainSeed
	opt.SampleN = w.sampleN
	force := true
	opt.ForceBlocking = &force
	opt.Platform = crowd.NewRandomWorkers(0, latency, trainSeed+1)
	return opt
}
