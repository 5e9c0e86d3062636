package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"falcon/internal/bitset"
	"falcon/internal/block"
	"falcon/internal/crowd"
	"falcon/internal/feature"
	"falcon/internal/filters"
	"falcon/internal/forest"
	"falcon/internal/index"
	"falcon/internal/learn"
	"falcon/internal/mapreduce"
	"falcon/internal/model"
	"falcon/internal/rules"
	"falcon/internal/rulesel"
	"falcon/internal/sample"
	"falcon/internal/serve"
	"falcon/internal/service"
	"falcon/internal/simfn"
	"falcon/internal/table"
	"falcon/internal/tokenize"
)

// The traced run measures each layer (an internal/ package) from outside:
// every call the harness makes into a layer's exported functions sits under a
// span, on inputs taken from the workload's tables and its training Result.
// Spans inside the product are a later change; README.md lists, per metric,
// the end-to-end number it should move.

// layerUnits are the per-layer metrics, as BENCHMARK.json lists them.
var layerUnits = map[string]string{
	"tokenize.set_mtok_s":           "Mtok/s",
	"simfn.jaccard_packed_ns":       "ns",
	"simfn.lev_ns":                  "ns",
	"bitset.andcount_ns":            "ns",
	"sample.pairs_s":                "s",
	"sample.pairs_n":                "count",
	"feature.warm_s":                "s",
	"feature.blockvec_ns_per_pair":  "ns",
	"feature.vec_ns_per_pair":       "ns",
	"feature.allocs_per_pair":       "count",
	"learn.run_s":                   "s",
	"learn.iterations":              "count",
	"learn.labeled_n":               "count",
	"forest.train_s":                "s",
	"forest.predict_ns":             "ns",
	"rules.extracted_n":             "count",
	"rulesel.eval_s":                "s",
	"rulesel.retained_n":            "count",
	"index.build_s":                 "s",
	"index.mb":                      "MB",
	"index.probe_us_per_row":        "us",
	"index.probe_cands_per_row":     "count",
	"filters.rulecands_us_per_row":  "us",
	"filters.cands_per_row":         "count",
	"filters.useful_frac":           "ratio",
	"block.run_s":                   "s",
	"block.mpairs_s":                "Mpairs/s",
	"block.cands_out":               "count",
	"block.sim_s":                   "sim_s",
	"block.allocs_per_run":          "count",
	"mapreduce.shuffle_mrec_s":      "Mrec/s",
	"mapreduce.spill_mrec_s":        "Mrec/s",
	"mapreduce.spill_slowdown":      "ratio",
	"mapreduce.spill_mb":            "MB",
	"mapreduce.workers_speedup":     "ratio",
	"crowd.questions":               "count",
	"crowd.hits":                    "count",
	"vclock.sim_crowd_s":            "sim_s",
	"vclock.sim_unmasked_machine_s": "sim_s",
	"vclock.masked_frac":            "ratio",
	"core.unattributed_s":           "s",
	"model.save_s":                  "s",
	"model.load_s":                  "s",
	"model.artifact_mb":             "MB",
	"model.apply_spill_s":           "s",
	"serve.newbundle_s":             "s",
	"serve.matchone_p50_us":         "us",
	"serve.matchone_p99_us":         "us",
	"serve.matchone_allocs":         "count",
	"serve.matchone_bytes":          "B",
	"serve.matches_per_req":         "count",
	"serve.live_heap_mb":            "MiB",
	"service.handler_p50_us":        "us",
	"service.handler_allocs":        "count",
	"service.json_overhead_us":      "us",
	"service.socket_overhead_us":    "us",
	"service.server_span_p99_us":    "us",
	"service.http_p999_us":          "us",
	"rt.gc_cycles":                  "count",
	"rt.gc_pause_ms":                "ms",
	"rt.alloc_mb":                   "MB",
	"trace_overhead_frac":           "ratio",
}

// probe carries one traced run's per-layer values and the span they hang
// under.
type probe struct {
	r    *run
	ctx  context.Context
	root int
	vals map[string]float64
	// set and vz are the feature space and warm vectorizer over the training
	// tables, built (and timed) once by the training probe; traffic is the
	// request stream the serving and socket probes share.
	set     *feature.Set
	vz      *feature.Vectorizer
	traffic *traffic
	// stages sums the probes that stand for core.RunContext's own stages;
	// core.unattributed_s is the match wall-clock they do not explain.
	stages time.Duration
}

// call runs fn under a span named for the layer function it enters.
func (p *probe) call(name string, fn func()) time.Duration {
	return p.r.tr.call(name, p.root, fn)
}

// mallocs runs fn and returns how many heap objects and bytes it allocated.
func mallocs(fn func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// traced is the --trace 1 run: set-up once, one hands-off run, the layer
// probes, then the same HTTP traffic untraced and traced. It writes the span
// file and returns every per-layer metric.
func (r *run) traced(ctx context.Context, spanFile string) (map[string]metric, map[string]any, error) {
	if _, err := runSetup(r.w, r.scale, r.dir); err != nil {
		return nil, nil, err
	}
	if err := r.loadInputs(); err != nil {
		return nil, nil, err
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	m, err := r.matchPhase(ctx, 0, 1)
	if err != nil {
		return nil, nil, err
	}
	t, err := r.buildTraffic(m)
	if err != nil {
		return nil, nil, err
	}
	p := &probe{r: r, ctx: ctx, vals: map[string]float64{}, traffic: t}
	p.root = r.tr.begin("layer probes", 0)
	steps := []func(*matchOut) error{p.training, p.blocking, p.kernels, p.executor, p.serving}
	for _, step := range steps {
		if err := step(m); err != nil {
			return nil, nil, err
		}
	}
	r.tr.end(p.root)
	p.ledger(m)
	if err := p.sockets(m); err != nil {
		return nil, nil, err
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.vals["rt.gc_cycles"] = float64(after.NumGC - before.NumGC)
	p.vals["rt.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	p.vals["rt.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6

	metrics, err := withUnits(p.vals, layerUnits)
	if err != nil {
		return nil, nil, err
	}
	detail := map[string]any{"span_file": spanFile, "spans": len(r.tr.spans), "connections": connections()}
	if err := r.tr.writeFile(spanFile, environment(r, detail)); err != nil {
		return nil, nil, err
	}
	return metrics, detail, nil
}

// blockingFeatures returns the features behind the blocking vector's
// positions.
func blockingFeatures(set *feature.Set) []*feature.Feature {
	feats := make([]*feature.Feature, len(set.BlockingIdx))
	for i, idx := range set.BlockingIdx {
		feats[i] = &set.Features[idx]
	}
	return feats
}

// similarityMean is the seed-round score core gives al_matcher: the mean of
// the bounded similarity features, skipping distances and missing values.
func similarityMean(feats []*feature.Feature) func([]float64) float64 {
	return func(vec []float64) float64 {
		sum, n := 0.0, 0
		for i, v := range vec {
			if feats[i].Measure.Distance() || v == feature.Missing {
				continue
			}
			sum += v
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
}

// training probes the layers the hands-off run spends its learning time in,
// stage by stage as core's blocking plan calls them: tokenize, sample,
// feature, learn, rules, rulesel, forest.
func (p *probe) training(m *matchOut) error {
	a, b := p.r.base.A, p.r.base.B
	opt := p.r.w.trainOptions(trainSeedNew, hitLatency(p.r.seed))
	cluster := mapreduce.Default()
	oracle := p.r.base.Oracle()

	tokens := 0
	d := p.call("tokenize.Set", func() {
		for _, t := range []*table.Table{a, b} {
			for _, tu := range t.Tuples {
				for _, v := range tu.Values {
					tokens += len(tokenize.Set(tokenize.Word, v))
				}
			}
		}
	})
	p.vals["tokenize.set_mtok_s"] = float64(tokens) / 1e6 / d.Seconds()

	set := feature.Generate(a, b)
	var vz *feature.Vectorizer
	d = p.call("feature.Warm", func() {
		vz = feature.NewVectorizer(set, a, b)
		vz.Warm()
	})
	p.set, p.vz = set, vz
	p.vals["feature.warm_s"] = d.Seconds()
	p.stages += d

	var pairs []table.Pair
	var err error
	d = p.call("sample.Pairs", func() {
		pairs, _, err = sample.Pairs(p.ctx, cluster, a, b, sample.Config{N: opt.SampleN, Y: opt.SampleY, Seed: opt.Seed})
	})
	if err != nil {
		return fmt.Errorf("sample.Pairs: %w", err)
	}
	p.vals["sample.pairs_s"] = d.Seconds()
	p.vals["sample.pairs_n"] = float64(len(pairs))
	p.stages += d

	// Blocking vectors of the sample, one batch per A row.
	slices.SortStableFunc(pairs, func(x, y table.Pair) int { return x.A - y.A })
	pool := make([]learn.Item, 0, len(pairs))
	d = p.call("feature.BlockingVectorsBatch", func() {
		var bRows []int32
		for lo := 0; lo < len(pairs); {
			hi := lo
			bRows = bRows[:0]
			for ; hi < len(pairs) && pairs[hi].A == pairs[lo].A; hi++ {
				bRows = append(bRows, int32(pairs[hi].B))
			}
			vz.BlockingVectorsBatch(pairs[lo].A, bRows, func(i int, values []float64) {
				pool = append(pool, learn.Item{Pair: pairs[lo+i], Vec: slices.Clone(values)})
			})
			lo = hi
		}
	})
	p.vals["feature.blockvec_ns_per_pair"] = float64(d.Nanoseconds()) / float64(len(pairs))
	p.stages += d

	// Blocking-stage al_matcher with its own crowd.
	cr := crowd.New(opt.Platform, opt.CrowdCfg)
	bfeats := blockingFeatures(set)
	var blockAL *learn.Result
	d = p.call("learn.Run", func() {
		blockAL, err = learn.New(cluster, cr, oracle, learn.Config{
			MaxIterations: opt.ALIterations,
			Forest:        forest.Config{Seed: opt.Seed + 10},
			SeedScore:     similarityMean(bfeats),
		}).Run(p.ctx, pool)
	})
	if err != nil {
		return fmt.Errorf("learn.Run (blocking stage): %w", err)
	}
	learnDur := d

	// get_blocking_rules + eval_rules + select_opt_seq on the run's forest.
	cands := rules.Extract(m.res.BlockingForest)
	p.vals["rules.extracted_n"] = float64(len(cands))
	vecs := make([][]float64, len(pool))
	for i := range pool {
		vecs[i] = pool[i].Vec
	}
	var eval *rulesel.EvalResult
	d = p.call("rulesel.EvalRules", func() {
		eval, err = rulesel.EvalRules(p.ctx, cands, pairs, vecs, cr, oracle, nil, rulesel.EvalConfig{Seed: opt.Seed + 20})
		if err == nil {
			rulesel.SelectOptSeq(eval.Retained, len(vecs), opt.Weights)
		}
	})
	if err != nil {
		return fmt.Errorf("rulesel.EvalRules: %w", err)
	}
	p.vals["rulesel.eval_s"] = d.Seconds()
	p.vals["rulesel.retained_n"] = float64(len(eval.Retained))
	p.stages += d

	// Full vectors of the run's candidates, then the matching-stage
	// al_matcher and the final predict over them.
	var full []feature.Vector
	objects, _ := mallocs(func() {
		d = p.call("feature.VectorizeAll", func() { full = vz.VectorizeAll(m.res.Candidates) })
	})
	nc := float64(max(len(full), 1))
	p.vals["feature.vec_ns_per_pair"] = float64(d.Nanoseconds()) / nc
	p.vals["feature.allocs_per_pair"] = objects / nc
	p.stages += d

	mpool := make([]learn.Item, len(full))
	for i, v := range full {
		mpool[i] = learn.Item{Pair: v.Pair, Vec: v.Values}
	}
	feats := make([]*feature.Feature, len(set.Features))
	for i := range set.Features {
		feats[i] = &set.Features[i]
	}
	var matchAL *learn.Result
	d = p.call("learn.Run", func() {
		matchAL, err = learn.New(cluster, cr, oracle, learn.Config{
			MaxIterations: opt.ALIterations,
			Forest:        forest.Config{Seed: opt.Seed + 30},
			SeedScore:     similarityMean(feats),
		}).Run(p.ctx, mpool)
	})
	if err != nil {
		return fmt.Errorf("learn.Run (matching stage): %w", err)
	}
	learnDur += d
	p.vals["learn.run_s"] = learnDur.Seconds()
	p.vals["learn.iterations"] = float64(blockAL.Iterations + matchAL.Iterations)
	p.vals["learn.labeled_n"] = float64(len(blockAL.Labeled) + len(matchAL.Labeled))
	p.stages += learnDur

	d = p.call("forest.Train", func() { forest.Train(matchAL.Labeled, forest.Config{Seed: opt.Seed + 30}) })
	p.vals["forest.train_s"] = d.Seconds()
	matched := 0
	d = p.call("forest.Predict", func() {
		for _, v := range full {
			if m.res.MatchingForest.Predict(v.Values) {
				matched++
			}
		}
	})
	p.vals["forest.predict_ns"] = float64(d.Nanoseconds()) / nc
	p.stages += d
	if matched != len(m.res.Matches) {
		p.r.failf("forest.Predict over the candidates found %d matches, the run %d", matched, len(m.res.Matches))
	}
	p.r.attempted++
	return nil
}

// blocking probes index, filters and block on the trained rule sequence, the
// way ApplyContext drives them.
func (p *probe) blocking(m *matchOut) error {
	a, b := p.r.base.A, p.r.base.B
	cluster := mapreduce.Default()
	art := m.res.Artifact
	vz := p.vz
	feats := blockingFeatures(p.set)
	an := filters.Analyze(rules.ToCNF(art.RuleSeq), feats)
	ix := filters.NewIndexes(cluster, a)
	var err error
	d := p.call("filters.EnsureAll", func() { _, err = ix.EnsureAll(p.ctx, an.NeededIndexes()) })
	if err != nil {
		return fmt.Errorf("filters.EnsureAll: %w", err)
	}
	p.vals["index.build_s"] = d.Seconds()
	p.vals["index.mb"] = float64(ix.TotalBytes()) / 1e6
	p.stages += d

	rows := make([]int, b.Len())
	for i := range rows {
		rows[i] = i
	}
	var cands int
	d = p.call("filters.RuleCandidatesBatch", func() {
		ix.RuleCandidatesBatch(an, nil, b, rows, func(_ int, cs []int32, all bool, _ int64) {
			if all {
				cands += a.Len()
			} else {
				cands += len(cs)
			}
		})
	})
	p.vals["filters.rulecands_us_per_row"] = float64(d.Nanoseconds()) / 1e3 / float64(len(rows))
	p.vals["filters.cands_per_row"] = float64(cands) / float64(len(rows))

	in := &block.Input{A: a, B: b, Analysis: an, Indexes: ix, Vectorizer: vz, ClauseSel: art.ClauseSel, PassIDsOnly: true}
	seqSel := 1.0
	for _, s := range art.ClauseSel {
		seqSel *= s
	}
	strategy := block.Choose(cluster, in, seqSel)
	if _, err := block.Run(p.ctx, cluster, in, strategy); err != nil { // warm the column caches
		return fmt.Errorf("block.Run: %w", err)
	}
	var res *block.Result
	objects, _ := mallocs(func() {
		d = p.call("block.Run", func() { res, err = block.Run(p.ctx, cluster, in, strategy) })
	})
	if err != nil {
		return fmt.Errorf("block.Run: %w", err)
	}
	p.vals["block.run_s"] = d.Seconds()
	p.vals["block.mpairs_s"] = float64(a.Len()) * float64(b.Len()) / 1e6 / d.Seconds()
	p.vals["block.cands_out"] = float64(len(res.Pairs))
	p.vals["block.sim_s"] = res.SimTime.Seconds()
	p.vals["block.allocs_per_run"] = objects
	p.vals["filters.useful_frac"] = float64(len(res.Pairs)) / float64(max(res.PairsEnumerated, 1))
	p.stages += d
	p.r.attempted++
	if len(res.Pairs) != len(m.res.Candidates) {
		p.r.failf("block.Run kept %d candidates, the run %d", len(res.Pairs), len(m.res.Candidates))
	}

	// The learned Songs rules need no prefix index, so the prefix probe is
	// measured on one the harness builds: Jaccard ≥ 0.6 over the first
	// word-token blocking feature, every B row probing A's index.
	var f *feature.Feature
	for _, bf := range feats {
		if bf.Measure == simfn.MJaccard && bf.Token == tokenize.Word {
			f = bf
			break
		}
	}
	if f == nil {
		return fmt.Errorf("no jaccard word feature to probe a prefix index with")
	}
	const threshold = 0.6
	ord := index.BuildOrdering(index.TokenFrequencies(a, f.ACol, tokenize.Word))
	pidx := index.BuildPrefix(a, f.ACol, tokenize.Word, ord, simfn.MJaccard, threshold)
	encoded := encodeProbeColumn(b, f.BCol, ord)
	probeCands := 0
	d = p.call("index.ProbeIDsBatch", func() {
		pidx.ProbeIDsBatch(simfn.MJaccard, threshold, encoded, func(_ int, cs []int32) { probeCands += len(cs) })
	})
	p.vals["index.probe_us_per_row"] = float64(d.Nanoseconds()) / 1e3 / float64(len(encoded))
	p.vals["index.probe_cands_per_row"] = float64(probeCands) / float64(len(encoded))
	return nil
}

// encodeProbeColumn encodes a B column as sorted token-ID sets under ord, the
// ProbeIDs contract: unknown tokens get distinct IDs past the ordering.
func encodeProbeColumn(b *table.Table, col int, ord *index.Ordering) [][]uint32 {
	dict, ext, base := ord.Dict(), tokenize.NewDict(), uint32(ord.Len())
	rows := make([][]uint32, b.Len())
	for row := range rows {
		toks := tokenize.Set(tokenize.Word, b.Value(row, col))
		ids := make([]uint32, len(toks))
		for i, t := range toks {
			if id, known := dict.ID(t); known {
				ids[i] = id
			} else {
				ids[i] = base + ext.Intern(t)
			}
		}
		slices.Sort(ids)
		rows[row] = ids
	}
	return rows
}

// kernelPairs caps how many candidate pairs the kernel loops visit.
const kernelPairs = 100_000

// kernels times the similarity kernels on the token sets and strings of the
// run's sampled pairs: packed Jaccard, the raw signature AND-count under it,
// and Levenshtein.
func (p *probe) kernels(m *matchOut) error {
	a, b := p.r.base.A, p.r.base.B
	var f *feature.Feature
	for i := range p.set.Features {
		if p.set.Features[i].Measure == simfn.MJaccard {
			f = &p.set.Features[i]
			break
		}
	}
	if f == nil {
		return fmt.Errorf("no jaccard feature to time the kernels on")
	}
	_, aIDs, bIDs := p.vz.CorrIDs(f.ACol, f.BCol, f.Token)
	pa, pb := make([]simfn.PackedIDs, len(aIDs)), make([]simfn.PackedIDs, len(bIDs))
	sa, sb := make([]bitset.Signature, len(aIDs)), make([]bitset.Signature, len(bIDs))
	for i, ids := range aIDs {
		pa[i] = simfn.PackIDs(ids)
		sa[i].AppendSignature(ids)
	}
	for i, ids := range bIDs {
		pb[i] = simfn.PackIDs(ids)
		sb[i].AppendSignature(ids)
	}
	// Candidates first (similar sets, the expensive case), then a stride
	// through A×B up to the cap.
	pairs := slices.Clone(m.res.Candidates)
	for i := 0; len(pairs) < kernelPairs && i < a.Len()*b.Len(); i += 7919 {
		pairs = append(pairs, table.Pair{A: i / b.Len(), B: i % b.Len()})
	}
	pairs = pairs[:min(len(pairs), kernelPairs)]
	n := float64(len(pairs))

	var sink float64
	d := p.call("simfn.JaccardPacked", func() {
		for _, pr := range pairs {
			sink += simfn.JaccardPacked(&pa[pr.A], &pb[pr.B])
		}
	})
	p.vals["simfn.jaccard_packed_ns"] = float64(d.Nanoseconds()) / n
	d = p.call("bitset.AndCount", func() {
		for _, pr := range pairs {
			sink += float64(bitset.AndCount(&sa[pr.A], &sb[pr.B]))
		}
	})
	p.vals["bitset.andcount_ns"] = float64(d.Nanoseconds()) / n
	s := simfn.GetScratch()
	d = p.call("simfn.Levenshtein", func() {
		for _, pr := range pairs {
			sink += s.Levenshtein(a.Value(pr.A, f.ACol), b.Value(pr.B, f.BCol))
		}
	})
	simfn.PutScratch(s)
	p.vals["simfn.lev_ns"] = float64(d.Nanoseconds()) / n
	if sink < 0 {
		return fmt.Errorf("kernel sum went negative") // keeps the loops' results live
	}
	return nil
}

// executor times a token-count job over B on the mapreduce executor: in
// memory, spilled, and on one worker versus all CPUs, on the apply phase's
// 8-slot cluster (see applyCluster).
func (p *probe) executor(m *matchOut) error {
	b := p.r.base.B
	rows := make([]int, b.Len())
	for i := range rows {
		rows[i] = i
	}
	spillDir := filepath.Join(p.r.dir, "mr-spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return err
	}
	var spilledBytes int64
	var once *sync.Once
	job := func(c *mapreduce.Cluster) mapreduce.Job[int, string, int, int] {
		return mapreduce.Job[int, string, int, int]{
			Name:   "bench-token-count",
			Splits: mapreduce.SplitSlice(rows, c.Slots()),
			Map: func(row int, ctx *mapreduce.MapCtx[string, int]) {
				toks := tokenize.Document(b.Tuples[row].Values)
				ctx.AddCost(int64(len(toks)))
				for _, tok := range toks {
					ctx.Emit(tok, 1)
				}
			},
			Reduce: func(_ string, values []int, ctx *mapreduce.ReduceCtx[int]) {
				// The first reduce call runs after every map task has
				// flushed its runs: the spill directory is at its fullest.
				//falcon:allow mrpurity the sync.Once lets exactly one reduce task write it, and the harness reads it after Execute returns
				once.Do(func() { spilledBytes = dirBytes(spillDir) })
				ctx.Output(len(values))
			},
		}
	}
	execute := func(name string, c *mapreduce.Cluster) (time.Duration, int64, int, error) {
		once = &sync.Once{}
		var res *mapreduce.Result[int]
		var err error
		d := p.call(name, func() { res, err = mapreduce.Execute(p.ctx, mapreduce.NewExecutor(c), job(c)) })
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		return d, res.Stats.Shuffled, len(res.Output), nil
	}

	mem := applyCluster()
	if _, _, _, err := execute("mapreduce.Execute", mem); err != nil { // warm-up
		return err
	}
	memDur, shuffled, keys, err := execute("mapreduce.Execute", mem)
	if err != nil {
		return err
	}
	spill := applyCluster()
	spill.SpillRecords = p.r.w.spillRecords
	spill.SpillDir = spillDir
	spillDur, spillShuffled, spillKeys, err := execute("mapreduce.Execute/spill", spill)
	if err != nil {
		return err
	}
	p.vals["mapreduce.spill_mb"] = float64(spilledBytes) / 1e6
	p.r.attempted++
	if spillShuffled != shuffled || spillKeys != keys {
		p.r.failf("spilled token count shuffled %d records into %d keys, in-memory %d into %d", spillShuffled, spillKeys, shuffled, keys)
	}
	p.vals["mapreduce.shuffle_mrec_s"] = float64(shuffled) / 1e6 / memDur.Seconds()
	p.vals["mapreduce.spill_mrec_s"] = float64(shuffled) / 1e6 / spillDur.Seconds()
	p.vals["mapreduce.spill_slowdown"] = spillDur.Seconds() / memDur.Seconds()

	// The spilled apply itself, once, on the seed's tables: the number the
	// end-to-end run prints but does not gate.
	var applyErr error
	d := p.call("model.ApplyContext/spill", func() {
		_, _, applyErr = m.res.Artifact.ApplyContext(p.ctx, spill, p.r.fresh.A, p.r.fresh.B)
	})
	if applyErr != nil {
		return fmt.Errorf("spilled apply: %w", applyErr)
	}
	p.vals["model.apply_spill_s"] = d.Seconds()

	// A scaling number needs a second CPU; on one it would be a flat line,
	// so it is reported as 0 ("not measured").
	p.vals["mapreduce.workers_speedup"] = 0
	if runtime.GOMAXPROCS(0) >= 2 {
		one := applyCluster()
		one.Workers = 1
		oneDur, _, _, err := execute("mapreduce.Execute/workers=1", one)
		if err != nil {
			return err
		}
		p.vals["mapreduce.workers_speedup"] = oneDur.Seconds() / memDur.Seconds()
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil // a run file removed mid-walk is simply not counted
	})
	return total
}

// ledger copies the run's crowd and simulated-clock accounting.
func (p *probe) ledger(m *matchOut) {
	tl := m.res.Timeline
	perHIT := crowd.DefaultConfig().QuestionsPerHIT
	p.vals["crowd.questions"] = float64(m.res.Questions)
	p.vals["crowd.hits"] = float64((m.res.Questions + perHIT - 1) / perHIT)
	p.vals["vclock.sim_crowd_s"] = tl.CrowdTime.Seconds()
	p.vals["vclock.sim_unmasked_machine_s"] = tl.UnmaskedMachine.Seconds()
	p.vals["vclock.masked_frac"] = 0
	if tl.MachineTime > 0 {
		p.vals["vclock.masked_frac"] = tl.MaskedMachine.Seconds() / tl.MachineTime.Seconds()
	}
	p.vals["core.unattributed_s"] = (m.walls[0] - p.stages).Seconds()
}

// serving probes model, serve and service below the socket: the wire format,
// NewBundle, MatchOne called directly over the request stream, and the HTTP
// handler through a ResponseRecorder.
func (p *probe) serving(m *matchOut) error {
	var buf bytes.Buffer
	var err error
	d := p.call("model.Save", func() { err = m.res.Artifact.Save(&buf) })
	if err != nil {
		return fmt.Errorf("model.Save: %w", err)
	}
	p.vals["model.save_s"] = d.Seconds()
	p.vals["model.artifact_mb"] = float64(buf.Len()) / 1e6
	var art *model.MatcherArtifact
	d = p.call("model.LoadArtifact", func() { art, err = model.LoadArtifact(bytes.NewReader(buf.Bytes())) })
	if err != nil {
		return fmt.Errorf("model.LoadArtifact: %w", err)
	}
	p.vals["model.load_s"] = d.Seconds()
	var bn *serve.Bundle
	d = p.call("serve.NewBundle", func() { bn, err = serve.NewBundle(art) })
	if err != nil {
		return fmt.Errorf("serve.NewBundle: %w", err)
	}
	p.vals["serve.newbundle_s"] = d.Seconds()

	t := p.traffic
	a := p.r.base.A
	for _, row := range t.order { // warm the scratch pools
		if _, err := bn.MatchOne(a.Tuples[row].Values); err != nil {
			return fmt.Errorf("serve.MatchOne: %w", err)
		}
	}
	lats := make([]time.Duration, 0, len(t.order))
	matches := 0
	id := p.r.tr.begin("serve.MatchOne ×rows", p.root)
	objects, bytesAlloc := mallocs(func() {
		for _, row := range t.order {
			t0 := now()
			ms, _ := bn.MatchOne(a.Tuples[row].Values) // the warm pass above returned its errors
			lats = append(lats, since(t0))
			matches += len(ms)
		}
	})
	p.r.tr.end(id)
	n := float64(len(t.order))
	p.vals["serve.matchone_p50_us"] = median(micros(lats))
	p.vals["serve.matchone_p99_us"] = quantile(micros(lats), 0.99)
	p.vals["serve.matchone_allocs"] = objects / n
	p.vals["serve.matchone_bytes"] = bytesAlloc / n
	p.vals["serve.matches_per_req"] = float64(matches) / n
	p.r.attempted++
	if matches != len(m.res.Matches) {
		p.r.failf("MatchOne over every A row found %d matches, the run %d", matches, len(m.res.Matches))
	}

	svc := service.New()
	if err := svc.Publish(art); err != nil {
		return fmt.Errorf("service.Publish: %w", err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.vals["serve.live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	handle := func(row int) int {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/match/one", bytes.NewReader(t.bodies[row])))
		return rec.Code
	}
	for _, row := range t.order {
		if code := handle(row); code != http.StatusOK {
			return fmt.Errorf("handler answered %d for row %d", code, row)
		}
	}
	lats = lats[:0]
	id = p.r.tr.begin("service.ServeHTTP ×rows", p.root)
	objects, _ = mallocs(func() {
		for _, row := range t.order {
			t0 := now()
			handle(row)
			lats = append(lats, since(t0))
		}
	})
	p.r.tr.end(id)
	p.vals["service.handler_p50_us"] = median(micros(lats))
	p.vals["service.handler_allocs"] = objects / n
	p.vals["service.json_overhead_us"] = p.vals["service.handler_p50_us"] - p.vals["serve.matchone_p50_us"]
	runtime.KeepAlive(bn)
	return nil
}

// sockets drives the same closed loop twice over a real listener — untraced,
// then with a client span per request and a server span around ServeHTTP —
// and reports what tracing costs and what the socket adds to the handler.
func (p *probe) sockets(m *matchOut) error {
	r, t := p.r, p.traffic
	window := max(time.Duration(r.seconds/10*float64(time.Second)), serveWindow)
	measure := func(tr *tracer) (*loadOut, error) {
		s, err := startServer(m.artifact, tr)
		if err != nil {
			return nil, err
		}
		defer s.stop(p.ctx)
		r.drive(s, t, tr, window/4, 0, nil)
		return r.drive(s, t, tr, window, 0, nil), nil
	}
	plain, err := measure(nil)
	if err != nil {
		return err
	}
	traced, err := measure(r.tr)
	if err != nil {
		return err
	}
	if len(plain.samples) == 0 || len(traced.samples) == 0 {
		return fmt.Errorf("no request succeeded over the socket")
	}
	plainP50 := median(plain.latencies())
	p.vals["trace_overhead_frac"] = median(traced.latencies())/plainP50 - 1
	p.vals["service.socket_overhead_us"] = plainP50 - p.vals["service.handler_p50_us"]
	p.vals["service.http_p999_us"] = quantile(plain.latencies(), 0.999)
	p.vals["service.server_span_p99_us"] = quantile(micros(r.tr.durations("service.ServeHTTP")), 0.99)
	return nil
}
