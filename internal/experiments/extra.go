package experiments

import (
	"context"
	"strings"
	"time"

	"falcon/internal/block"
	"falcon/internal/core"
	"falcon/internal/crowd"
	"falcon/internal/datagen"
	"falcon/internal/feature"
	"falcon/internal/filters"
	"falcon/internal/forest"
	"falcon/internal/learn"
	"falcon/internal/mapreduce"
	"falcon/internal/metrics"
	"falcon/internal/rules"
	"falcon/internal/rulesel"
	"falcon/internal/sample"
	"falcon/internal/table"
)

// frontHalf runs the blocking-stage front of the pipeline — sample_pairs,
// gen_fvs, al_matcher, get_blocking_rules, eval_rules — and returns the
// pieces the physical-operator and rule-sequence experiments need.
type frontHalf struct {
	d        *datagen.Dataset
	cluster  *mapreduce.Cluster
	set      *feature.Set
	vz       *feature.Vectorizer
	feats    []*feature.Feature
	retained []rulesel.EvaluatedRule
	choice   rulesel.SeqChoice
	nSample  int
}

func (c Config) runFrontHalf(name DatasetName) (*frontHalf, error) {
	c = c.WithDefaults()
	d := c.Generate(name, c.Seed+7)
	cluster := &mapreduce.Cluster{
		Nodes: c.Nodes, SlotsPerNode: 8, MapperMemory: 2 << 30,
		CostUnit:    8 * time.Millisecond,
		ShuffleUnit: 1 * time.Millisecond,
		JobOverhead: 5 * time.Second,
	}
	cr := crowd.New(crowd.NewRandomWorkers(c.ErrRate, 0, c.Seed+1), crowd.Config{})

	set := feature.Generate(d.A, d.B)
	vz := feature.NewVectorizer(set, d.A, d.B)
	pairs, _, err := sample.Pairs(context.Background(), cluster, d.A, d.B, sample.Config{N: c.sampleSize(d.B.Len()), Y: 20, Seed: c.Seed})
	if err != nil {
		return nil, err
	}
	pool := make([]learn.Item, len(pairs))
	sampleVecs := make([][]float64, len(pairs))
	for i, p := range pairs {
		sampleVecs[i] = vz.BlockingVector(p).Values
		pool[i] = learn.Item{Pair: p, Vec: sampleVecs[i]}
	}
	feats := make([]*feature.Feature, len(set.BlockingIdx))
	for i, idx := range set.BlockingIdx {
		feats[i] = &set.Features[idx]
	}
	isDist := func(i int) bool { return feats[i].Measure.Distance() }
	learner := learn.New(cluster, cr, d.Oracle(), learn.Config{
		MaxIterations: c.ALIter,
		Forest:        forest.Config{Seed: c.Seed + 10},
		SeedScore: func(vec []float64) float64 {
			sum, n := 0.0, 0
			for i, v := range vec {
				if isDist(i) || v == feature.Missing {
					continue
				}
				sum += v
				n++
			}
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		},
	})
	alRes, err := learner.Run(context.Background(), pool)
	if err != nil {
		return nil, err
	}
	cands := rules.Extract(alRes.Forest)
	evalRes, err := rulesel.EvalRules(context.Background(), cands, pairs, sampleVecs, cr, d.Oracle(), nil, rulesel.EvalConfig{Seed: c.Seed + 20})
	if err != nil {
		return nil, err
	}
	choice := rulesel.SelectOptSeq(evalRes.Retained, len(pairs), rulesel.Weights{})
	return &frontHalf{
		d: d, cluster: cluster, set: set, vz: vz, feats: feats,
		retained: evalRes.Retained, choice: choice, nSample: len(pairs),
	}, nil
}

// blockInput builds an apply_blocking_rules input for a rule sequence.
func (fh *frontHalf) blockInput(seq []rulesel.EvaluatedRule) (*block.Input, error) {
	rs := make([]rules.Rule, len(seq))
	sel := make([]float64, len(seq))
	for i, er := range seq {
		rs[i] = er.Rule
		sel[i] = er.Selectivity
	}
	an := filters.Analyze(rules.ToCNF(rs), fh.feats)
	ix := filters.NewIndexes(fh.cluster, fh.d.A)
	if _, err := ix.EnsureAll(context.Background(), an.NeededIndexes()); err != nil {
		return nil, err
	}
	return &block.Input{
		A: fh.d.A, B: fh.d.B,
		Analysis:    an,
		Indexes:     ix,
		Vectorizer:  fh.vz,
		ClauseSel:   sel,
		PassIDsOnly: true,
	}, nil
}

// BlockerRow is one strategy measurement of the §11.2 comparison.
type BlockerRow struct {
	Strategy   block.Strategy
	SimTime    time.Duration
	Candidates int
	MemoryNeed int64
	Err        string
}

// Blockers compares the six apply_blocking_rules physical operators
// (§11.2) on one dataset, plus the §10.1 automatic choice.
func (c Config) Blockers(name DatasetName) ([]BlockerRow, block.Strategy, error) {
	c = c.WithDefaults()
	fh, err := c.runFrontHalf(name)
	if err != nil {
		return nil, 0, err
	}
	if len(fh.choice.Seq) == 0 {
		return nil, 0, errNoRules(name)
	}
	in, err := fh.blockInput(fh.choice.Seq)
	if err != nil {
		return nil, 0, err
	}
	fprintf(c.Out, "Blocking strategies on %s (rules=%d, |A|=%d, |B|=%d)\n",
		name, len(fh.choice.Seq), fh.d.A.Len(), fh.d.B.Len())
	fprintf(c.Out, "%-16s %12s %10s %12s\n", "strategy", "sim time", "cands", "mapper mem")
	var rows []BlockerRow
	for s := block.ApplyAll; s <= block.ReduceSplit; s++ {
		row := BlockerRow{Strategy: s, MemoryNeed: block.MemoryNeed(in, s)}
		res, err := block.Run(context.Background(), fh.cluster, in, s)
		if err != nil {
			row.Err = err.Error()
			fprintf(c.Out, "%-16s %12s\n", s, "KILLED ("+err.Error()+")")
		} else {
			row.SimTime = res.SimTime
			row.Candidates = len(res.Pairs)
			fprintf(c.Out, "%-16s %12s %10d %12d\n", s, metrics.FmtDuration(res.SimTime), len(res.Pairs), row.MemoryNeed)
		}
		rows = append(rows, row)
	}
	chosen := block.Choose(fh.cluster, in, fh.choice.Selectivity)
	fprintf(c.Out, "§10.1 choice: %s\n", chosen)
	return rows, chosen, nil
}

// MemorySweep reruns strategy selection under shrinking mapper memory
// (the 2G/1G/500M sweep of §11.2).
func (c Config) MemorySweep(name DatasetName) (map[int64]block.Strategy, error) {
	c = c.WithDefaults()
	fh, err := c.runFrontHalf(name)
	if err != nil {
		return nil, err
	}
	if len(fh.choice.Seq) == 0 {
		return nil, errNoRules(name)
	}
	in, err := fh.blockInput(fh.choice.Seq)
	if err != nil {
		return nil, err
	}
	out := map[int64]block.Strategy{}
	fprintf(c.Out, "Memory sweep on %s\n", name)
	for _, mem := range []int64{2 << 30, 1 << 30, 500 << 20, 64 << 10, 1 << 10} {
		cl := *fh.cluster
		cl.MapperMemory = mem
		s := block.Choose(&cl, in, fh.choice.Selectivity)
		out[mem] = s
		fprintf(c.Out, "  mem=%-12d → %s\n", mem, s)
	}
	return out, nil
}

type noRulesErr string

func (e noRulesErr) Error() string { return "experiments: no rules retained on " + string(e) }

func errNoRules(name DatasetName) error { return noRulesErr(name) }

// ClusterRow is one cluster-size measurement.
type ClusterRow struct {
	Nodes   int
	Machine time.Duration
}

// ClusterSweep varies cluster size 5→20 nodes (§11.4's additional
// experiment) and reports machine time.
func (c Config) ClusterSweep(name DatasetName) ([]ClusterRow, error) {
	c = c.WithDefaults()
	fprintf(c.Out, "Cluster-size sweep (%s)\n", name)
	var rows []ClusterRow
	for _, nodes := range []int{5, 10, 15, 20} {
		cc := c
		cc.Nodes = nodes
		rs, err := cc.RunOnce(name, 1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ClusterRow{Nodes: nodes, Machine: rs.Machine})
		fprintf(c.Out, "  %2d nodes → machine %s\n", nodes, metrics.FmtDuration(rs.Machine))
	}
	return rows, nil
}

// SampleSweepRow is one sample-size measurement.
type SampleSweepRow struct {
	SampleN int
	F1      float64
	Total   time.Duration
	Cost    float64
}

// SampleSweep varies the sample size ×0.5/×1/×2 (§11.4).
func (c Config) SampleSweep(name DatasetName) ([]SampleSweepRow, error) {
	c = c.WithDefaults()
	fprintf(c.Out, "Sample-size sweep (%s)\n", name)
	base := c.sampleSize(c.Generate(name, c.Seed+7).B.Len())
	var rows []SampleSweepRow
	for _, mult := range []float64{0.5, 1, 2} {
		cc := c
		cc.SampleN = int(float64(base) * mult)
		rs, err := cc.RunOnce(name, 1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SampleSweepRow{SampleN: cc.SampleN, F1: rs.Score.F1, Total: rs.Total, Cost: rs.Cost})
		fprintf(c.Out, "  n=%-8d F1=%.1f%% total=%s cost=%.2f$\n", cc.SampleN, rs.Score.F1*100, metrics.FmtDuration(rs.Total), rs.Cost)
	}
	return rows, nil
}

// IterCapRow is one iteration-cap measurement.
type IterCapRow struct {
	Cap   int
	F1    float64
	Total time.Duration
}

// IterCapSweep varies the active-learning iteration cap (§11.4: 30→100).
func (c Config) IterCapSweep(name DatasetName) ([]IterCapRow, error) {
	c = c.WithDefaults()
	fprintf(c.Out, "Iteration-cap sweep (%s)\n", name)
	var rows []IterCapRow
	for _, k := range []int{6, 12, 24, 48} {
		cc := c
		cc.ALIter = k
		rs, err := cc.RunOnce(name, 1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, IterCapRow{Cap: k, F1: rs.Score.F1, Total: rs.Total})
		fprintf(c.Out, "  k=%-3d F1=%.1f%% total=%s\n", k, rs.Score.F1*100, metrics.FmtDuration(rs.Total))
	}
	return rows, nil
}

// KBBRow compares key-based and sorted-neighborhood blocking against
// learned rule-based blocking recall (§3.2 and the related-work baselines).
type KBBRow struct {
	Dataset   DatasetName
	KBBRecall float64
	SNBRecall float64
	SNBCands  int
	RBBRecall float64
	KBBKey    string
}

// KBB measures the best single-attribute key-based blocking recall against
// Falcon's learned rule-based blocking recall.
func (c Config) KBB() ([]KBBRow, error) {
	c = c.WithDefaults()
	fprintf(c.Out, "Key-based vs rule-based blocking recall (§3.2)\n")
	var rows []KBBRow
	for _, name := range AllDatasets {
		rs, err := c.RunOnce(name, 1)
		if err != nil {
			return nil, err
		}
		d := rs.Data
		row := KBBRow{Dataset: name, RBBRecall: metrics.BlockingRecall(rs.Result.Candidates, d.Truth)}
		// Best exact-match key over shared string attributes, restricted to
		// *usable* keys: a key whose blocks cover more than 5% of A×B does
		// no blocking at all (e.g. a category column).
		maxCand := int64(d.A.Len()) * int64(d.B.Len()) / 20
		for _, attr := range d.A.Schema.Attrs {
			bCol := d.B.Schema.Col(attr.Name)
			if bCol < 0 || attr.Type != table.String {
				continue
			}
			aCol := d.A.Schema.Col(attr.Name)
			if kbbCandidates(d, aCol, bCol) > maxCand {
				continue
			}
			rec := kbbRecall(d, aCol, bCol)
			if rec > row.KBBRecall {
				row.KBBRecall = rec
				row.KBBKey = attr.Name
			}
		}
		// Sorted-neighborhood baseline on the same key, window 10.
		if row.KBBKey != "" {
			aCol := d.A.Schema.Col(row.KBBKey)
			bCol := d.B.Schema.Col(row.KBBKey)
			snb := block.SortedNeighborhood(d.A, d.B, aCol, bCol, 10)
			row.SNBRecall = metrics.BlockingRecall(snb, d.Truth)
			row.SNBCands = len(snb)
		}
		rows = append(rows, row)
		fprintf(c.Out, "  %-11s KBB(best key=%s)=%.1f%%  SNB(w=10)=%.1f%%  RBB=%.1f%%\n",
			name, row.KBBKey, row.KBBRecall*100, row.SNBRecall*100, row.RBBRecall*100)
	}
	return rows, nil
}

// kbbCandidates counts the pairs a key-based blocker would produce.
func kbbCandidates(d *datagen.Dataset, aCol, bCol int) int64 {
	cntA := map[string]int64{}
	for i := 0; i < d.A.Len(); i++ {
		v := strings.ToLower(strings.TrimSpace(d.A.Value(i, aCol)))
		if v != "" {
			cntA[v]++
		}
	}
	var total int64
	for i := 0; i < d.B.Len(); i++ {
		v := strings.ToLower(strings.TrimSpace(d.B.Value(i, bCol)))
		if v != "" {
			total += cntA[v]
		}
	}
	return total
}

// kbbRecall is the fraction of true matches sharing an exact key value.
func kbbRecall(d *datagen.Dataset, aCol, bCol int) float64 {
	if len(d.Truth) == 0 {
		return 1
	}
	hit := 0
	for p := range d.Truth {
		av := strings.ToLower(strings.TrimSpace(d.A.Value(p.A, aCol)))
		bv := strings.ToLower(strings.TrimSpace(d.B.Value(p.B, bCol)))
		if av != "" && av == bv {
			hit++
		}
	}
	return float64(hit) / float64(len(d.Truth))
}

// RuleSeqRow compares rule-sequence choices (§11.2's sel_opt_seq study).
type RuleSeqRow struct {
	Variant    string
	Recall     float64
	SimTime    time.Duration
	Candidates int
}

// RuleSeq compares the optimal sequence against all-rules, top-1, and
// top-3 orderings.
func (c Config) RuleSeq(name DatasetName) ([]RuleSeqRow, error) {
	c = c.WithDefaults()
	fh, err := c.runFrontHalf(name)
	if err != nil {
		return nil, err
	}
	if len(fh.retained) == 0 {
		return nil, errNoRules(name)
	}
	variants := map[string][]rulesel.EvaluatedRule{
		"optimal": fh.choice.Seq,
		"all":     fh.retained,
	}
	variants["top-1"] = fh.retained[:1]
	if len(fh.retained) >= 3 {
		variants["top-3"] = fh.retained[:3]
	}
	fprintf(c.Out, "Rule-sequence comparison on %s\n", name)
	var rows []RuleSeqRow
	for _, v := range []string{"optimal", "all", "top-1", "top-3"} {
		seq, ok := variants[v]
		if !ok {
			continue
		}
		in, err := fh.blockInput(seq)
		if err != nil {
			return nil, err
		}
		res, err := block.Run(context.Background(), fh.cluster, in, block.ApplyAll)
		if err != nil {
			return nil, err
		}
		row := RuleSeqRow{
			Variant:    v,
			Recall:     metrics.BlockingRecall(res.Pairs, fh.d.Truth),
			SimTime:    res.SimTime,
			Candidates: len(res.Pairs),
		}
		rows = append(rows, row)
		fprintf(c.Out, "  %-8s recall=%.2f%% time=%s cands=%d\n",
			v, row.Recall*100, metrics.FmtDuration(row.SimTime), row.Candidates)
	}
	return rows, nil
}

// CostCap prints and returns the §3.4 crowd-cost cap.
func (c Config) CostCap() float64 {
	c = c.WithDefaults()
	cap := crowd.CostCap(crowd.DefaultCapParams())
	fprintf(c.Out, "Crowd cost cap C_max = $%.2f (paper: $349.60)\n", cap)
	return cap
}

// DrugsRow reports the §11.1 drug-matching deployment reproduction.
type DrugsRow struct {
	Score            metrics.PRF1
	CrowdTime        time.Duration
	MachineUnmasked  time.Duration
	MachineNoMasking time.Duration
	Reduction        float64
	Labeled          int
}

// DrugsStudy runs the drug-matching workload with an in-house crowd of one
// and measures the masking reduction of machine time.
func (c Config) DrugsStudy() (*DrugsRow, error) {
	c = c.WithDefaults()
	d := c.Generate(Drugs, c.Seed+7)
	run := func(mask bool) (*core.Result, error) {
		opt := c.Options(c.Seed + 101)
		opt.Platform = crowd.InHouse{Latency: 20 * time.Second}
		if !mask {
			opt.MaskIndexBuild, opt.Speculative, opt.MaskedSelection = false, false, false
		}
		return coreRun(d, opt)
	}
	masked, err := run(true)
	if err != nil {
		return nil, err
	}
	unmasked, err := run(false)
	if err != nil {
		return nil, err
	}
	row := &DrugsRow{
		Score:            metrics.Score(masked.Matches, d.Truth),
		CrowdTime:        masked.Timeline.CrowdTime,
		MachineUnmasked:  masked.Timeline.UnmaskedMachine,
		MachineNoMasking: unmasked.Timeline.UnmaskedMachine,
		Labeled:          masked.Questions,
	}
	if row.MachineNoMasking > 0 {
		row.Reduction = 1 - float64(row.MachineUnmasked)/float64(row.MachineNoMasking)
	}
	fprintf(c.Out, "Drug matching (in-house crowd of 1): %v, %d pairs labeled\n", row.Score, row.Labeled)
	fprintf(c.Out, "  crowd time %s, machine %s (no masking: %s, reduction %.0f%%)\n",
		metrics.FmtDuration(row.CrowdTime), metrics.FmtDuration(row.MachineUnmasked),
		metrics.FmtDuration(row.MachineNoMasking), row.Reduction*100)
	return row, nil
}
