package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"falcon/internal/block"
	"falcon/internal/crowd"
	"falcon/internal/estimate"
	"falcon/internal/feature"
	"falcon/internal/filters"
	"falcon/internal/forest"
	"falcon/internal/learn"
	"falcon/internal/mapreduce"
	"falcon/internal/model"
	"falcon/internal/rules"
	"falcon/internal/rulesel"
	"falcon/internal/sample"
	"falcon/internal/table"
	"falcon/internal/tokenize"
	"falcon/internal/vclock"
)

// ErrCartesianTooLarge reports a matcher-only plan over a product too big
// to materialize.
var ErrCartesianTooLarge = errors.New("core: matcher-only plan needs to materialize an A×B that is too large")

// matcherOnlyPairCap bounds the Cartesian product a matcher-only plan will
// materialize in-process.
const matcherOnlyPairCap = 5_000_000

// runState carries everything a plan execution threads through.
type runState struct {
	opt    Options
	a, b   *table.Table
	oracle learn.Oracle
	cr     *crowd.Crowd
	tl     *vclock.Timeline
	set    *feature.Set
	vz     *feature.Vectorizer
	res    *Result
	ix     *filters.Indexes
	// modelSeq / modelSel capture the chosen rule sequence for the
	// exportable model.
	modelSeq []rules.Rule
	modelSel []float64
	// indexDurTotal accumulates index-build durations (masked or not) so
	// the unoptimized blocking time (Table 4's parenthetical) can be
	// reported.
	indexDurTotal time.Duration
}

// Run executes the hands-off EM workflow with a background context; see
// RunContext.
func Run(a, b *table.Table, oracle learn.Oracle, opt Options) (*Result, error) {
	return RunContext(context.Background(), a, b, oracle, opt)
}

// RunContext executes the hands-off EM workflow over tables a and b: the
// train phase (TrainContext) followed by the batch apply that the matching
// stage performs through the same artifact path the serving layer
// consumes. It is kept as the batch entry point; the train/serve split
// lives in TrainContext (produce an artifact) and
// model.MatcherArtifact.ApplyContext / internal/serve (consume one).
func RunContext(ctx context.Context, a, b *table.Table, oracle learn.Oracle, opt Options) (*Result, error) {
	return TrainContext(ctx, a, b, oracle, opt)
}

// TrainContext is the train half of the train/serve split: sampling, rule
// selection, forest training, and — on success — assembly of the complete
// serving artifact (Result.Artifact) carrying the model plus the frozen
// dictionaries, corpora, B-row ID sets, and prefix indexes over B. The
// oracle supplies ground truth consumed only by the simulated crowd
// platform. Cancellation propagates into every plan stage — cluster jobs
// stop between records, crowd waits between questions — and TrainContext
// returns ctx.Err().
func TrainContext(ctx context.Context, a, b *table.Table, oracle learn.Oracle, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	st := &runState{
		opt:    opt,
		a:      a,
		b:      b,
		oracle: oracle,
		cr:     crowd.New(opt.Platform, opt.CrowdCfg),
		tl:     vclock.New(),
		res:    &Result{},
	}
	st.set = feature.Generate(a, b)
	if len(st.set.Features) == 0 {
		return nil, fmt.Errorf("core: no attribute correspondences between %s and %s", a.Name, b.Name)
	}
	st.vz = feature.NewVectorizer(st.set, a, b)
	st.ix = filters.NewIndexes(opt.Cluster, a)

	// Plan-template choice (§10.1): block unless A×B encoded as feature
	// vectors fits in node memory.
	useBlocking := estimateVectorBytes(a.Len(), b.Len(), len(st.set.Features)) > nodeMemory(opt.Cluster)
	if opt.ForceBlocking != nil {
		useBlocking = *opt.ForceBlocking
	}

	if useBlocking {
		if err := st.runBlockingPlan(ctx); err != nil {
			return nil, err
		}
	} else {
		pairs, err := cartesianPairs(a, b, opt.ExcludeSelfPairs)
		if err != nil {
			return nil, err
		}
		st.res.Candidates = pairs
		st.res.UsedBlocking = false
		if err := st.runMatchingStage(ctx, pairs, nil); err != nil {
			return nil, err
		}
	}

	st.res.Timeline = st.tl.Stats()
	st.res.Tasks = st.tl.Tasks()
	if st.res.MatchingForest != nil {
		st.res.Model = model.New(st.set, st.modelSeq, st.modelSel, st.res.MatchingForest)
		st.res.Artifact = BuildArtifact(st.res.Model, st.set, st.vz, st.a, st.b)
	}
	led := st.cr.Ledger()
	st.res.Cost = st.cr.TotalCost()
	st.res.Questions = led.Questions
	if err := st.cr.CheckBudget(opt.Budget); err != nil {
		return st.res, err
	}
	return st.res, nil
}

func nodeMemory(c *mapreduce.Cluster) int64 {
	if c.MapperMemory > 0 {
		return c.MapperMemory
	}
	return 2 << 30
}

func cartesianPairs(a, b *table.Table, excludeSelf bool) ([]table.Pair, error) {
	n := int64(a.Len()) * int64(b.Len())
	if n > matcherOnlyPairCap {
		return nil, ErrCartesianTooLarge
	}
	out := make([]table.Pair, 0, n)
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			if excludeSelf && i == j {
				continue
			}
			out = append(out, table.Pair{A: i, B: j})
		}
	}
	return out, nil
}

// dropSelfPairs filters (i,i) pairs from a candidate list.
func dropSelfPairs(pairs []table.Pair) []table.Pair {
	out := pairs[:0]
	for _, p := range pairs {
		if p.A != p.B {
			out = append(out, p)
		}
	}
	return out
}

// simDuration converts cost units into modeled cluster time using the
// cluster's cost model (for in-process computations that stand for MR
// jobs, like rule-coverage ranking).
func simDuration(c *mapreduce.Cluster, units int64) time.Duration {
	costUnit := c.CostUnit
	if costUnit <= 0 {
		costUnit = 25 * time.Microsecond
	}
	overhead := c.JobOverhead
	if overhead <= 0 {
		overhead = 5 * time.Second
	}
	slots := int64(c.Slots())
	return overhead + time.Duration(units/slots)*costUnit
}

// scheduleALTrace schedules an al_matcher run's iterations on the timeline,
// filling crowd windows from the background queue. Masked selections run in
// parallel with the crowd; unmasked selections gate the next crowd batch.
func (st *runState) scheduleALTrace(op string, trace []learn.IterTrace, bg *bgQueue, startDep *vclock.Task) (lastCrowd *vclock.Task) {
	prev := startDep
	for _, tr := range trace {
		machineDur := tr.Selection + tr.Training
		if tr.CrowdLatency == 0 {
			if machineDur > 0 {
				prev = st.tl.Schedule(op+"/select", op, vclock.Cluster, machineDur, prev)
			}
			continue
		}
		var crowdTask *vclock.Task
		if tr.SelectionMasked {
			// Crowd proceeds without waiting; selection overlaps it.
			crowdTask = st.tl.Schedule(op+"/label", op, vclock.Crowd, tr.CrowdLatency, startDep)
			if machineDur > 0 {
				st.tl.Schedule(op+"/select", op, vclock.Cluster, machineDur)
			}
		} else {
			sel := prev
			if machineDur > 0 {
				sel = st.tl.Schedule(op+"/select", op, vclock.Cluster, machineDur, prev)
			}
			crowdTask = st.tl.Schedule(op+"/label", op, vclock.Crowd, tr.CrowdLatency, sel)
		}
		lastCrowd = crowdTask
		prev = crowdTask
		if bg != nil {
			bg.fillWindow(crowdTask.End)
		}
	}
	return lastCrowd
}

// specResult records one speculatively executed blocking rule.
type specResult struct {
	ruleID int
	kept   int64 // estimated surviving pairs of the single-rule job
	task   *vclock.Task
	killed bool
}

// blockingPlan carries the intermediates flowing between the blocking
// plan's stages. Each stage fills the fields later stages consume.
type blockingPlan struct {
	// stageSamplePairs
	pairs      []table.Pair
	sampleTask *vclock.Task
	// stageSampleFVs
	vecs       []feature.Vector
	sampleVecs [][]float64
	fvTask     *vclock.Task
	// stageBlockingMatcher
	bg          *bgQueue
	alRes       *learn.Result
	lastALCrowd *vclock.Task
	// stageExtractRules
	cands       []rules.Rule
	extractTask *vclock.Task
	feats       []*feature.Feature
	// stageEvalRules
	evalRes       *rulesel.EvalResult
	evalCrowdEnd  time.Duration
	lastEvalCrowd *vclock.Task
	// stageApplyBlocking
	blockTask *vclock.Task
	// fallback marks that the plan degrades to matcher-only (no rules
	// learned or none retained).
	fallback bool
}

// runBlockingPlan executes the Figure-3.a plan template as explicit stages,
// checking ctx between stages (each stage also honors ctx inside its
// cluster jobs and crowd waits).
func (st *runState) runBlockingPlan(ctx context.Context) error {
	st.res.UsedBlocking = true
	p := &blockingPlan{}
	stages := []func(context.Context, *blockingPlan) error{
		st.stageSamplePairs,
		st.stageSampleFVs,
		st.stageBlockingMatcher,
		st.stageExtractRules,
		st.stageEvalRules,
		st.stageApplyBlocking,
	}
	for _, stage := range stages {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := stage(ctx, p); err != nil {
			return err
		}
		if p.fallback {
			return st.fallbackToMatcherOnly(ctx)
		}
	}
	// ---- matching stage over the candidates ----
	return st.runMatchingStage(ctx, st.res.Candidates, p.blockTask)
}

// stageSamplePairs runs sample_pairs (§5) over A×B.
func (st *runState) stageSamplePairs(ctx context.Context, p *blockingPlan) error {
	opt := st.opt
	pairs, sampleDur, err := sample.Pairs(ctx, opt.Cluster, st.a, st.b, sample.Config{
		N: opt.SampleN, Y: opt.SampleY, Seed: opt.Seed, ExcludeSelf: opt.ExcludeSelfPairs,
	})
	if err != nil {
		return err
	}
	if len(pairs) == 0 {
		return fmt.Errorf("core: sample_pairs produced no pairs")
	}
	p.pairs = pairs
	p.sampleTask = st.tl.Schedule(opSamplePairs, opSamplePairs, vclock.Cluster, sampleDur)
	return nil
}

// stageSampleFVs runs gen_fvs over the sample (blocking features only).
func (st *runState) stageSampleFVs(ctx context.Context, p *blockingPlan) error {
	vecs, fvDur, err := genFVsMR(ctx, st.opt.Cluster, st.vz, p.pairs, true)
	if err != nil {
		return err
	}
	p.vecs = vecs
	p.sampleVecs = make([][]float64, len(vecs))
	for i, v := range vecs {
		p.sampleVecs[i] = v.Values
	}
	p.fvTask = st.tl.Schedule(opGenFVs, opGenFVs, vclock.Cluster, fvDur, p.sampleTask)
	return nil
}

// stageBlockingMatcher crowdsources the blocking-stage matcher with
// al_matcher over the sample, masking generic index builds into its crowd
// windows (§10.2 opt 1).
func (st *runState) stageBlockingMatcher(ctx context.Context, p *blockingPlan) error {
	opt := st.opt
	p.bg = newBGQueue(st.tl)
	if opt.MaskIndexBuild {
		st.enqueueGenericIndexJobs(ctx, p.bg)
	}

	pool := make([]learn.Item, len(p.vecs))
	for i, v := range p.vecs {
		pool[i] = learn.Item{Pair: v.Pair, Vec: v.Values}
	}
	learner := learn.New(opt.Cluster, st.cr, st.oracle, learn.Config{
		MaxIterations: opt.ALIterations,
		Forest:        withSeed(opt.Forest, opt.Seed+10),
		SeedScore:     st.seedScoreBlocking(),
	})
	alRes, err := learner.Run(ctx, pool)
	if err != nil {
		return err
	}
	if alRes.Forest == nil {
		return fmt.Errorf("core: blocking-stage active learning produced no matcher")
	}
	p.alRes = alRes
	st.res.BlockingForest = alRes.Forest
	p.lastALCrowd = st.scheduleALTrace(opALMatcherB, alRes.Trace, p.bg, p.fvTask)
	return nil
}

// stageExtractRules runs get_blocking_rules on the blocking forest.
func (st *runState) stageExtractRules(_ context.Context, p *blockingPlan) error {
	p.cands = rules.Extract(p.alRes.Forest)
	st.res.CandidateRules = len(p.cands)
	p.extractTask = st.tl.Schedule(opGetBlockRules, opGetBlockRules, vclock.Cluster,
		2*time.Second+time.Duration(len(p.cands))*10*time.Millisecond, p.lastALCrowd)
	p.feats = blockingFeaturePtrs(st.set)
	if len(p.cands) == 0 {
		p.fallback = true
	}
	return nil
}

// stageEvalRules estimates candidate-rule precision with the crowd
// (eval_rules, §3.4).
func (st *runState) stageEvalRules(ctx context.Context, p *blockingPlan) error {
	opt := st.opt
	evalCfg := opt.EvalCfg
	evalCfg.Seed = opt.Seed + 20
	timer := ruleTimer(p.feats)
	evalRes, err := rulesel.EvalRules(ctx, p.cands, p.pairs, p.sampleVecs, st.cr,
		func(pr table.Pair) bool { return st.oracle(pr) }, timer, evalCfg)
	if err != nil {
		return err
	}
	p.evalRes = evalRes
	st.res.RetainedRules = len(evalRes.Retained)
	// Coverage ranking is a cluster job over all candidates × sample.
	rankDur := simDuration(opt.Cluster, int64(len(p.cands))*int64(len(p.vecs)))
	rankTask := st.tl.Schedule(opEvalRules+"/rank", opEvalRules, vclock.Cluster, rankDur, p.extractTask)
	p.evalCrowdEnd = rankTask.End
	p.lastEvalCrowd = rankTask
	for _, tr := range evalRes.Trace {
		if tr.CrowdLatency == 0 {
			continue
		}
		p.lastEvalCrowd = st.tl.Schedule(opEvalRules+"/label", opEvalRules, vclock.Crowd, tr.CrowdLatency, p.lastEvalCrowd)
		p.evalCrowdEnd = p.lastEvalCrowd.End
	}
	if len(evalRes.Retained) == 0 {
		p.fallback = true
	}
	return nil
}

// stageApplyBlocking picks the optimal rule sequence (select_opt_seq, §6),
// builds the indexes it needs, speculatively executes rules inside the
// eval_rules crowd window (§10.2 opt 2), chooses the physical operator
// (§10.1), and runs apply_blocking_rules.
func (st *runState) stageApplyBlocking(ctx context.Context, p *blockingPlan) error {
	opt := st.opt
	res := st.res

	// ---- select_opt_seq ----
	choice := rulesel.SelectOptSeq(p.evalRes.Retained, len(p.vecs), opt.Weights)
	res.RuleChoice = choice
	seq := choice.RuleSeq()

	// Rule-specific index building during eval_rules' crowd time: we know
	// the evaluated rule set, so build indexes for all of its predicates.
	allEvaluated := make([]rules.Rule, 0, len(p.evalRes.Retained))
	for _, er := range p.evalRes.Retained {
		allEvaluated = append(allEvaluated, er.Rule)
	}
	evalAnalysis := filters.Analyze(rules.ToCNF(allEvaluated), p.feats)
	finalAnalysis := filters.Analyze(rules.ToCNF(seq), p.feats)
	neededFinal := finalAnalysis.NeededIndexes()

	if opt.MaskIndexBuild {
		st.enqueueSpecIndexJobs(ctx, p.bg, evalAnalysis.NeededIndexes())
		p.bg.fillWindow(p.evalCrowdEnd)
	}

	// Speculative rule execution (§10.2 opt 2, Algorithm 2): execute rules
	// one by one in evaluation order while eval_rules crowdsources; jobs
	// that complete before the crowd finishes can be reused.
	clauseSel := make([]float64, len(seq))
	for i, er := range choice.Seq {
		clauseSel[i] = er.Selectivity
	}
	input := &block.Input{
		A: st.a, B: st.b,
		Analysis:    finalAnalysis,
		Indexes:     st.ix,
		Vectorizer:  st.vz,
		ClauseSel:   clauseSel,
		PassIDsOnly: opt.PassIDsOnly,
	}
	var specs []specResult
	var err error
	if opt.Speculative {
		specs, err = st.speculateRules(ctx, p.bg, p.evalRes.Retained, p.feats, p.evalCrowdEnd)
		if err != nil {
			return err
		}
		// The crowd has finished when select_opt_seq runs: kill the (at
		// most one) speculative job still in flight — Algorithm 2's
		// fallback branch. This must happen before anything else lands on
		// the cluster.
		for i := range specs {
			if specs[i].task.End > p.evalCrowdEnd {
				st.tl.Truncate(specs[i].task, p.evalCrowdEnd)
				specs[i].killed = true
			}
		}
	}

	selTask := st.tl.Schedule(opSelOptSeq, opSelOptSeq, vclock.Cluster, 100*time.Millisecond, p.lastEvalCrowd)

	// ---- apply_blocking_rules ----
	// Ensure every index the final rule needs exists (computationally);
	// foreground-schedule only the ones masking didn't already build.
	if err := st.ensureForeground(ctx, neededFinal, opt.MaskIndexBuild, p.bg); err != nil {
		return err
	}

	st.modelSeq = seq
	st.modelSel = clauseSel
	strategy := block.Choose(opt.Cluster, input, choice.Selectivity)
	if opt.ForceStrategy != nil {
		strategy = *opt.ForceStrategy
	}
	res.Strategy = strategy
	full, err := block.Run(ctx, opt.Cluster, input, strategy)
	if err != nil {
		return err
	}
	res.Candidates = full.Pairs
	if opt.ExcludeSelfPairs {
		res.Candidates = dropSelfPairs(res.Candidates)
	}
	res.UnoptimizedBlockTime = st.indexDurTotal + full.SimTime

	if reuseTask := st.reuseSpeculative(specs, seq, full.SimTime, p.evalCrowdEnd, selTask); reuseTask != nil {
		res.SpecRuleHit = true
		p.blockTask = reuseTask
	} else {
		p.blockTask = st.tl.Schedule(opApplyRules, opApplyRules, vclock.Cluster, full.SimTime, selTask)
	}
	return nil
}

// enqueueGenericIndexJobs builds the rule-independent indexes (token
// orderings, hash indexes, tree indexes) and queues their durations as
// maskable background work.
func (st *runState) enqueueGenericIndexJobs(ctx context.Context, bg *bgQueue) {
	seenOrd := map[string]bool{}
	for _, fi := range st.set.BlockingIdx {
		f := &st.set.Features[fi]
		switch {
		case f.Measure.SetBased() || f.Measure.String() == "levenshtein":
			key := orderingKey(f.ACol, f.Token)
			if f.Token == "" || seenOrd[key] {
				continue
			}
			seenOrd[key] = true
			d, err := st.ix.EnsureOrdering(ctx, f.ACol, f.Token)
			if err == nil && d > 0 {
				st.indexDurTotal += d
				bg.enqueue(bgJob{name: "index/ordering", op: opApplyRules, dur: d, key: key})
			}
		case f.Measure.NumericBased():
			d, err := st.ix.EnsureTree(ctx, f.ACol)
			if err == nil && d > 0 {
				st.indexDurTotal += d
				bg.enqueue(bgJob{name: "index/tree", op: opApplyRules, dur: d,
					key: filters.IndexSpec{Kind: filters.Range, ACol: f.ACol}.Key()})
			}
		default: // exact_match
			d, err := st.ix.EnsureHash(ctx, f.ACol)
			if err == nil && d > 0 {
				st.indexDurTotal += d
				bg.enqueue(bgJob{name: "index/hash", op: opApplyRules, dur: d,
					key: filters.IndexSpec{Kind: filters.Equivalence, ACol: f.ACol}.Key()})
			}
		}
	}
}

// enqueueSpecIndexJobs builds predicate-specific indexes for the evaluated
// rules and queues their durations.
func (st *runState) enqueueSpecIndexJobs(ctx context.Context, bg *bgQueue, specs []filters.IndexSpec) {
	for _, spec := range specs {
		d, err := st.ix.EnsureSpec(ctx, spec)
		if err != nil || d == 0 {
			continue
		}
		st.indexDurTotal += d
		bg.enqueue(bgJob{name: "index/" + spec.Kind.String(), op: opApplyRules, dur: d, key: spec.Key()})
	}
}

// ensureForeground builds any indexes the final sequence still needs and
// schedules their durations as foreground cluster tasks. When masking was
// on, queued-but-unscheduled index jobs for the final rules drain here;
// pending builds for predicates the final sequence dropped are cancelled.
func (st *runState) ensureForeground(ctx context.Context, needed []filters.IndexSpec, masked bool, bg *bgQueue) error {
	if masked && bg.pending() {
		neededKeys := map[string]bool{}
		for _, spec := range needed {
			neededKeys[spec.Key()] = true
			if spec.Kind == filters.PrefixSet || spec.Kind == filters.ShareGram {
				neededKeys[orderingKey(spec.ACol, spec.Token)] = true
			}
		}
		bg.drainNeeded(neededKeys)
	}
	for _, spec := range needed {
		d, err := st.ix.EnsureSpec(ctx, spec)
		if err != nil {
			return err
		}
		if d > 0 {
			st.indexDurTotal += d
			st.tl.Schedule("index/"+spec.Kind.String(), opApplyRules, vclock.Cluster, d)
		}
	}
	return nil
}

// speculateRules models the §10.2(2) speculative execution of evaluated
// rules, one at a time (most promising first), inside eval_rules' crowd
// window. Job durations come from the cluster cost model and the rules'
// sample selectivities; the actual candidate set is produced once by the
// full blocking run, so no work is duplicated in-process.
func (st *runState) speculateRules(ctx context.Context, bg *bgQueue, retained []rulesel.EvaluatedRule, feats []*feature.Feature, crowdEnd time.Duration) ([]specResult, error) {
	var out []specResult
	maxSpec := st.opt.SpeculativeRuleCap
	cart := int64(st.a.Len()) * int64(st.b.Len())
	for i, er := range retained {
		if i >= maxSpec {
			break
		}
		if st.tl.ResourceFree(vclock.Cluster) >= crowdEnd {
			break // nothing more can even start inside the window
		}
		an := filters.Analyze(rules.ToCNF([]rules.Rule{er.Rule}), feats)
		// Any index the speculative job needs and masking has not yet
		// built is built as part of the job, so its time counts here.
		ixDur, err := st.ix.EnsureAll(ctx, an.NeededIndexes())
		if err != nil {
			return nil, err
		}
		st.indexDurTotal += ixDur
		kept := int64(er.Selectivity * float64(cart))
		units := int64(st.b.Len())*specProbeCost + kept*int64(len(er.Rule.Preds)+1)
		dur := ixDur + simDuration(st.opt.Cluster, units)
		task := st.tl.Schedule(fmt.Sprintf("spec-rule-%d", er.Rule.ID), opApplyRules, vclock.Cluster, dur)
		out = append(out, specResult{ruleID: er.Rule.ID, kept: kept, task: task})
	}
	return out, nil
}

// specProbeCost is the modeled index-probe cost per B tuple in a
// speculative single-rule job.
const specProbeCost = 20

// reuseSpeculative implements Algorithm 2's decision: if any rule of the
// chosen sequence finished speculatively before the crowd did, reuse the
// smallest completed output and apply the remaining rules to it in a
// map-only job; kill any in-flight speculative job.
func (st *runState) reuseSpeculative(specs []specResult, seq []rules.Rule, fullDur time.Duration, crowdEnd time.Duration, dep *vclock.Task) *vclock.Task {
	if len(specs) == 0 {
		return nil
	}
	inSeq := map[int]bool{}
	for _, r := range seq {
		inSeq[r.ID] = true
	}
	var best *specResult
	for i := range specs {
		sp := &specs[i]
		if sp.killed || sp.task.End > crowdEnd {
			continue // killed in flight; partial-result reuse is not modeled
		}
		if !inSeq[sp.ruleID] {
			continue
		}
		if best == nil || sp.kept < best.kept {
			best = sp
		}
	}
	if best == nil {
		return nil
	}
	// Apply the remaining rules to the completed output in a map-only job.
	// The result equals full blocking (the completed rule already dropped
	// its share), so the candidates come from the full run and only the
	// map-only time is charged — but only when that beats re-running the
	// blocking job outright (on small inputs the job overhead dominates
	// and reuse buys nothing; the planner falls back, as Algorithm 2's
	// non-reuse branches do).
	units := best.kept * int64(len(seq))
	reuseDur := simDuration(st.opt.Cluster, units)
	if reuseDur >= fullDur {
		return nil
	}
	return st.tl.Schedule(opApplyRules+"/reuse", opApplyRules, vclock.Cluster, reuseDur, dep)
}

// seedScoreBlocking ranks blocking-feature vectors for the seed round:
// the mean of bounded similarity features (distances and missing values
// are skipped, since their magnitudes would swamp the similarities).
func (st *runState) seedScoreBlocking() func([]float64) float64 {
	feats := blockingFeaturePtrs(st.set)
	return similarityMean(func(i int) bool { return feats[i].Measure.Distance() })
}

// seedScoreFull is seedScoreBlocking for the full feature space.
func (st *runState) seedScoreFull() func([]float64) float64 {
	return similarityMean(func(i int) bool { return st.set.Features[i].Measure.Distance() })
}

func similarityMean(isDistance func(i int) bool) func([]float64) float64 {
	return func(vec []float64) float64 {
		sum, n := 0.0, 0
		for i, v := range vec {
			if isDistance(i) || v == feature.Missing {
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

// orderingKey identifies a global-token-ordering build job.
func orderingKey(col int, kind tokenize.Kind) string {
	return fmt.Sprintf("ordering/%d/%s", col, kind)
}

// fallbackToMatcherOnly degrades to the Figure-3.b plan when blocking
// cannot proceed (no rules learned or none retained).
func (st *runState) fallbackToMatcherOnly(ctx context.Context) error {
	pairs, err := cartesianPairs(st.a, st.b, st.opt.ExcludeSelfPairs)
	if err != nil {
		return fmt.Errorf("core: blocking produced no usable rules and %w", err)
	}
	st.res.UsedBlocking = false
	st.res.Candidates = pairs
	return st.runMatchingStage(ctx, pairs, nil)
}

// runMatchingStage runs gen_fvs + al_matcher + apply_matcher over the
// candidate pairs (both plan templates share it).
func (st *runState) runMatchingStage(ctx context.Context, candidates []table.Pair, startDep *vclock.Task) error {
	opt := st.opt
	res := st.res
	if len(candidates) == 0 {
		res.Matches = nil
		return nil
	}

	vecs, fvDur, err := genFVsMR(ctx, opt.Cluster, st.vz, candidates, false)
	if err != nil {
		return err
	}
	fvTask := st.tl.Schedule(opGenFVs2, opGenFVs2, vclock.Cluster, fvDur, startDep)

	pool := make([]learn.Item, len(vecs))
	for i, v := range vecs {
		pool[i] = learn.Item{Pair: v.Pair, Vec: v.Values}
	}
	masked := opt.MaskedSelection && len(pool) >= opt.MaskedSelectionMinPool
	learner := learn.New(opt.Cluster, st.cr, st.oracle, learn.Config{
		MaxIterations: opt.ALIterations,
		Forest:        withSeed(opt.Forest, opt.Seed+30),
		Masked:        masked,
		SeedScore:     st.seedScoreFull(),
	})
	alRes, err := learner.Run(ctx, pool)
	if err != nil {
		return err
	}
	if alRes.Forest == nil {
		return fmt.Errorf("core: matching-stage active learning produced no matcher")
	}
	res.MatchingForest = alRes.Forest
	lastCrowd := st.scheduleALTrace(opALMatcherM, alRes.Trace, nil, fvTask)

	// Apply through an interim artifact so batch Match structurally
	// trains-then-applies along the same path the serving layer consumes.
	matches, applyDur, err := applyArtifactMR(ctx, opt.Cluster, st.interimArtifact(alRes.Forest), vecs)
	if err != nil {
		return err
	}
	res.Matches = matches

	// Speculative matcher execution (§10.2 opt 2): while the final crowd
	// iterations run, apply the best matcher so far to the candidates. If
	// learning had converged, that matcher equals the final one and the
	// foreground application is saved.
	specHit := false
	if opt.Speculative && lastCrowd != nil {
		spec := st.tl.Schedule("spec-matcher", opApplyMatcher, vclock.Cluster, applyDur)
		if alRes.Converged && spec.End <= lastCrowd.End {
			res.SpecMatcherHit = true
			specHit = true
		} else {
			// Miss: the speculative run was wasted; kill what ran past the
			// crowd and apply for real.
			st.tl.Truncate(spec, lastCrowd.End)
		}
	}
	if !specHit {
		st.tl.Schedule(opApplyMatcher, opApplyMatcher, vclock.Cluster, applyDur, lastCrowd)
	}
	return st.runEstimatorAndIterate(ctx, vecs, alRes)
}

// opEstimator tags Accuracy Estimator and iterative-workflow activity.
const opEstimator = "accuracy_estimator"

// runEstimatorAndIterate implements the Corleone extensions of Figure 1:
// the Accuracy Estimator, and (optionally) the full iterative workflow —
// estimate accuracy, crowd-label the most difficult pairs, retrain the
// matcher, re-match, and stop when the estimated accuracy no longer
// improves (paper §3.1; §12 lists the estimator as the next operator).
func (st *runState) runEstimatorAndIterate(ctx context.Context, vecs []feature.Vector, alRes *learn.Result) error {
	opt := st.opt
	res := st.res
	if !opt.EstimateAccuracy && opt.IterateRounds <= 0 {
		return nil
	}

	predictions := func(f *forest.Forest) []estimate.Prediction {
		preds := make([]estimate.Prediction, len(vecs))
		for i, v := range vecs {
			conf := f.Confidence(v.Values)
			preds[i] = estimate.Prediction{Pair: v.Pair, Match: conf > 0.5, Confidence: conf}
		}
		return preds
	}
	estCfg := estimate.Config{Seed: opt.Seed + 40}
	runEstimate := func(f *forest.Forest, round int) (estimate.Accuracy, error) {
		estCfg.Seed = opt.Seed + 40 + int64(round)*31
		acc, err := estimate.MatcherAccuracy(ctx, st.cr, func(p table.Pair) bool { return st.oracle(p) }, predictions(f), estCfg)
		if err != nil {
			return estimate.Accuracy{}, err
		}
		st.tl.Schedule(opEstimator+"/label", opEstimator, vclock.Crowd, acc.CrowdLatency)
		return acc, nil
	}

	f := alRes.Forest
	acc, err := runEstimate(f, 0)
	if err != nil {
		return err
	}
	res.Accuracy = &acc
	res.RoundF1 = []float64{acc.F1}
	if opt.IterateRounds <= 0 {
		return nil
	}

	labeledPairs := map[table.Pair]bool{}
	for _, p := range alRes.LabeledPairs {
		labeledPairs[p] = true
	}
	byPair := map[table.Pair]int{}
	for i, v := range vecs {
		byPair[v.Pair] = i
	}
	training := append([]forest.Example(nil), alRes.Labeled...)
	batch := st.cr.BatchSize()
	const improveDelta = 0.005
	for round := 1; round <= opt.IterateRounds; round++ {
		// Locate the difficult pairs not yet labeled and crowd-label them.
		var fresh []estimate.Prediction
		for _, dp := range estimate.DifficultPairs(predictions(f), len(vecs)) {
			if labeledPairs[dp.Pair] {
				continue
			}
			fresh = append(fresh, dp)
			if len(fresh) == batch {
				break
			}
		}
		if len(fresh) == 0 {
			break
		}
		qs := make([]crowd.Question, len(fresh))
		for i, dp := range fresh {
			qs[i] = crowd.Question{Pair: dp.Pair, Truth: st.oracle(dp.Pair)}
		}
		labels, lat, err := st.cr.LabelMajorityContext(ctx, qs)
		if err != nil {
			return err
		}
		labelTask := st.tl.Schedule(opEstimator+"/difficult", opEstimator, vclock.Crowd, lat)
		for i, dp := range fresh {
			labeledPairs[dp.Pair] = true
			training = append(training, forest.Example{Values: vecs[byPair[dp.Pair]].Values, Label: labels[i]})
		}

		// Retrain and re-apply the matcher.
		cand := forest.Train(training, withSeed(opt.Forest, opt.Seed+50+int64(round)))
		matches, applyDur, err := applyArtifactMR(ctx, opt.Cluster, st.interimArtifact(cand), vecs)
		if err != nil {
			return err
		}
		st.tl.Schedule(opApplyMatcher+"/iterate", opEstimator, vclock.Cluster, applyDur, labelTask)

		newAcc, err := runEstimate(cand, round)
		if err != nil {
			return err
		}
		res.RoundF1 = append(res.RoundF1, newAcc.F1)
		if newAcc.F1 <= acc.F1+improveDelta {
			break // estimated accuracy no longer improves
		}
		// Accept the improved matcher.
		f = cand
		acc = newAcc
		res.Accuracy = &acc
		res.MatchingForest = cand
		res.Matches = matches
	}
	return nil
}

func withSeed(cfg forest.Config, seed int64) forest.Config {
	cfg.Seed = seed
	return cfg
}
