// Package falcon provides hands-off crowdsourced entity matching as a
// library — a from-scratch reproduction of "Falcon: Scaling Up Hands-Off
// Crowdsourced Entity Matching to Build Cloud Services" (SIGMOD 2017).
//
// Given two tables A and B, Falcon finds all pairs of rows that refer to
// the same real-world entity, with no developer in the loop: blocking
// rules and matchers are learned by asking a crowd (or any Labeler) to
// label a bounded number of row pairs. The EM task compiles to an
// RDBMS-style plan of eight operators executed over a simulated Hadoop
// cluster, and machine work is masked inside crowd-wait time.
//
// Quickstart:
//
//	a, _ := falcon.ReadCSVFile("a.csv")
//	b, _ := falcon.ReadCSVFile("b.csv")
//	report, err := falcon.Match(a, b, myLabeler,
//	    falcon.WithBudget(300),
//	    falcon.WithSeed(1))
//	for _, m := range report.Matches { ... }
//
// The Labeler answers "do these two rows match?" — a Mechanical-Turk-style
// simulated crowd (with configurable error rate and HIT latency) wraps it
// by default, reproducing the paper's crowdsourcing mechanics: 10-question
// HITs, majority and strong-majority voting, 2¢ per answer, and the §3.4
// cost cap.
package falcon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"falcon/internal/block"
	"falcon/internal/core"
	"falcon/internal/crowd"
	"falcon/internal/mapreduce"
	"falcon/internal/model"
	"falcon/internal/table"
	"falcon/internal/vclock"
)

// Table is a named relation loaded from CSV or built row by row.
type Table struct {
	t *table.Table
}

// NewTable creates an empty table with the given column names.
func NewTable(name string, columns ...string) *Table {
	return &Table{t: table.New(name, table.NewSchema(columns...))}
}

// Append adds a row. It panics if the value count does not match the
// column count.
func (t *Table) Append(values ...string) { t.t.Append(values...) }

// Len returns the number of rows.
func (t *Table) Len() int { return t.t.Len() }

// Name returns the table name.
func (t *Table) Name() string { return t.t.Name }

// Columns returns the column names.
func (t *Table) Columns() []string { return t.t.Schema.Names() }

// Row returns a copy of row i's values.
func (t *Table) Row(i int) []string {
	return append([]string(nil), t.t.Tuples[i].Values...)
}

// ReadCSV parses a table (header row + records) from r.
func ReadCSV(r io.Reader, name string) (*Table, error) {
	t, err := table.ReadCSV(r, name)
	if err != nil {
		return nil, err
	}
	return &Table{t: t}, nil
}

// ReadCSVFile parses a table from a CSV file.
func ReadCSVFile(path string) (*Table, error) {
	t, err := table.ReadCSVFile(path)
	if err != nil {
		return nil, err
	}
	return &Table{t: t}, nil
}

// Internal returns the underlying table for advanced integrations (cmd,
// benchmarks); most users never need it.
func (t *Table) Internal() *table.Table { return t.t }

// WrapTable adopts an internal table as a public Table.
func WrapTable(t *table.Table) *Table { return &Table{t: t} }

// Labeler answers match questions about raw row values. It stands in for
// the ground truth behind the crowd: simulated workers perturb its answers
// with their error rate.
type Labeler interface {
	Label(aRow, bRow []string) bool
}

// LabelerFunc adapts a function to the Labeler interface.
type LabelerFunc func(aRow, bRow []string) bool

// Label implements Labeler.
func (f LabelerFunc) Label(a, b []string) bool { return f(a, b) }

// Pair identifies one predicted match by row indexes into A and B.
type Pair struct {
	ARow, BRow int
}

// OperatorTime is the crowd/machine time split of one plan operator.
type OperatorTime struct {
	Crowd   time.Duration
	Machine time.Duration
}

// Report is the outcome of a Match run.
type Report struct {
	// Matches are the predicted matching row pairs.
	Matches []Pair
	// CandidatePairs is the number of pairs surviving blocking.
	CandidatePairs int
	// UsedBlocking reports whether the blocking plan template ran.
	UsedBlocking bool
	// Strategy names the physical operator used by apply_blocking_rules.
	Strategy string
	// RulesLearned / RulesRetained count candidate blocking rules and the
	// crowd-validated survivors.
	RulesLearned  int
	RulesRetained int

	// CrowdCost is the crowd spend in dollars; Questions the number of
	// row pairs sent to the crowd.
	CrowdCost float64
	Questions int

	// Time accounting in the paper's terms (§3.4): TotalTime ≈ CrowdTime
	// + UnmaskedMachineTime.
	CrowdTime           time.Duration
	MachineTime         time.Duration
	MaskedMachineTime   time.Duration
	UnmaskedMachineTime time.Duration
	TotalTime           time.Duration
	// PerOperator breaks times down by plan operator (Table 4).
	PerOperator map[string]OperatorTime

	// Estimate carries the Accuracy Estimator's crowd-based estimate (nil
	// unless WithAccuracyEstimate or WithIterativeWorkflow was set).
	Estimate *AccuracyEstimate
	// RoundF1 records the estimated F1 of each iterative-workflow round.
	RoundF1 []float64

	modelJSON []byte
	artifact  *model.MatcherArtifact
	gantt     string
	explain   string
}

// Explain returns the executed EM plan in RDBMS EXPLAIN style: operators in
// execution order with crowd/machine/masked times, the learned rule
// sequence, the chosen physical blocking operator, and totals.
func (r *Report) Explain() string { return r.explain }

// Gantt returns an ASCII Gantt chart of the run's virtual timeline: crowd
// activity (▒) and cluster activity (█) per operator, showing what masking
// hid under crowd time.
func (r *Report) Gantt() string { return r.gantt }

// Model returns the learned model (blocking rules + matcher) serialized as
// JSON. Feed it to ApplyModel to re-match schema-compatible tables with no
// crowd involvement. Returns nil if the run learned no matcher.
func (r *Report) Model() []byte { return r.modelJSON }

// SaveArtifact writes the run's complete serving artifact — model, frozen B
// table, token dictionaries, corpus statistics, and prefix indexes — in the
// versioned binary format that `falcon serve` (at boot, or through its
// artifact endpoints) loads. Returns an error if the run learned no matcher.
func (r *Report) SaveArtifact(w io.Writer) error {
	if r.artifact == nil {
		return fmt.Errorf("falcon: run learned no matcher; no artifact to save")
	}
	return r.artifact.Save(w)
}

// HasArtifact reports whether the run produced a serving artifact.
func (r *Report) HasArtifact() bool { return r.artifact != nil }

// ApplyModel re-applies a previously learned model to two tables: it runs
// the stored blocking-rule sequence and matcher, asking the crowd nothing.
func ApplyModel(modelJSON []byte, a, b *Table) ([]Pair, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("falcon: nil table")
	}
	m, err := model.Load(bytes.NewReader(modelJSON))
	if err != nil {
		return nil, err
	}
	a.Internal().InferTypes()
	b.Internal().InferTypes()
	matches, _, err := m.Apply(nil, a.Internal(), b.Internal())
	if err != nil {
		return nil, err
	}
	out := make([]Pair, len(matches))
	for i, p := range matches {
		out[i] = Pair{ARow: p.A, BRow: p.B}
	}
	return out, nil
}

// AccuracyEstimate is the crowd-estimated quality of the final matcher.
type AccuracyEstimate struct {
	Precision    float64
	PrecisionErr float64
	Recall       float64
	RecallErr    float64
	F1           float64
	// Labeled counts the extra pairs the estimator sent to the crowd.
	Labeled int
}

// config collects option state.
type config struct {
	opt          core.Options
	errRate      float64
	latency      time.Duration
	inHouse      bool
	platform     crowd.Platform
	workers      int
	spillRecords int
	spillDir     string
}

// Option customizes a Match run.
type Option func(*config)

// WithSeed fixes all randomness, making runs reproducible.
func WithSeed(seed int64) Option {
	return func(c *config) { c.opt.Seed = seed }
}

// WithBudget caps crowd spending in dollars; exceeding it aborts the run
// with an error. The structural cap C_max (§3.4) applies regardless.
func WithBudget(dollars float64) Option {
	return func(c *config) { c.opt.Budget = dollars }
}

// WithCluster configures the simulated Hadoop cluster (default: 10 nodes ×
// 8 slots, 2 GB mapper memory).
func WithCluster(nodes, slotsPerNode int, mapperMemory int64) Option {
	return func(c *config) {
		c.opt.Cluster = &mapreduce.Cluster{Nodes: nodes, SlotsPerNode: slotsPerNode, MapperMemory: mapperMemory}
	}
}

// WithWorkers caps how many goroutines execute cluster tasks concurrently
// (default: runtime.NumCPU()). It is an execution knob only — results,
// counters, and simulated times are byte-identical for any worker count.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithSpill bounds shuffle memory (out-of-core execution): each cluster
// map task buffers at most records shuffle pairs per reduce partition,
// spilling sorted runs to temp files under dir (default os.TempDir())
// that reducers stream back through a merge. Like WithWorkers it is an
// execution knob only — results, counters, and simulated times are
// byte-identical to the in-memory shuffle at any threshold. records <= 0
// keeps the shuffle fully in memory.
func WithSpill(records int, dir string) Option {
	return func(c *config) {
		c.spillRecords = records
		c.spillDir = dir
	}
}

// WithSampleSize sets the sample_pairs size (paper default 1M).
func WithSampleSize(n int) Option {
	return func(c *config) { c.opt.SampleN = n }
}

// WithMaxIterations caps active-learning crowd iterations (default 30).
func WithMaxIterations(k int) Option {
	return func(c *config) { c.opt.ALIterations = k }
}

// WithCrowdErrorRate simulates workers who answer incorrectly with the
// given probability (Corleone's random-worker model).
func WithCrowdErrorRate(rate float64) Option {
	return func(c *config) { c.errRate = rate }
}

// WithCrowdLatency sets the simulated latency of one 10-question HIT
// (default 1.5 minutes, as measured on Mechanical Turk).
func WithCrowdLatency(d time.Duration) Option {
	return func(c *config) { c.latency = d }
}

// WithInHouseCrowd uses a single dedicated expert labeler (a "crowd of
// one", as in the paper's drug-matching deployment): one answer per
// question, no worker error, short latency.
func WithInHouseCrowd(latency time.Duration) Option {
	return func(c *config) {
		c.inHouse = true
		c.latency = latency
	}
}

// WithAccuracyEstimate enables the Accuracy Estimator extension: after
// matching, the crowd labels stratified samples of the predictions and the
// report carries estimated precision/recall with confidence margins.
func WithAccuracyEstimate() Option {
	return func(c *config) { c.opt.EstimateAccuracy = true }
}

// WithIterativeWorkflow enables the full Corleone workflow (paper Fig. 1):
// estimate the matcher's accuracy, crowd-label the most difficult pairs,
// retrain, and repeat up to `rounds` times or until the estimated accuracy
// stops improving. Implies WithAccuracyEstimate.
func WithIterativeWorkflow(rounds int) Option {
	return func(c *config) {
		c.opt.EstimateAccuracy = true
		c.opt.IterateRounds = rounds
	}
}

// WithoutMasking disables all three §10.2 masking optimizations (the
// unoptimized baseline of Table 5).
func WithoutMasking() Option {
	return func(c *config) {
		c.opt.MaskIndexBuild = false
		c.opt.Speculative = false
		c.opt.MaskedSelection = false
	}
}

// WithBlocking forces the plan-template choice: true always blocks, false
// always takes the matcher-only plan.
func WithBlocking(on bool) Option {
	return func(c *config) { c.opt.ForceBlocking = &on }
}

// WithStrategy forces apply_blocking_rules' physical operator. Valid names:
// apply-all, apply-greedy, apply-conjunct, apply-predicate, map-side,
// reduce-split.
func WithStrategy(name string) Option {
	return func(c *config) {
		for s := block.ApplyAll; s <= block.ReduceSplit; s++ {
			if s.String() == name {
				c.opt.ForceStrategy = &s
				return
			}
		}
		panic("falcon: unknown strategy " + name)
	}
}

// ErrNilLabeler is returned when Match is called without a labeler.
var ErrNilLabeler = errors.New("falcon: Match requires a Labeler")

// Dedup finds duplicate rows *within* one table — the paper's Songs task
// matches a table of songs against itself. Self-pairs are excluded
// throughout the pipeline, and each duplicate pair is reported once with
// ARow < BRow.
func Dedup(t *Table, labeler Labeler, opts ...Option) (*Report, error) {
	return DedupContext(context.Background(), t, labeler, opts...)
}

// DedupContext is Dedup honoring ctx cancellation; see MatchContext.
func DedupContext(ctx context.Context, t *Table, labeler Labeler, opts ...Option) (*Report, error) {
	report, err := MatchContext(ctx, t, t, labeler, append(opts, withSelfExclusion())...)
	if err != nil {
		return nil, err
	}
	seen := map[Pair]bool{}
	out := report.Matches[:0]
	for _, m := range report.Matches {
		if m.ARow == m.BRow {
			continue
		}
		if m.ARow > m.BRow {
			m.ARow, m.BRow = m.BRow, m.ARow
		}
		if seen[m] {
			continue
		}
		seen[m] = true
		out = append(out, m)
	}
	report.Matches = out
	return report, nil
}

func withSelfExclusion() Option {
	return func(c *config) { c.opt.ExcludeSelfPairs = true }
}

// Match runs the hands-off EM workflow over tables a and b, asking the
// labeler (through the simulated crowd) to label a bounded number of row
// pairs, and returns the predicted matches with full cost/time accounting.
func Match(a, b *Table, labeler Labeler, opts ...Option) (*Report, error) {
	return MatchContext(context.Background(), a, b, labeler, opts...)
}

// MatchContext is Match with cancellation and deadline support: when ctx is
// cancelled the run stops at the next task boundary — cluster jobs between
// records, crowd waits between questions — and returns ctx.Err().
func MatchContext(ctx context.Context, a, b *Table, labeler Labeler, opts ...Option) (*Report, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("falcon: nil table")
	}
	if labeler == nil {
		return nil, ErrNilLabeler
	}
	cfg := &config{opt: core.DefaultOptions()}
	for _, o := range opts {
		o(cfg)
	}
	if cfg.platform == nil {
		if cfg.inHouse {
			cfg.platform = crowd.InHouse{Latency: cfg.latency}
		} else {
			cfg.platform = crowd.NewRandomWorkers(cfg.errRate, cfg.latency, cfg.opt.Seed+1)
		}
	}
	cfg.opt.Platform = cfg.platform
	if cfg.workers != 0 {
		if cfg.opt.Cluster == nil {
			cfg.opt.Cluster = mapreduce.Default()
		}
		cfg.opt.Cluster.Workers = cfg.workers
	}
	if cfg.spillRecords > 0 {
		if cfg.opt.Cluster == nil {
			cfg.opt.Cluster = mapreduce.Default()
		}
		cfg.opt.Cluster.SpillRecords = cfg.spillRecords
		cfg.opt.Cluster.SpillDir = cfg.spillDir
	}

	a.Internal().InferTypes()
	b.Internal().InferTypes()
	oracle := func(p table.Pair) bool {
		return labeler.Label(a.Internal().Tuples[p.A].Values, b.Internal().Tuples[p.B].Values)
	}
	res, err := core.RunContext(ctx, a.Internal(), b.Internal(), oracle, cfg.opt)
	if err != nil {
		return nil, err
	}
	return buildReport(res), nil
}

func buildReport(res *core.Result) *Report {
	r := &Report{
		CandidatePairs:      len(res.Candidates),
		UsedBlocking:        res.UsedBlocking,
		Strategy:            res.Strategy.String(),
		RulesLearned:        res.CandidateRules,
		RulesRetained:       res.RetainedRules,
		CrowdCost:           res.Cost,
		Questions:           res.Questions,
		CrowdTime:           res.Timeline.CrowdTime,
		MachineTime:         res.Timeline.MachineTime,
		MaskedMachineTime:   res.Timeline.MaskedMachine,
		UnmaskedMachineTime: res.Timeline.UnmaskedMachine,
		TotalTime:           res.Timeline.Total,
		PerOperator:         map[string]OperatorTime{},
	}
	for op, ot := range res.Timeline.PerOp {
		r.PerOperator[op] = OperatorTime{Crowd: ot.Crowd, Machine: ot.Machine}
	}
	r.Matches = make([]Pair, len(res.Matches))
	for i, m := range res.Matches {
		r.Matches[i] = Pair{ARow: m.A, BRow: m.B}
	}
	var gantt bytes.Buffer
	vclock.RenderGantt(&gantt, res.Tasks, 100)
	r.gantt = gantt.String()
	r.explain = res.Explain()
	if res.Model != nil {
		var buf bytes.Buffer
		if err := res.Model.Save(&buf); err == nil {
			r.modelJSON = buf.Bytes()
		}
	}
	r.artifact = res.Artifact
	if res.Accuracy != nil {
		r.Estimate = &AccuracyEstimate{
			Precision:    res.Accuracy.Precision,
			PrecisionErr: res.Accuracy.PrecisionErr,
			Recall:       res.Accuracy.Recall,
			RecallErr:    res.Accuracy.RecallErr,
			F1:           res.Accuracy.F1,
			Labeled:      res.Accuracy.Labeled,
		}
		r.RoundF1 = append([]float64(nil), res.RoundF1...)
	}
	return r
}
