// Package block implements Falcon's apply_blocking_rules operator (paper
// §7): executing a blocking-rule sequence over A×B without materializing
// the Cartesian product. It provides the four index-based physical
// operators of §7.3 — apply-all, apply-greedy, apply-conjunct,
// apply-predicate — plus the two prior-work baselines MapSide and
// ReduceSplit, which do enumerate A×B.
//
// All six produce the same candidate set: the pairs the positive CNF rule Q
// keeps. They differ in mapper memory footprint and cluster time, which is
// what §10.1's physical-operator selection trades off.
package block

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"falcon/internal/feature"
	"falcon/internal/filters"
	"falcon/internal/mapreduce"
	"falcon/internal/rules"
	"falcon/internal/table"
)

// Strategy names a physical operator for apply_blocking_rules.
type Strategy int

const (
	// ApplyAll loads every index into each mapper (§7.3a).
	ApplyAll Strategy = iota
	// ApplyGreedy loads only the most selective conjunct's indexes (§7.3b).
	ApplyGreedy
	// ApplyConjunct runs one mapper pass per conjunct; reducers intersect
	// (§7.3c).
	ApplyConjunct
	// ApplyPredicate runs one mapper pass per predicate (§7.3d).
	ApplyPredicate
	// MapSide is the prior-work baseline that holds table A in mapper
	// memory and enumerates A×B.
	MapSide
	// ReduceSplit is the prior-work baseline that enumerates A×B in the
	// mappers and spreads rule evaluation across reducers.
	ReduceSplit
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case ApplyAll:
		return "apply-all"
	case ApplyGreedy:
		return "apply-greedy"
	case ApplyConjunct:
		return "apply-conjunct"
	case ApplyPredicate:
		return "apply-predicate"
	case MapSide:
		return "map-side"
	case ReduceSplit:
		return "reduce-split"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// ErrTooLarge reports that a baseline strategy would enumerate an A×B too
// big to finish (the paper kills MapSide/ReduceSplit on Songs/Citations).
var ErrTooLarge = errors.New("block: A×B too large for an enumerating baseline")

// baselinePairCap bounds how many pairs the in-process baselines enumerate.
const baselinePairCap = 100_000_000

// Input bundles everything apply_blocking_rules needs.
type Input struct {
	A, B *table.Table
	// Analysis is the filter plan of the positive CNF rule Q.
	Analysis *filters.Analysis
	// Indexes must contain every index Analysis needs (for the index-based
	// strategies).
	Indexes *filters.Indexes
	// Vectorizer computes blocking-feature vectors for final rule checks.
	Vectorizer *feature.Vectorizer
	// ClauseSel gives each clause's selectivity (fraction of sample pairs
	// surviving the corresponding rule); used by ApplyGreedy.
	ClauseSel []float64
	// PassIDsOnly enables §7.3 optimization 2 (reduced intermediate
	// output); when false each emitted B record is charged tuple weight.
	PassIDsOnly bool
	// BTupleWeight is the extra shuffle cost per full B tuple emission
	// when PassIDsOnly is false (≈ tuple bytes / 128). 0 derives it from B.
	BTupleWeight int64
}

// Result is the blocking outcome.
type Result struct {
	Pairs    []table.Pair
	SimTime  time.Duration
	Strategy Strategy
	// PairsEnumerated counts (a,b) pairs that reached rule evaluation.
	PairsEnumerated int64
}

func (in *Input) bWeight() int64 {
	if in.PassIDsOnly {
		return 0
	}
	if in.BTupleWeight > 0 {
		return in.BTupleWeight
	}
	w := TableBytes(in.B) / int64(in.B.Len()+1) / 128
	if w < 1 {
		w = 1
	}
	return w
}

// TableBytes estimates a table's in-memory size.
func TableBytes(t *table.Table) int64 {
	var b int64
	for _, tu := range t.Tuples {
		b += 48
		for _, v := range tu.Values {
			b += int64(len(v)) + 16
		}
	}
	return b
}

// verifier is the final rule check every strategy ends in: the CNF applied
// to the blocking vector of an enumerated pair, computed on the CNF's read
// set only — the blocking features no predicate compares are never
// evaluated, and their columns never built.
type verifier struct {
	cnf  rules.CNF
	proj *feature.Projection
}

func (in *Input) verifier() verifier {
	cnf := in.Analysis.CNF
	return verifier{cnf, in.Vectorizer.ProjectBlocking(cnf.Features())}
}

// keepPair evaluates the full CNF rule on a pair.
func (v verifier) keepPair(p table.Pair) (keep bool) {
	v.proj.Batch(p.A, []int32{int32(p.B)}, func(_ int, values []float64) { keep = v.cnf.Keep(values) })
	return keep
}

func (in *Input) evalCost() int64 {
	n := 0
	for _, c := range in.Analysis.CNF.Clauses {
		n += len(c)
	}
	if n < 1 {
		n = 1
	}
	return int64(n)
}

// counterEnumerated tallies pairs that reached rule evaluation. It is an
// engine counter (per-task, merged deterministically) rather than a shared
// variable, so rule evaluation stays race-free across concurrent tasks.
const counterEnumerated = "pairs_enumerated"

// Run executes the chosen strategy, honoring ctx cancellation between
// records.
func Run(ctx context.Context, cluster *mapreduce.Cluster, in *Input, s Strategy) (*Result, error) {
	return run(ctx, cluster, in, s, nil)
}

// RunStream executes the chosen strategy delivering candidate pairs to
// sink record-at-a-time instead of materializing Result.Pairs: the engine
// hands each surviving pair over as the reduce side drains, so the
// candidate set is never held in memory by the blocking layer. Pairs
// arrive in the engine's deterministic reduce order (not the sorted order
// Run returns) and never concurrently; Result carries the usual SimTime
// and counters with Pairs nil.
//
//falcon:streaming
func RunStream(ctx context.Context, cluster *mapreduce.Cluster, in *Input, s Strategy, sink func(table.Pair)) (*Result, error) {
	if sink == nil {
		return nil, fmt.Errorf("block: RunStream needs a sink")
	}
	return run(ctx, cluster, in, s, sink)
}

func run(ctx context.Context, cluster *mapreduce.Cluster, in *Input, s Strategy, sink func(table.Pair)) (*Result, error) {
	switch s {
	case ApplyAll:
		return in.runClausePass(ctx, cluster, s, in.Analysis.FilterableClauses(), sink)
	case ApplyGreedy:
		return in.runClausePass(ctx, cluster, s, []int{in.mostSelectiveClause()}, sink)
	case ApplyConjunct:
		return in.runIntersect(ctx, cluster, s, false, sink)
	case ApplyPredicate:
		return in.runIntersect(ctx, cluster, s, true, sink)
	case MapSide:
		return in.runMapSide(ctx, cluster, sink)
	case ReduceSplit:
		return in.runReduceSplit(ctx, cluster, sink)
	default:
		return nil, fmt.Errorf("block: unknown strategy %v", s)
	}
}

// mostSelectiveClause returns the filterable clause with the lowest
// selectivity (drops the most pairs).
func (in *Input) mostSelectiveClause() int {
	best, bestSel := -1, 2.0
	for _, ci := range in.Analysis.FilterableClauses() {
		sel := 1.0
		if ci < len(in.ClauseSel) {
			sel = in.ClauseSel[ci]
		}
		if sel < bestSel {
			best, bestSel = ci, sel
		}
	}
	if best == -1 {
		// No filterable clause: caller should have picked a baseline, but
		// degrade gracefully by signalling "no pruning" with clause -1.
		return -1
	}
	return best
}

// bRows returns B's row numbers split for the cluster, interleaving-style
// balanced (each split carries a contiguous stripe; candidate work is
// data-dependent, which the cost model's wave scheduling absorbs).
func (in *Input) bRows(cluster *mapreduce.Cluster) [][]int {
	rows := make([]int, in.B.Len())
	for i := range rows {
		rows[i] = i
	}
	return mapreduce.SplitSlice(rows, cluster.Slots()*4)
}

// runClausePass implements ApplyAll / ApplyGreedy: one mapper pass that
// probes the given clauses, then reducers evaluate the full rule sequence.
func (in *Input) runClausePass(ctx context.Context, cluster *mapreduce.Cluster, s Strategy, useClauses []int, sink func(table.Pair)) (*Result, error) {
	if len(useClauses) == 1 && useClauses[0] == -1 {
		useClauses = nil
	}
	bw := in.bWeight()
	evalCost := in.evalCost()
	vf := in.verifier()
	// Map records are whole B-row stripes (one record per split), so the
	// batched probe path amortizes its index sessions and buffers across the
	// stripe. The engine charges one implicit cost unit per map record; a
	// stripe record carries len(rows) probes, so the Map compensates with
	// len(rows)-1 to keep SimTime byte-identical with the per-row record
	// shape (SplitSlice never yields an empty stripe).
	stripes := in.bRows(cluster)
	splits := make([][][]int, len(stripes))
	for i, st := range stripes {
		splits[i] = [][]int{st}
	}
	job := mapreduce.Job[[]int, int32, int32, table.Pair]{
		Name:   "apply-blocking-rules/" + s.String(),
		Sink:   sink,
		Splits: splits,
		Map: func(rows []int, ctx *mapreduce.MapCtx[int32, int32]) {
			ctx.AddCost(int64(len(rows)) - 1)
			in.Indexes.RuleCandidatesBatch(in.Analysis, useClauses, in.B, rows, func(i int, cands []int32, all bool, cost int64) {
				bRow := int32(rows[i])
				ctx.AddCost(cost)
				if all {
					// Filters could not prune this probe: every A tuple is
					// a candidate.
					for a := 0; a < in.A.Len(); a++ {
						ctx.Emit(int32(a), bRow)
						ctx.AddCost(bw)
					}
					return
				}
				for _, aid := range cands {
					ctx.Emit(aid, bRow)
					ctx.AddCost(bw)
				}
			})
		},
		Reduce: func(aid int32, bRows []int32, ctx *mapreduce.ReduceCtx[table.Pair]) {
			vf.proj.Batch(int(aid), bRows, func(i int, values []float64) {
				ctx.AddCost(evalCost)
				ctx.Inc(counterEnumerated, 1)
				if vf.cnf.Keep(values) {
					ctx.Output(table.Pair{A: int(aid), B: int(bRows[i])})
				}
			})
		},
	}
	res, err := mapreduce.RunContext(ctx, cluster, job)
	if err != nil {
		return nil, err
	}
	return finish(res, s), nil
}

// runIntersect implements ApplyConjunct / ApplyPredicate: one mapper pass
// per conjunct (or per predicate), reducers intersect the clause coverage
// then evaluate the full rule.
func (in *Input) runIntersect(ctx context.Context, cluster *mapreduce.Cluster, s Strategy, perPredicate bool, sink func(table.Pair)) (*Result, error) {
	filterable := in.Analysis.FilterableClauses()
	if len(filterable) == 0 {
		return in.runClausePass(ctx, cluster, s, nil, sink)
	}
	need := len(filterable)
	bw := in.bWeight()
	evalCost := in.evalCost()
	vf := in.verifier()

	// clausePos maps a clause index to a dense bit position in [0, need), so
	// the reducer can count distinct covering clauses with a word-sized
	// bitmask instead of a per-key map.
	maxClause := 0
	for _, ci := range filterable {
		if ci > maxClause {
			maxClause = ci
		}
	}
	clausePos := make([]uint, maxClause+1)
	for i, ci := range filterable {
		clausePos[ci] = uint(i)
	}

	// One pass per conjunct, or per predicate of each conjunct: the walker
	// restricted to that clause, or to a one-predicate clause of its own.
	type pass struct {
		clause int
		an     *filters.Analysis
		use    []int
	}
	var passes []pass
	for _, ci := range filterable {
		if !perPredicate {
			passes = append(passes, pass{ci, in.Analysis, []int{ci}})
			continue
		}
		for _, bp := range in.Analysis.Clauses[ci].Preds {
			only := filters.ClauseInfo{Preds: []filters.BoundPred{bp}, Filterable: true}
			passes = append(passes, pass{ci, &filters.Analysis{Clauses: []filters.ClauseInfo{only}}, nil})
		}
	}
	// The pass records are (pass, bRow), split evenly across map tasks; each
	// task's share is then regrouped into one stripe record per pass, so the
	// batched probe path amortizes its sessions and buffers across the stripe.
	// As in runClausePass, the Map compensates the engine's one cost unit per
	// record with len(rows)-1, keeping SimTime byte-identical with the
	// per-row record shape.
	type rec struct{ pass, bRow int }
	recs := make([]rec, 0, len(passes)*in.B.Len())
	for pi := range passes {
		for b := 0; b < in.B.Len(); b++ {
			recs = append(recs, rec{pi, b})
		}
	}
	type stripe struct {
		pass int
		rows []int
	}
	var splits [][]stripe
	for _, share := range mapreduce.SplitSlice(recs, cluster.Slots()*4) {
		rows := make([]int, len(share))
		for i, r := range share {
			rows[i] = r.bRow
		}
		var task []stripe
		for start, i := 0, 1; i <= len(share); i++ {
			if i == len(share) || share[i].pass != share[start].pass {
				task = append(task, stripe{share[start].pass, rows[start:i]})
				start = i
			}
		}
		splits = append(splits, task)
	}

	job := mapreduce.Job[stripe, int64, int32, table.Pair]{
		Name:   "apply-blocking-rules/" + s.String(),
		Sink:   sink,
		Splits: splits,
		Map: func(st stripe, ctx *mapreduce.MapCtx[int64, int32]) {
			ps := passes[st.pass]
			ctx.AddCost(int64(len(st.rows)) - 1)
			in.Indexes.RuleCandidatesBatch(ps.an, ps.use, in.B, st.rows, func(i int, cands []int32, all bool, cost int64) {
				bRow := int32(st.rows[i])
				ctx.AddCost(cost)
				if all {
					for a := 0; a < in.A.Len(); a++ {
						ctx.Emit(pairKey(int32(a), bRow), int32(ps.clause))
						ctx.AddCost(bw)
					}
					return
				}
				for _, aid := range cands {
					ctx.Emit(pairKey(aid, bRow), int32(ps.clause))
					ctx.AddCost(bw)
				}
			})
		},
		Reduce: func(key int64, clauses []int32, ctx *mapreduce.ReduceCtx[table.Pair]) {
			// Distinct clauses that produced this pair must cover every
			// filterable clause (per-predicate passes of one clause merge by
			// the dedup). Clause indices map to dense bit positions, so a
			// word-sized bitmask counts distinct coverage with no per-key
			// allocation; rules with more than 64 filterable clauses fall
			// back to a bool slice.
			if need <= 64 {
				var mask uint64
				for _, c := range clauses {
					mask |= 1 << clausePos[c]
				}
				if bits.OnesCount64(mask) < need {
					return
				}
			} else {
				seen := make([]bool, need) //falcon:allow hotalloc — >64-clause fallback
				distinct := 0
				for _, c := range clauses {
					if !seen[clausePos[c]] {
						seen[clausePos[c]] = true
						distinct++
					}
				}
				if distinct < need {
					return
				}
			}
			p := unpairKey(key)
			ctx.AddCost(evalCost)
			ctx.Inc(counterEnumerated, 1)
			if vf.keepPair(p) {
				ctx.Output(p)
			}
		},
	}
	res, err := mapreduce.RunContext(ctx, cluster, job)
	if err != nil {
		return nil, err
	}
	return finish(res, s), nil
}

// runMapSide enumerates A×B with A held in mapper memory.
func (in *Input) runMapSide(ctx context.Context, cluster *mapreduce.Cluster, sink func(table.Pair)) (*Result, error) {
	if int64(in.A.Len())*int64(in.B.Len()) > baselinePairCap {
		return nil, ErrTooLarge
	}
	evalCost := in.evalCost()
	vf := in.verifier()
	job := mapreduce.MapOnlyJob[int, table.Pair]{
		Name:   "apply-blocking-rules/map-side",
		Sink:   sink,
		Splits: in.bRows(cluster),
		Map: func(bRow int, ctx *mapreduce.MapOnlyCtx[table.Pair]) {
			for a := 0; a < in.A.Len(); a++ {
				p := table.Pair{A: a, B: bRow}
				ctx.AddCost(evalCost)
				ctx.Inc(counterEnumerated, 1)
				if vf.keepPair(p) {
					ctx.Output(p)
				}
			}
		},
	}
	res, err := mapreduce.RunMapOnlyContext(ctx, cluster, job)
	if err != nil {
		return nil, err
	}
	return finish(res, MapSide), nil
}

// runReduceSplit enumerates A×B in the mappers, spreading evaluation evenly
// over the reducers.
func (in *Input) runReduceSplit(ctx context.Context, cluster *mapreduce.Cluster, sink func(table.Pair)) (*Result, error) {
	if int64(in.A.Len())*int64(in.B.Len()) > baselinePairCap {
		return nil, ErrTooLarge
	}
	bw := in.bWeight()
	evalCost := in.evalCost()
	vf := in.verifier()
	job := mapreduce.Job[int, int64, struct{}, table.Pair]{
		Name:   "apply-blocking-rules/reduce-split",
		Sink:   sink,
		Splits: in.bRows(cluster),
		Map: func(bRow int, ctx *mapreduce.MapCtx[int64, struct{}]) {
			for a := 0; a < in.A.Len(); a++ {
				ctx.Emit(pairKey(int32(a), int32(bRow)), struct{}{})
				ctx.AddCost(bw)
			}
		},
		Reduce: func(key int64, _ []struct{}, ctx *mapreduce.ReduceCtx[table.Pair]) {
			p := unpairKey(key)
			ctx.AddCost(evalCost)
			ctx.Inc(counterEnumerated, 1)
			if vf.keepPair(p) {
				ctx.Output(p)
			}
		},
	}
	res, err := mapreduce.RunContext(ctx, cluster, job)
	if err != nil {
		return nil, err
	}
	return finish(res, ReduceSplit), nil
}

func finish(res *mapreduce.Result[table.Pair], s Strategy) *Result {
	out := &Result{
		Pairs:           res.Output,
		SimTime:         res.Stats.SimTime,
		Strategy:        s,
		PairsEnumerated: res.Stats.Counters[counterEnumerated],
	}
	sortPairs(out.Pairs)
	return out
}

func pairKey(a, b int32) int64 { return int64(a)<<32 | int64(uint32(b)) }

func unpairKey(k int64) table.Pair {
	return table.Pair{A: int(k >> 32), B: int(int32(uint32(k)))}
}

func sortPairs(ps []table.Pair) {
	slices.SortFunc(ps, func(x, y table.Pair) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
}

// greedyRatio is the §10.1 threshold: when the most selective conjunct is
// at least this close to the whole rule's selectivity, apply-greedy wins.
const greedyRatio = 0.8

// Choose picks the physical operator per §10.1's decision ladder. seqSel is
// the whole sequence's selectivity (sel(Q)); ClauseSel must be populated.
func Choose(cluster *mapreduce.Cluster, in *Input, seqSel float64) Strategy {
	mem := cluster.MapperMemory
	if mem <= 0 {
		mem = 2 << 30
	}
	ci := in.mostSelectiveClause()
	if ci >= 0 {
		selC := in.ClauseSel[ci]
		if selC > 0 && seqSel/selC > greedyRatio && MemoryNeed(in, ApplyGreedy) <= mem {
			return ApplyGreedy
		}
		if MemoryNeed(in, ApplyAll) <= mem {
			return ApplyAll
		}
		if MemoryNeed(in, ApplyConjunct) <= mem {
			return ApplyConjunct
		}
		if MemoryNeed(in, ApplyPredicate) <= mem {
			return ApplyPredicate
		}
	}
	if MemoryNeed(in, MapSide) <= mem {
		return MapSide
	}
	return ReduceSplit
}

// MemoryNeed estimates the per-mapper memory requirement of each strategy
// (§10.1's selection ladder).
func MemoryNeed(in *Input, s Strategy) int64 {
	switch s {
	case ApplyAll:
		var total int64
		for _, spec := range in.Analysis.NeededIndexes() {
			total += in.Indexes.SpecBytes(spec)
		}
		return total
	case ApplyGreedy:
		ci := in.mostSelectiveClause()
		if ci < 0 {
			return 0
		}
		return in.Indexes.ClauseBytes(in.Analysis.Clauses[ci])
	case ApplyConjunct:
		var max int64
		for _, ci := range in.Analysis.FilterableClauses() {
			if b := in.Indexes.ClauseBytes(in.Analysis.Clauses[ci]); b > max {
				max = b
			}
		}
		return max
	case ApplyPredicate:
		var max int64
		for _, ci := range in.Analysis.FilterableClauses() {
			for _, bp := range in.Analysis.Clauses[ci].Preds {
				if bp.Kind == filters.Unfilterable {
					continue
				}
				ciOnly := filters.ClauseInfo{Preds: []filters.BoundPred{bp}, Filterable: true}
				if b := in.Indexes.ClauseBytes(ciOnly); b > max {
					max = b
				}
			}
		}
		return max
	case MapSide:
		return TableBytes(in.A)
	case ReduceSplit:
		return 0
	default:
		return 0
	}
}
