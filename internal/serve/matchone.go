package serve

import (
	"fmt"

	"falcon/internal/feature"
	"falcon/internal/filters"
	"falcon/internal/simfn"
	"falcon/internal/table"
)

// Match is one served match: a row of the frozen B table and the forest's
// confidence (fraction of trees voting match).
type Match struct {
	BRow  int     `json:"b_row"`
	Score float64 `json:"score"`
}

// reqScratch is one request's working state, cycled through Bundle.scratch.
// Slices are reused via [:0] re-slicing; capacities grow to the workload's
// high-water mark and stick.
type reqScratch struct {
	opsA  []feature.Operand // per feature: the record as a length-1 operand column
	ids   [][]uint32        // per feature: encoded record token-ID set (backs opsA[i].Pack[0])
	toks  [][]string        // per token slot: record token set
	walk  filters.Walker    // candidate walker: probe operands and set-algebra buffers
	bvals []float64         // blocking-vector buffer: the CNF's read positions, NaN elsewhere
	vals  []float64         // full-vector buffer: the forest's read features, NaN elsewhere
	out   []Match
}

// MatchOne matches one incoming A-shaped record (values in A-schema column
// order) against the frozen B table: candidate generation through the
// learned CNF's filter plan (filters.Walker — the walker batch blocking
// runs over table stripes, here over one record), CNF verification on the
// blocking features its predicates compare, then forest scoring on the
// features its trees split on, every value from feature.EvalOperands.
// Lock-free: all shared state is the frozen bundle; per-request state comes
// from the scratch pool. The documented per-request allocations are the
// record tokenizations and the returned match slice.
//
//falcon:hotpath
func (bn *Bundle) MatchOne(rec []string) ([]Match, error) {
	if len(rec) != bn.nA {
		return nil, fmt.Errorf("serve: record has %d values, schema has %d", len(rec), bn.nA)
	}
	rs := bn.scratch.Get().(*reqScratch)
	s := simfn.GetScratch()
	bn.prepare(rs, rec)
	cands, all, _ := rs.walk.Candidates()
	rs.out = rs.out[:0]
	if all {
		// No clause could prune (including the empty, matcher-only CNF):
		// every B row is a candidate.
		for row := 0; row < bn.b.Len(); row++ {
			bn.scoreRow(rs, s, row)
		}
	} else {
		for _, row := range cands {
			bn.scoreRow(rs, s, int(row))
		}
	}
	out := append([]Match(nil), rs.out...)
	simfn.PutScratch(s)
	bn.scratch.Put(rs)
	return out, nil
}

// prepare turns the record into what the two kernels read: per feature the
// model reads a length-1 operand column (the request-side counterpart of the
// frozen B column, written in place), and per filter predicate its probe
// operand. Every cell goes through the primitive the batch column builders
// use — feature.CellTokens, table.ParseNum, table.Normalize,
// Dict.EncodeSorted, PlanPred.EncodeProbe.
//
//falcon:hotpath
func (bn *Bundle) prepare(rs *reqScratch, rec []string) {
	for si, ts := range bn.tokSlots {
		//falcon:allow servebudget documented per-request tokenization of the incoming record
		rs.toks[si] = feature.CellTokens(ts.kind, rec[ts.acol])
	}
	for _, fi := range bn.read {
		f, op := &bn.feats[fi], &rs.opsA[fi]
		switch {
		case f.Measure.NumericBased():
			op.Num[0], op.Ok[0] = table.ParseNum(rec[f.ACol])
		case f.Measure.CountBased():
			// Encode under the frozen dictionary: it covers every B token, so
			// tokens it does not know overlap nothing, as in training.
			rs.ids[fi] = bn.dicts[fi].EncodeSorted(rs.ids[fi][:0], rs.toks[bn.tokSlot[fi]])
			op.Pack[0].Repack(rs.ids[fi])
		case f.Measure.CorpusBased():
			//falcon:allow servebudget documented per-request weighted-document build over the frozen corpus
			op.Doc[0] = f.Corpus().WeightedDocOf(rs.toks[bn.tokSlot[fi]])
		case f.Measure.SetBased():
			op.Tok[0] = rs.toks[bn.tokSlot[fi]]
		default:
			op.Norm[0] = table.Normalize(rec[f.ACol])
		}
	}
	for i := range bn.plan.Preds {
		pp, pv := &bn.plan.Preds[i], rs.walk.Probe(i)
		cell := rec[pp.Feat.BCol] // the plan is role-flipped: its B side is the record
		switch pp.Kind {
		case filters.Equivalence:
			pv.Raw = cell
		case filters.Range:
			pv.Num, pv.Ok = table.ParseNum(cell)
		default:
			//falcon:allow servebudget documented per-request tokenization for the prefix probe
			pv.IDs = pp.EncodeProbe(pv.IDs[:0], cell)
		}
	}
}

// scoreRow verifies one candidate B row against the CNF on the blocking
// positions it reads, then has the forest vote on the features it splits on,
// appending a Match on a majority.
//
//falcon:hotpath
func (bn *Bundle) scoreRow(rs *reqScratch, s *simfn.Scratch, row int) {
	for _, pos := range bn.cnfRead {
		fi := bn.blockingIdx[pos]
		rs.bvals[pos] = bn.feats[fi].EvalOperands(&rs.opsA[fi], 0, &bn.opsB[fi], row, s)
	}
	if !bn.cnf.Keep(rs.bvals) {
		return
	}
	for _, fi := range bn.forestRead {
		rs.vals[fi] = bn.feats[fi].EvalOperands(&rs.opsA[fi], 0, &bn.opsB[fi], row, s)
	}
	if votes, trees := bn.f.Votes(rs.vals), len(bn.f.Trees); 2*votes > trees {
		rs.out = append(rs.out, Match{BRow: row, Score: float64(votes) / float64(trees)})
	}
}
