// Package sample implements Falcon's sample_pairs operator (paper §5).
//
// Learning blocking rules on A×B is impractical, so Falcon draws a sample S
// of n pairs that is both representative and match-rich: it builds an
// inverted index over the documents d(a) of the smaller table A, selects
// n/y random tuples from B, and pairs each selected b with (1) the top y/2
// tuples of A sharing the most tokens with d(b) — likely matches — and
// (2) y/2 random tuples of A. Two MapReduce jobs implement this: one builds
// the inverted index, one generates the pairs.
package sample

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"time"

	"falcon/internal/mapreduce"
	"falcon/internal/table"
	"falcon/internal/tokenize"
)

// Config controls sampling.
type Config struct {
	// N is the sample size (paper default 1M pairs; sweeps use 500K–2M).
	N int
	// Y is the per-b pairing fan-out (paper: 100).
	Y int
	// Seed drives all random selection.
	Seed int64
	// StopwordDF: tokens appearing in more than this many A documents are
	// skipped when counting shared tokens (0 = max(1000, |A|/10)). Very
	// frequent tokens carry no match signal and would blow up probe cost.
	StopwordDF int
	// ExcludeSelf skips pairs with equal row numbers — used when matching
	// a table against itself (deduplication, like the paper's Songs task).
	ExcludeSelf bool
}

func (c Config) withDefaults(aLen int) Config {
	if c.N <= 0 {
		c.N = 1_000_000
	}
	if c.Y <= 0 {
		c.Y = 100
	}
	if c.StopwordDF <= 0 {
		c.StopwordDF = 1000
		if aLen/10 > c.StopwordDF {
			c.StopwordDF = aLen / 10
		}
	}
	return c
}

// stringCols returns the columns of t inferred as strings.
func stringCols(t *table.Table) []int {
	var out []int
	for i, a := range t.Schema.Attrs {
		if a.Type == table.String {
			out = append(out, i)
		}
	}
	return out
}

// document returns d(x): the de-duplicated word tokens of the tuple's
// string attributes.
func document(t *table.Table, row int, cols []int) []string {
	vals := make([]string, len(cols))
	for i, c := range cols {
		vals[i] = t.Value(row, c)
	}
	return tokenize.Document(vals)
}

// probeScratch counts, for one b, the tokens each A tuple shares with d(b).
// counts is dense over A's rows and all zero between records; touched lists
// the rows with a non-zero count, so ranking and reset cost what the probe
// touched, not |A|.
type probeScratch struct {
	counts  []int32
	touched []int32
	hist    []int32  // hist[c] = touched rows sharing exactly c tokens
	keys    []uint64 // rows at or above the threshold, packed for sorting
	ids     []int32
}

// add counts one posting list.
func (s *probeScratch) add(ids []int32) {
	for _, id := range ids {
		if s.counts[id] == 0 {
			s.touched = append(s.touched, id)
		}
		s.counts[id]++
	}
}

// top returns the first k touched rows in (count desc, ID asc) order — all
// of them when fewer were touched, and possibly more than k where counts tie
// at the cut — and zeroes the counts for the next record. The result is
// valid until the next call. A histogram of the counts gives the smallest
// count still inside the top k; only rows at or above it are sorted.
func (s *probeScratch) top(k int) []int32 {
	maxC := int32(0)
	for _, id := range s.touched {
		maxC = max(maxC, s.counts[id])
	}
	s.hist = append(s.hist[:0], make([]int32, maxC+1)...)
	for _, id := range s.touched {
		s.hist[s.counts[id]]++
	}
	cut, above := maxC, 0
	for ; cut > 1; cut-- {
		if above += int(s.hist[cut]); above >= k {
			break
		}
	}
	s.keys = s.keys[:0]
	for _, id := range s.touched {
		if c := s.counts[id]; c >= cut {
			s.keys = append(s.keys, uint64(maxC-c)<<32|uint64(id))
		}
		s.counts[id] = 0
	}
	s.touched = s.touched[:0]
	slices.Sort(s.keys)
	s.ids = s.ids[:0]
	for _, key := range s.keys {
		s.ids = append(s.ids, int32(key))
	}
	return s.ids
}

// Pairs draws the sample S from A×B. It returns the pairs and the modeled
// cluster time of the two MapReduce jobs, honoring ctx cancellation between
// records.
func Pairs(ctx context.Context, cluster *mapreduce.Cluster, a, b *table.Table, cfg Config) ([]table.Pair, time.Duration, error) {
	cfg = cfg.withDefaults(a.Len())
	if a.Len() == 0 || b.Len() == 0 {
		return nil, 0, nil
	}
	aCols := stringCols(a)
	bCols := stringCols(b)

	// Job 1: inverted index over A documents.
	type tokID struct {
		Tok string
		ID  int32
	}
	rows := make([]int, a.Len())
	for i := range rows {
		rows[i] = i
	}
	idxJob := mapreduce.Job[int, string, int32, tokID]{
		Name:   "sample-inverted-index",
		Splits: mapreduce.SplitSlice(rows, cluster.Slots()),
		Map: func(row int, ctx *mapreduce.MapCtx[string, int32]) {
			doc := document(a, row, aCols)
			ctx.AddCost(int64(len(doc)))
			for _, tok := range doc {
				ctx.Emit(tok, int32(row))
			}
		},
		Reduce: func(tok string, ids []int32, ctx *mapreduce.ReduceCtx[tokID]) {
			// Materializing the posting list costs a unit per entry beyond
			// the engine's per-value grouping charge.
			ctx.AddCost(int64(len(ids)))
			for _, id := range ids {
				ctx.Output(tokID{tok, id})
			}
		},
	}
	ir, err := mapreduce.RunContext(ctx, cluster, idxJob)
	if err != nil {
		return nil, 0, err
	}
	inverted := map[string][]int32{}
	for _, ti := range ir.Output {
		inverted[ti.Tok] = append(inverted[ti.Tok], ti.ID)
	}
	for _, ids := range inverted {
		slices.Sort(ids)
	}

	// Select n/y tuples from B.
	rng := rand.New(rand.NewSource(cfg.Seed))
	numB := cfg.N / cfg.Y
	if numB < 1 {
		numB = 1
	}
	if numB > b.Len() {
		numB = b.Len()
	}
	perm := rng.Perm(b.Len())[:numB]
	slices.Sort(perm) // deterministic split layout

	// Job 2: generate pairs for each selected b. The shared-token counts
	// live in pooled scratch — one per worker in flight, not one per record.
	scratch := sync.Pool{New: func() any { return &probeScratch{counts: make([]int32, a.Len())} }}
	genJob := mapreduce.MapOnlyJob[int, table.Pair]{
		Name:   "sample-gen-pairs",
		Splits: mapreduce.SplitSlice(perm, cluster.Slots()),
		Map: func(bRow int, ctx *mapreduce.MapOnlyCtx[table.Pair]) {
			local := rand.New(rand.NewSource(cfg.Seed ^ (int64(bRow)+1)*0x5851F42D4C957F2D))
			doc := document(b, bRow, bCols)
			// Count shared tokens per A tuple via the inverted index.
			s := scratch.Get().(*probeScratch)
			defer scratch.Put(s)
			var probeCost int64
			for _, tok := range doc {
				ids := inverted[tok]
				if len(ids) > cfg.StopwordDF {
					continue
				}
				probeCost += int64(len(ids)) + 1
				s.add(ids)
			}
			ctx.AddCost(probeCost + int64(len(doc)))
			y := cfg.Y
			if y > a.Len() {
				y = a.Len()
			}
			y1 := y / 2
			chosen := make(map[int32]bool, y) //falcon:allow hotalloc sampling stage, tiny map of Y picks
			if cfg.ExcludeSelf {
				chosen[int32(bRow)] = true
			}
			// The top y1 by shared-token count desc, ID asc; the self slot
			// can skip one, so the ranking goes one deeper.
			taken := 0
			for _, id := range s.top(y1 + 1) {
				if taken == y1 {
					break
				}
				if chosen[id] {
					continue
				}
				chosen[id] = true
				ctx.Output(table.Pair{A: int(id), B: bRow})
				taken++
			}
			// Fill the rest with random A tuples not yet chosen.
			limit := y
			if cfg.ExcludeSelf {
				limit++ // the self slot does not count toward y
				if limit > a.Len() {
					limit = a.Len()
				}
			}
			for len(chosen) < limit {
				id := int32(local.Intn(a.Len()))
				if chosen[id] {
					continue
				}
				chosen[id] = true
				ctx.Output(table.Pair{A: int(id), B: bRow})
			}
		},
	}
	gr, err := mapreduce.RunMapOnlyContext(ctx, cluster, genJob)
	if err != nil {
		return nil, 0, err
	}
	return gr.Output, ir.Stats.SimTime + gr.Stats.SimTime, nil
}
