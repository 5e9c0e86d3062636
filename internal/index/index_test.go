package index

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"falcon/internal/datagen"
	"falcon/internal/mapreduce"
	"falcon/internal/simfn"
	"falcon/internal/table"
	"falcon/internal/tokenize"
)

func yearPriceTable() *table.Table {
	t := table.New("A", table.NewSchema("year", "price", "title"))
	t.Append("1999", "10.5", "the art of war")
	t.Append("2005", "30", "war and peace")
	t.Append("1999", "12", "the go programming language")
	t.Append("", "abc", "art history of war and peace treaties")
	t.Append("2010", "50", "peace")
	t.InferTypes()
	return t
}

func TestHashIndex(t *testing.T) {
	tb := yearPriceTable()
	h := BuildHash(tb, 0)
	got := h.Probe("1999")
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Probe(1999) = %v", got)
	}
	if h.Probe("2020") != nil {
		t.Fatal("unknown year should probe empty")
	}
	if h.Probe("") != nil {
		t.Fatal("missing value should not be indexed")
	}
	if h.Probe(" 1999 ") == nil {
		t.Fatal("probe should normalize whitespace")
	}
	if h.SizeBytes() <= 0 {
		t.Fatal("SizeBytes not estimated")
	}
}

func TestTreeIndex(t *testing.T) {
	tb := yearPriceTable()
	ti := BuildTree(tb, 1)
	got := ti.ProbeRange(10, 15)
	if len(got) != 2 {
		t.Fatalf("ProbeRange(10,15) = %v", got)
	}
	if got[0] != 0 || got[1] != 2 {
		t.Fatalf("ProbeRange order = %v", got)
	}
	if ti.ProbeRange(100, 200) != nil {
		t.Fatal("out-of-range probe should be empty")
	}
	all := ti.ProbeRange(-1e9, 1e9)
	if len(all) != 4 { // "abc" row is unparseable
		t.Fatalf("all probe = %v", all)
	}
	if ti.SizeBytes() != 4*12 {
		t.Fatalf("SizeBytes = %d", ti.SizeBytes())
	}
}

func TestOrdering(t *testing.T) {
	freq := map[string]int{"the": 10, "war": 3, "zebra": 1, "art": 3}
	o := BuildOrdering(freq)
	if o.Len() != 4 {
		t.Fatalf("Len = %d", o.Len())
	}
	// zebra (1) < art (3, lex) < war (3) < the (10)
	if !(o.Rank("zebra") < o.Rank("art") && o.Rank("art") < o.Rank("war") && o.Rank("war") < o.Rank("the")) {
		t.Fatalf("ranks wrong: zebra=%d art=%d war=%d the=%d", o.Rank("zebra"), o.Rank("art"), o.Rank("war"), o.Rank("the"))
	}
	if o.Rank("unknown") != 4 {
		t.Fatalf("unknown rank = %d, want 4", o.Rank("unknown"))
	}
	re := o.Reorder([]string{"the", "war", "zebra"})
	if re[0] != "zebra" || re[2] != "the" {
		t.Fatalf("Reorder = %v", re)
	}
	if o.SizeBytes() <= 0 {
		t.Fatal("SizeBytes not estimated")
	}
}

func TestTokenFrequencies(t *testing.T) {
	tb := yearPriceTable()
	freq := TokenFrequencies(tb, 2, tokenize.Word)
	if freq["war"] != 3 {
		t.Fatalf(`freq["war"] = %d, want 3`, freq["war"])
	}
	if freq["go"] != 1 {
		t.Fatalf(`freq["go"] = %d`, freq["go"])
	}
}

func TestPrefixLen(t *testing.T) {
	// Jaccard t=0.6, l=10: alpha=6 → prefix 5.
	if got := PrefixLen(simfn.MJaccard, 10, 0.6); got != 5 {
		t.Fatalf("jaccard prefix = %d, want 5", got)
	}
	// Overlap: conservative full set.
	if got := PrefixLen(simfn.MOverlap, 10, 0.6); got != 10 {
		t.Fatalf("overlap prefix = %d, want 10", got)
	}
	if PrefixLen(simfn.MJaccard, 0, 0.6) != 0 {
		t.Fatal("empty set prefix should be 0")
	}
	if PrefixLen(simfn.MJaccard, 5, 0) != 5 {
		t.Fatal("zero threshold should use full set")
	}
	// Prefix never exceeds l nor drops below 1 for non-empty sets.
	if got := PrefixLen(simfn.MJaccard, 3, 0.99); got != 1 {
		t.Fatalf("tight threshold prefix = %d, want 1", got)
	}
}

func TestLengthBounds(t *testing.T) {
	lo, hi, ok := LengthBounds(simfn.MJaccard, 10, 0.5)
	if !ok || lo != 5 || hi != 20 {
		t.Fatalf("jaccard bounds = [%d,%d] ok=%v", lo, hi, ok)
	}
	if _, _, ok := LengthBounds(simfn.MOverlap, 10, 0.5); ok {
		t.Fatal("overlap should admit no length bound")
	}
	if _, _, ok := LengthBounds(simfn.MJaccard, 0, 0.5); ok {
		t.Fatal("empty probe should admit no bound")
	}
}

func titlesTable(n int, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa", "war", "peace", "art"}
	t := table.New("A", table.NewSchema("title"))
	for i := 0; i < n; i++ {
		k := 2 + rng.Intn(6)
		var ts []string
		for j := 0; j < k; j++ {
			ts = append(ts, words[rng.Intn(len(words))])
		}
		t.Append(joinWords(ts))
	}
	t.InferTypes()
	return t
}

func joinWords(ws []string) string {
	out := ""
	for i, w := range ws {
		if i > 0 {
			out += " "
		}
		out += w
	}
	return out
}

// TestPrefixIndexCompleteness is the critical correctness property of §7.4:
// the filters are necessary conditions, so every tuple that actually
// satisfies the predicate must be in the candidate set.
func TestPrefixIndexCompleteness(t *testing.T) {
	for _, m := range []simfn.Measure{simfn.MJaccard, simfn.MDice, simfn.MCosine, simfn.MOverlap} {
		for _, thr := range []float64{0.3, 0.5, 0.7, 0.9} {
			a := titlesTable(120, 1)
			probeT := titlesTable(40, 2)
			ord := BuildOrdering(TokenFrequencies(a, 0, tokenize.Word))
			idx := BuildPrefix(a, 0, tokenize.Word, ord, m, thr)
			for row := 0; row < probeT.Len(); row++ {
				val := probeT.Value(row, 0)
				cands, _ := idx.Probe(m, thr, val)
				candSet := map[int32]bool{}
				for _, c := range cands {
					candSet[c] = true
				}
				bToks := tokenize.Set(tokenize.Word, val)
				for aRow := 0; aRow < a.Len(); aRow++ {
					aToks := tokenize.Set(tokenize.Word, a.Value(aRow, 0))
					var sim float64
					switch m {
					case simfn.MJaccard:
						sim = simfn.Jaccard(aToks, bToks)
					case simfn.MDice:
						sim = simfn.Dice(aToks, bToks)
					case simfn.MCosine:
						sim = simfn.Cosine(aToks, bToks)
					case simfn.MOverlap:
						sim = simfn.Overlap(aToks, bToks)
					}
					if sim >= thr && !candSet[int32(aRow)] {
						t.Fatalf("%v thr=%.1f: tuple %d (sim=%.3f vs %q) missing from candidates",
							m, thr, aRow, sim, val)
					}
				}
			}
		}
	}
}

func TestPrefixIndexPrunes(t *testing.T) {
	a := titlesTable(500, 3)
	ord := BuildOrdering(TokenFrequencies(a, 0, tokenize.Word))
	idx := BuildPrefix(a, 0, tokenize.Word, ord, simfn.MJaccard, 0.8)
	cands, probes := idx.Probe(simfn.MJaccard, 0.8, "alpha beta gamma")
	if len(cands) >= a.Len()/2 {
		t.Fatalf("filter pruned nothing: %d of %d", len(cands), a.Len())
	}
	if probes <= 0 {
		t.Fatal("probe cost not accounted")
	}
}

func TestPrefixProbeBelowBuildThresholdPanics(t *testing.T) {
	a := titlesTable(10, 4)
	ord := BuildOrdering(TokenFrequencies(a, 0, tokenize.Word))
	idx := BuildPrefix(a, 0, tokenize.Word, ord, simfn.MJaccard, 0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	idx.Probe(simfn.MJaccard, 0.3, "alpha")
}

func TestPrefixProbeEmptyValue(t *testing.T) {
	a := titlesTable(10, 5)
	ord := BuildOrdering(TokenFrequencies(a, 0, tokenize.Word))
	idx := BuildPrefix(a, 0, tokenize.Word, ord, simfn.MJaccard, 0.5)
	cands, probes := idx.Probe(simfn.MJaccard, 0.5, "")
	if cands != nil || probes != 0 {
		t.Fatal("empty probe should return nothing")
	}
}

func TestLengthIndex(t *testing.T) {
	tb := yearPriceTable()
	li := BuildLength(tb, 2, tokenize.Word)
	got := li.ProbeRange(4, 5)
	// "the art of war"(4), "war and peace"(3)? no: 3 tokens. titles:
	// row0: 4 tokens, row1: 3, row2: 5 ("the go programming language" = 4),
	// recompute: row2 "the go programming language" = 4 tokens.
	for _, id := range got {
		n := len(tokenize.Set(tokenize.Word, tb.Value(int(id), 2)))
		if n < 4 || n > 5 {
			t.Fatalf("id %d has %d tokens, outside [4,5]", id, n)
		}
	}
	if li.SizeBytes() <= 0 {
		t.Fatal("SizeBytes missing")
	}
}

func TestBuildOrderingMR(t *testing.T) {
	tb := yearPriceTable()
	c := mapreduce.Default()
	ord, sim, err := BuildOrderingMR(context.Background(), c, tb, 2, tokenize.Word)
	if err != nil {
		t.Fatal(err)
	}
	if sim <= 0 {
		t.Fatal("no sim time")
	}
	// MR ordering must agree with the pure builder.
	pure := BuildOrdering(TokenFrequencies(tb, 2, tokenize.Word))
	if ord.Len() != pure.Len() {
		t.Fatalf("MR ordering size %d vs pure %d", ord.Len(), pure.Len())
	}
	for _, tok := range []string{"the", "war", "peace", "go"} {
		if ord.Rank(tok) != pure.Rank(tok) {
			t.Fatalf("rank(%s): MR %d vs pure %d", tok, ord.Rank(tok), pure.Rank(tok))
		}
	}
}

func TestBuildPrefixMRMatchesPure(t *testing.T) {
	a := titlesTable(100, 6)
	c := mapreduce.Default()
	ord := BuildOrdering(TokenFrequencies(a, 0, tokenize.Word))
	mrIdx, sim, err := BuildPrefixMR(context.Background(), c, a, 0, tokenize.Word, ord, simfn.MJaccard, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if sim <= 0 {
		t.Fatal("no sim time")
	}
	pure := BuildPrefix(a, 0, tokenize.Word, ord, simfn.MJaccard, 0.6)
	for row := 0; row < 20; row++ {
		val := a.Value(row, 0)
		c1, _ := mrIdx.Probe(simfn.MJaccard, 0.6, val)
		c2, _ := pure.Probe(simfn.MJaccard, 0.6, val)
		if len(c1) != len(c2) {
			t.Fatalf("probe %q: MR %v vs pure %v", val, c1, c2)
		}
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("probe %q order: MR %v vs pure %v", val, c1, c2)
			}
		}
	}
}

func TestBuildHashTreeMR(t *testing.T) {
	tb := yearPriceTable()
	c := mapreduce.Default()
	h, sim1, err := BuildHashMR(context.Background(), c, tb, 0)
	if err != nil || sim1 <= 0 {
		t.Fatalf("hash MR: %v %v", err, sim1)
	}
	if len(h.Probe("1999")) != 2 {
		t.Fatal("hash MR content wrong")
	}
	ti, sim2, err := BuildTreeMR(context.Background(), c, tb, 1)
	if err != nil || sim2 <= 0 {
		t.Fatalf("tree MR: %v %v", err, sim2)
	}
	if len(ti.ProbeRange(10, 15)) != 2 {
		t.Fatal("tree MR content wrong")
	}
}

// Property: self-probe always returns self (any tuple satisfies sim ≥ t
// against itself for t ≤ 1 when it has tokens).
func TestQuickSelfProbe(t *testing.T) {
	a := titlesTable(80, 7)
	ord := BuildOrdering(TokenFrequencies(a, 0, tokenize.Word))
	idx := BuildPrefix(a, 0, tokenize.Word, ord, simfn.MJaccard, 0.5)
	f := func(row uint8) bool {
		r := int(row) % a.Len()
		cands, _ := idx.Probe(simfn.MJaccard, 0.5, a.Value(r, 0))
		for _, c := range cands {
			if int(c) == r {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: raising the probe threshold never grows the candidate set.
func TestQuickThresholdMonotone(t *testing.T) {
	a := titlesTable(100, 8)
	ord := BuildOrdering(TokenFrequencies(a, 0, tokenize.Word))
	idx := BuildPrefix(a, 0, tokenize.Word, ord, simfn.MJaccard, 0.4)
	f := func(row uint8) bool {
		r := int(row) % a.Len()
		v := a.Value(r, 0)
		c1, _ := idx.Probe(simfn.MJaccard, 0.4, v)
		c2, _ := idx.Probe(simfn.MJaccard, 0.8, v)
		return len(c2) <= len(c1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestProbeBatchedEntryPoints holds the ID probe (a Prober session, fresh
// per row and reused across rows, and ProbeIDsBatch over it) to the retired
// string-keyed ReferenceProbe: same candidates and same lookup counts, probe
// after probe, including an empty probe mid-batch, tokens the ordering has
// never seen (extension IDs), and scratch reuse across rows.
func TestProbeBatchedEntryPoints(t *testing.T) {
	a := titlesTable(300, 6)
	probeT := titlesTable(80, 7)
	ord := BuildOrdering(TokenFrequencies(a, 0, tokenize.Word))
	for _, thr := range []float64{0.4, 0.7} {
		idx := BuildPrefix(a, 0, tokenize.Word, ord, simfn.MJaccard, thr)
		rows := make([][]uint32, probeT.Len())
		wantCands := make([][]int32, len(rows))
		wantProbes := make([]int64, len(rows))
		for r := range rows {
			val := probeT.Value(r, 0)
			switch r {
			case 17:
				val = "" // exercise the empty-probe path mid-batch
			case 23:
				val += " omega unseen" // tokens outside the ordering
			}
			rows[r] = ord.Dict().EncodeSorted(nil, tokenize.Set(tokenize.Word, val))
			wantCands[r], wantProbes[r] = idx.ReferenceProbe(simfn.MJaccard, thr, val)
		}

		// One session reused across every row, appending into a shared,
		// growing buffer; and a fresh session and buffer per row.
		p := idx.AcquireProber()
		var buf []int32
		for r, ids := range rows {
			start := len(buf)
			var n int64
			buf, n = p.ProbeIDsInto(simfn.MJaccard, thr, ids, buf)
			if !slices.Equal(buf[start:], wantCands[r]) || n != wantProbes[r] {
				t.Fatalf("thr=%.1f row %d: reused session got %v (%d lookups), want %v (%d)", thr, r, buf[start:], n, wantCands[r], wantProbes[r])
			}
			fresh := idx.AcquireProber()
			got, n := fresh.ProbeIDsInto(simfn.MJaccard, thr, ids, nil)
			fresh.Release()
			if !slices.Equal(got, wantCands[r]) || n != wantProbes[r] {
				t.Fatalf("thr=%.1f row %d: fresh session got %v (%d lookups), want %v (%d)", thr, r, got, n, wantCands[r], wantProbes[r])
			}
		}
		p.Release()

		// ProbeIDsBatch over the whole row set at once.
		var total int64
		visited := 0
		probes := idx.ProbeIDsBatch(simfn.MJaccard, thr, rows, func(row int, cands []int32) {
			if row != visited {
				t.Fatalf("batch visited row %d, want %d", row, visited)
			}
			if !slices.Equal(cands, wantCands[row]) {
				t.Fatalf("thr=%.1f row %d: batch cands %v, want %v", thr, row, cands, wantCands[row])
			}
			visited++
		})
		for _, n := range wantProbes {
			total += n
		}
		if visited != len(rows) || probes != total {
			t.Fatalf("thr=%.1f: batch visited %d/%d rows, probes %d want %d", thr, visited, len(rows), probes, total)
		}
	}
}

// TestPrefixFromPartsRejectsInconsistentParts: parts come from a decoded
// artifact, so dangling cross-references must be an error, not a panic at
// probe time.
func TestPrefixFromPartsRejectsInconsistentParts(t *testing.T) {
	a := titlesTable(40, 9)
	ord := BuildOrdering(TokenFrequencies(a, 0, tokenize.Word))
	ranked, post, setLen, ok := BuildPrefix(a, 0, tokenize.Word, ord, simfn.MJaccard, 0.5).Parts()
	if !ok {
		t.Fatal("index not exportable")
	}
	if _, err := PrefixFromParts(tokenize.Word, 0.5, OrderingOf(ranked), post, setLen); err != nil {
		t.Fatalf("consistent parts rejected: %v", err)
	}
	if _, err := PrefixFromParts(tokenize.Word, 0.5, OrderingOf(ranked[:len(post)-1]), post, setLen); err == nil {
		t.Fatal("more posting lists than ranked tokens accepted")
	}
	if _, err := PrefixFromParts(tokenize.Word, 0.5, OrderingOf(ranked), post, setLen[:len(setLen)/2]); err == nil {
		t.Fatal("posting past the covered rows accepted")
	}
}

// BenchmarkPrefixProbe measures prefix-index probe throughput over the
// synthetic Products titles through a pinned Prober session. The B rows are
// encoded once up front — mirroring the filters-layer encoded-column cache,
// including extension IDs for tokens the A-side ordering has never seen — so
// the timed loop isolates probe cost.
func BenchmarkPrefixProbe(b *testing.B) {
	ds := datagen.Products(0.05, 9)
	col := ds.A.Schema.Col("title")
	ord := BuildOrdering(TokenFrequencies(ds.A, col, tokenize.Word))
	idx := BuildPrefix(ds.A, col, tokenize.Word, ord, simfn.MJaccard, 0.6)
	bcol := ds.B.Schema.Col("title")
	rows := make([][]uint32, ds.B.Len())
	for r := range rows {
		rows[r] = ord.Dict().EncodeSorted(nil, tokenize.Set(tokenize.Word, ds.B.Value(r, bcol)))
	}
	p := idx.AcquireProber()
	defer p.Release()
	buf := make([]int32, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = p.ProbeIDsInto(simfn.MJaccard, 0.6, rows[i%len(rows)], buf[:0])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "probes/s")
}

func BenchmarkBuildPrefix(b *testing.B) {
	a := titlesTable(2000, 10)
	ord := BuildOrdering(TokenFrequencies(a, 0, tokenize.Word))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildPrefix(a, 0, tokenize.Word, ord, simfn.MJaccard, 0.6)
	}
}

// TestProbeRangeInto holds the bitmap probe to the value-ordered reference:
// the same IDs as ProbeRange (plus the unparseables when asked), in row
// order, appended after what dst already holds, the bitmap left zero, and
// nothing allocated once dst has grown.
func TestProbeRangeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tb := table.New("A", table.NewSchema("price"))
	for i := 0; i < 500; i++ {
		switch rng.Intn(10) {
		case 0:
			tb.Append("n/a")
		case 1:
			tb.Append("")
		default:
			tb.Append(fmt.Sprintf("%.1f", rng.Float64()*100))
		}
	}
	tb.InferTypes()
	ti := BuildTree(tb, 0)
	if ti.Len() != tb.Len() {
		t.Fatalf("Len = %d, table has %d rows", ti.Len(), tb.Len())
	}
	marks := make([]uint64, (ti.Len()+63)/64)
	dst := []int32{-7}
	for _, r := range [][2]float64{{10, 20}, {-5, 0.05}, {99.9, 1e9}, {-1e9, 1e9}, {50, 49}, {33.3, 33.3}} {
		for _, withUnparseable := range []bool{false, true} {
			want := ti.ProbeRange(r[0], r[1])
			if withUnparseable {
				want = append(want, ti.Unparseable()...)
			}
			slices.Sort(want)
			dst = ti.ProbeRangeInto(dst[:1], marks, r[0], r[1], withUnparseable)
			if dst[0] != -7 || !slices.Equal(dst[1:], want) {
				t.Fatalf("ProbeRangeInto(%v, unparseable=%v) = %v, want -7 then %v", r, withUnparseable, dst, want)
			}
			if slices.ContainsFunc(marks, func(w uint64) bool { return w != 0 }) {
				t.Fatalf("ProbeRangeInto(%v) left marks set", r)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		dst = ti.ProbeRangeInto(dst[:0], marks, 10, 60, true)
	}); allocs > 0 {
		t.Fatalf("ProbeRangeInto allocates %.1f objects per probe, want 0", allocs)
	}
}
