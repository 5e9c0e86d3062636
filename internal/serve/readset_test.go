package serve

import (
	"math"
	"slices"
	"strings"
	"testing"

	"falcon/internal/core"
	"falcon/internal/crowd"
	"falcon/internal/datagen"
	"falcon/internal/feature"
	"falcon/internal/forest"
	"falcon/internal/model"
	"falcon/internal/rules"
	"falcon/internal/simfn"
	"falcon/internal/table"
)

// oracleMatchOne is MatchOne from scratch: every feature of (rec, B row)
// through the string oracle Feature.Eval, the CNF on the whole blocking
// vector, the forest's Predict and Confidence on the whole full vector.
func oracleMatchOne(set *feature.Set, art *model.MatcherArtifact, rec []string) []Match {
	cnf := rules.ToCNF(art.RuleSeq)
	full, blocking := make([]float64, len(set.Features)), make([]float64, len(set.BlockingIdx))
	var out []Match
	for row := 0; row < art.B.Len(); row++ {
		for k := range set.Features {
			f := &set.Features[k]
			full[k] = f.Eval(rec[f.ACol], art.B.Value(row, f.BCol))
		}
		for pos, k := range set.BlockingIdx {
			blocking[pos] = full[k]
		}
		if cnf.Keep(blocking) && art.Matcher.Predict(full) {
			out = append(out, Match{BRow: row, Score: art.Matcher.Confidence(full)})
		}
	}
	return out
}

// TestMatchOneProjectedMatchesOracle: MatchOne prepares and evaluates only
// the features the artifact's CNF and forest read (the rest of its value
// buffers is NaN) and must still return the oracle's rows and scores — for
// the hand-written artifact that walks every filter kind, and for the edge
// models whose read sets are empty, absent or disjoint. A single-leaf forest
// is not exotic: training seed 2 on Products produces one.
func TestMatchOneProjectedMatchesOracle(t *testing.T) {
	trainA, b := dirtyTables(70, 90, 5, 0)
	probeA, _ := dirtyTables(70, 0, 5, 30)
	good, _ := handWrittenArtifact(t, trainA, probeA, b)
	set := feature.Generate(trainA, b)
	full := func(name string) int {
		f := set.ByName(name)
		if f == nil {
			t.Fatalf("no feature %s", name)
		}
		return f.ID
	}
	leaf := func(match bool) *forest.Node { return &forest.Node{Feature: -1, Match: match} }
	stump := func(feat int, thr float64) *forest.Tree {
		return &forest.Tree{Root: &forest.Node{Feature: feat, Threshold: thr, Left: leaf(false), Right: leaf(true)}}
	}
	yes := &forest.Forest{NumFeatures: len(set.Features), Trees: []*forest.Tree{{Root: leaf(true)}}}
	offTitle := &forest.Forest{NumFeatures: len(set.Features), Trees: []*forest.Tree{
		stump(full("exact_match(year)"), 0.5), stump(full("levenshtein(year)"), 0.7), stump(full("rel_diff(price)"), -0.5),
	}}
	for _, c := range []struct {
		name string
		edit func(a *model.MatcherArtifact)
	}{
		{"every filter kind", func(*model.MatcherArtifact) {}},
		{"single-leaf forest", func(a *model.MatcherArtifact) { a.Matcher = yes }},
		{"empty CNF", func(a *model.MatcherArtifact) { a.RuleSeq, a.ClauseSel = nil, nil }},
		{"empty CNF and single-leaf forest", func(a *model.MatcherArtifact) { a.RuleSeq, a.ClauseSel, a.Matcher = nil, nil, yes }},
		{"disjoint read sets", func(a *model.MatcherArtifact) {
			a.RuleSeq, a.ClauseSel, a.Matcher = a.RuleSeq[:1], a.ClauseSel[:1], offTitle // the rule reads jaccard_word(title) only
		}},
	} {
		art := *good
		c.edit(&art)
		bn, err := NewBundle(&art)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, fi := range bn.read {
			if !slices.Contains(bn.forestRead, fi) && !slices.ContainsFunc(bn.cnfRead, func(pos int) bool { return bn.blockingIdx[pos] == fi }) {
				t.Fatalf("%s: feature %d resolved though neither the CNF nor the forest reads it", c.name, fi)
			}
		}
		matched := 0
		for row := 0; row < probeA.Len(); row++ {
			rec := probeA.Tuples[row].Values
			got, err := bn.MatchOne(rec)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleMatchOne(set, &art, rec)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: row %d: MatchOne = %v, oracle = %v", c.name, row, got, want)
			}
			matched += len(want)
		}
		if matched == 0 {
			t.Errorf("%s: oracle finds no match; the comparison is vacuous", c.name)
		}
		// Score every (record, B row) on a private scratch: its value buffers
		// must end up written exactly where the model reads, NaN elsewhere.
		rs, sim := bn.scratch.New().(*reqScratch), simfn.GetScratch()
		for row := 0; row < probeA.Len(); row++ {
			bn.prepare(rs, probeA.Tuples[row].Values)
			for brow := 0; brow < b.Len(); brow++ {
				bn.scoreRow(rs, sim, brow)
			}
		}
		simfn.PutScratch(sim)
		for fi, v := range rs.vals {
			if slices.Contains(bn.forestRead, fi) == math.IsNaN(v) {
				t.Errorf("%s: full-vector slot %d holds %v (forest reads %v)", c.name, fi, v, bn.forestRead)
			}
		}
		for pos, v := range rs.bvals {
			if slices.Contains(bn.cnfRead, pos) == math.IsNaN(v) {
				t.Errorf("%s: blocking-vector slot %d holds %v (CNF reads %v)", c.name, pos, v, bn.cnfRead)
			}
		}
	}
}

// TestNewBundleRejectsForestOutsideFeatureSpace: a checksum-valid artifact
// whose trees index past the feature space, or carry a non-leaf without
// children, is refused at publish time — MatchOne would panic on it.
func TestNewBundleRejectsForestOutsideFeatureSpace(t *testing.T) {
	trainA, b := dirtyTables(40, 50, 8, 0)
	good, _ := handWrittenArtifact(t, trainA, trainA, b)
	nf := len(good.Feats)
	leaf := &forest.Node{Feature: -1}
	for _, c := range []struct {
		name string
		f    *forest.Forest
		want string
	}{
		{"split past the feature space", &forest.Forest{NumFeatures: nf, Trees: []*forest.Tree{{Root: &forest.Node{Feature: nf, Left: leaf, Right: leaf}}}}, "outside the"},
		{"non-leaf feature -2 without children", &forest.Forest{NumFeatures: nf, Trees: []*forest.Tree{{Root: &forest.Node{Feature: -2}}}}, "split on feature -2 outside"},
		{"split missing a child", &forest.Forest{NumFeatures: nf, Trees: []*forest.Tree{{Root: &forest.Node{Feature: 0, Left: leaf}}}}, "missing a child"},
		{"tree without a root", &forest.Forest{NumFeatures: nf, Trees: []*forest.Tree{{}}}, "missing node"},
		{"forest over another feature space", &forest.Forest{NumFeatures: nf + 1, Trees: good.Matcher.Trees}, "matcher trained on"},
	} {
		bad := *good
		bad.Matcher = c.f
		if _, err := NewBundle(&bad); err == nil {
			t.Errorf("%s: bundle built", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want mention of %q", c.name, err, c.want)
		}
	}
}

// trainProducts trains the blocking plan on the generated Products data:
// long titles and descriptions (TF/IDF features), a numeric price (range
// filters), model numbers.
func trainProducts(t testing.TB) (*datagen.Dataset, *core.Result) {
	t.Helper()
	force := true
	opt := core.DefaultOptions()
	opt.Seed = 5 // most seeds at this scale learn a single-leaf forest; this one splits on 8 features
	opt.SampleN = 4000
	opt.SampleY = 20
	opt.ALIterations = 10
	opt.MaskedSelectionMinPool = 1000
	opt.Platform = crowd.NewRandomWorkers(0, 0, 6)
	opt.ForceBlocking = &force
	d := datagen.Products(0.05, 101)
	res, err := core.Run(d.A, d.B, d.Oracle(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

// TestMatchOneAllocs pins the per-request allocation budget on a
// Songs-shaped and a Products-shaped bundle. What a request allocates is
// the tokenization of the record columns the model reads (and a weighted
// document per read TF/IDF corpus) plus the returned match slice — nothing
// per candidate, and nothing for the features the model does not read, which
// is what kept the unprojected path at 99 (Songs) and 165 (Products)
// objects per request.
func TestMatchOneAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops pooled scratch under the race detector")
	}
	force := true
	songs, songsRes := trainSongs(t, 800, 1, func(o *core.Options) { o.ForceBlocking = &force })
	products, productsRes := trainProducts(t)
	for _, c := range []struct {
		name    string
		a       *table.Table
		res     *core.Result
		ceiling float64
	}{
		{"songs", songs.A, songsRes, 65},          // measured 56.1
		{"products", products.A, productsRes, 55}, // measured 47.1
	} {
		bn := loadBundle(t, c.res)
		t.Logf("%s: CNF reads %d of %d blocking features, forest %d of %d features, union %d", c.name,
			len(bn.cnfRead), len(bn.blockingIdx), len(bn.forestRead), len(bn.feats), len(bn.read))
		n := min(c.a.Len(), 200)
		pass := func() {
			for row := 0; row < n; row++ {
				if _, err := bn.MatchOne(c.a.Tuples[row].Values); err != nil {
					t.Fatal(err)
				}
			}
		}
		pass() // grow the scratch to its high-water mark
		perReq := testing.AllocsPerRun(3, pass) / float64(n)
		t.Logf("%s: %.1f objects per MatchOne", c.name, perReq)
		if perReq > c.ceiling {
			t.Errorf("%s: MatchOne allocates %.1f objects per request, ceiling %.0f", c.name, perReq, c.ceiling)
		}
	}
}
