package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"falcon/internal/block"
	"falcon/internal/core"
	"falcon/internal/crowd"
	"falcon/internal/datagen"
	"falcon/internal/feature"
	"falcon/internal/filters"
	"falcon/internal/forest"
	"falcon/internal/index"
	"falcon/internal/mapreduce"
	"falcon/internal/model"
	"falcon/internal/rules"
	"falcon/internal/table"
)

// trainSongs runs the full batch workflow at laptop scale and returns the
// dataset and result (with its serving artifact).
func trainSongs(t testing.TB, n int, seed int64, mut func(*core.Options)) (*datagen.Dataset, *core.Result) {
	t.Helper()
	opt := core.DefaultOptions()
	opt.Seed = seed
	opt.SampleN = 4000
	opt.SampleY = 20
	opt.ALIterations = 10
	opt.MaskedSelectionMinPool = 1000
	opt.Platform = crowd.NewRandomWorkers(0, 0, seed+1)
	if mut != nil {
		mut(&opt)
	}
	d := datagen.Songs(n, 42)
	res, err := core.Run(d.A, d.B, d.Oracle(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

// loadBundle round-trips the artifact through the wire format and builds a
// serving bundle, so equivalence checks also exercise Save/Load.
func loadBundle(t testing.TB, res *core.Result) *Bundle {
	t.Helper()
	if res.Artifact == nil {
		t.Fatal("run produced no artifact")
	}
	var buf bytes.Buffer
	if err := res.Artifact.Save(&buf); err != nil {
		t.Fatal(err)
	}
	art, err := model.LoadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := NewBundle(art)
	if err != nil {
		t.Fatal(err)
	}
	return bn
}

// checkEquivalence asserts that MatchOne on every A row reproduces exactly
// the batch run's matches for that row.
func checkEquivalence(t *testing.T, d *datagen.Dataset, res *core.Result) {
	t.Helper()
	bn := loadBundle(t, res)
	want := map[int]map[int]bool{}
	for _, p := range res.Matches {
		if want[p.A] == nil {
			want[p.A] = map[int]bool{}
		}
		want[p.A][p.B] = true
	}
	if len(res.Matches) == 0 {
		t.Fatal("batch run produced no matches; equivalence check is vacuous")
	}
	for a := 0; a < d.A.Len(); a++ {
		got, err := bn.MatchOne(d.A.Tuples[a].Values)
		if err != nil {
			t.Fatal(err)
		}
		gotSet := map[int]bool{}
		for _, m := range got {
			gotSet[m.BRow] = true
			if m.Score <= 0.5 {
				t.Errorf("row %d: match %d has score %.3f, want majority confidence", a, m.BRow, m.Score)
			}
		}
		for b := range want[a] {
			if !gotSet[b] {
				t.Errorf("row %d: batch match %d missing from serve answer", a, b)
			}
		}
		for b := range gotSet {
			if !want[a][b] {
				t.Errorf("row %d: serve match %d absent from batch answer", a, b)
			}
		}
	}
}

func TestServeMatchesBatchBlockingPlan(t *testing.T) {
	force := true
	d, res := trainSongs(t, 800, 1, func(o *core.Options) { o.ForceBlocking = &force })
	if !res.UsedBlocking {
		t.Fatal("blocking plan not used")
	}
	if len(res.Artifact.Prefix) == 0 && len(res.Artifact.RuleSeq) > 0 {
		t.Log("note: learned rules needed no prefix indexes")
	}
	checkEquivalence(t, d, res)
}

func TestServeMatchesBatchMatcherOnlyPlan(t *testing.T) {
	d, res := trainSongs(t, 60, 2, nil)
	if res.UsedBlocking {
		t.Fatal("tiny tables should take the matcher-only plan")
	}
	checkEquivalence(t, d, res)
}

func TestServeMatchesBatchAllStrategies(t *testing.T) {
	force := true
	for _, s := range []block.Strategy{
		block.ApplyAll, block.ApplyGreedy, block.ApplyConjunct,
		block.ApplyPredicate, block.MapSide, block.ReduceSplit,
	} {
		strat := s
		d, res := trainSongs(t, 400, 4, func(o *core.Options) {
			o.ForceBlocking = &force
			o.ForceStrategy = &strat
		})
		if res.Strategy != s {
			t.Fatalf("strategy = %v, want %v", res.Strategy, s)
		}
		checkEquivalence(t, d, res)
	}
}

// dirtyTables builds title/year/price tables (short strings and numerics,
// so no feature depends on a corpus drawn from the tables) whose cells
// include every missing marker, whitespace-padded numerics and unparseable
// numerics. Rows of extra use title words no other table contains.
func dirtyTables(nA, nB int, seed int64, extra int) (*table.Table, *table.Table) {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"war", "peace", "art", "code", "go", "data", "cloud", "entity", "match", "block"}
	unseen := []string{"zeta", "omega", "quux", "xyzzy"}
	missing := []string{"", "NULL", " nan ", "?"}
	mk := func(name string, n, extra int) *table.Table {
		t := table.New(name, table.NewSchema("title", "year", "price"))
		for i := 0; i < n+extra; i++ {
			var ws []string
			for j := 0; j < 2+rng.Intn(4); j++ {
				ws = append(ws, words[rng.Intn(len(words))])
			}
			if i >= n {
				ws[rng.Intn(len(ws))] = unseen[rng.Intn(len(unseen))]
				ws = append(ws, unseen[rng.Intn(len(unseen))])
			}
			title := strings.Join(ws, " ")
			year := fmt.Sprint(1990 + rng.Intn(12))
			price := fmt.Sprintf("%.2f", 10+rng.Float64()*60)
			switch rng.Intn(12) {
			case 0:
				year = missing[rng.Intn(len(missing))]
			case 1:
				price = missing[rng.Intn(len(missing))]
			case 2:
				year, price = " "+year+"  ", "\t"+price+" "
			case 3:
				price = "n/a"
			case 4:
				title = missing[rng.Intn(len(missing))]
			}
			t.Append(title, year, price)
		}
		t.InferTypes()
		return t
	}
	return mk("A", nA, extra), mk("B", nB, 0)
}

// handWrittenArtifact trains nothing: a fixed rule sequence whose CNF has a
// predicate of every filter kind — PrefixSet; Equivalence ∪ Range;
// ShareGram ∪ Range — plus one unfilterable clause, and a fixed three-tree
// forest, frozen over (trainA, b). It returns the artifact and the batch
// answer for (probeA, b) through the artifact's own apply path.
func handWrittenArtifact(t testing.TB, trainA, probeA, b *table.Table) (*model.MatcherArtifact, []table.Pair) {
	t.Helper()
	set := feature.Generate(trainA, b)
	pos := func(name string) int {
		for i, fi := range set.BlockingIdx {
			if set.Features[fi].Name == name {
				return i
			}
		}
		t.Fatalf("blocking feature %s missing", name)
		return -1
	}
	full := func(name string) int { return set.BlockingIdx[pos(name)] }
	seq := []rules.Rule{
		{ID: 0, Preds: []rules.Predicate{{Feature: pos("jaccard_word(title)"), Op: rules.LE, Value: 0.3}}},
		{ID: 1, Preds: []rules.Predicate{
			{Feature: pos("exact_match(year)"), Op: rules.LE, Value: 0.5},
			{Feature: pos("abs_diff(price)"), Op: rules.GE, Value: 20},
		}},
		{ID: 2, Preds: []rules.Predicate{
			{Feature: pos("levenshtein(year)"), Op: rules.LT, Value: 0.7},
			{Feature: pos("rel_diff(price)"), Op: rules.GT, Value: 0.5},
		}},
		{ID: 3, Preds: []rules.Predicate{{Feature: pos("jaccard_word(title)"), Op: rules.GT, Value: 0.95}}},
	}
	stump := func(feat int, thr float64, matchAbove bool) *forest.Tree {
		return &forest.Tree{Root: &forest.Node{
			Feature: feat, Threshold: thr,
			Left:  &forest.Node{Feature: -1, Match: !matchAbove},
			Right: &forest.Node{Feature: -1, Match: matchAbove},
		}}
	}
	f := &forest.Forest{NumFeatures: len(set.Features), Trees: []*forest.Tree{
		stump(full("jaccard_word(title)"), 0.45, true),
		stump(full("exact_match(year)"), 0.5, true),
		stump(full("abs_diff(price)"), 8, false), // Missing (−1) votes match
	}}
	m := model.New(set, seq, []float64{0.3, 0.7, 0.8, 0.99}, f)
	art := core.BuildArtifact(m, set, feature.NewVectorizer(set, trainA, b), trainA, b)
	kinds := map[filters.Kind]bool{}
	for _, pd := range art.Prefix {
		kinds[pd.Kind] = true
	}
	if !kinds[filters.PrefixSet] || !kinds[filters.ShareGram] {
		t.Fatalf("artifact carries prefix indexes %v, want a prefix-set and a share-gram one", kinds)
	}
	matches, _, err := art.ApplyContext(context.Background(), mapreduce.Default(), probeA, b)
	if err != nil {
		t.Fatal(err)
	}
	return art, matches
}

// TestServeMatchesBatchEveryFilterKind is checkEquivalence on inputs no
// learned artifact guarantees: a CNF exercising every branch of the candidate
// walker, dirty cells, and probe records whose tokens the frozen
// dictionaries and orderings have never seen (the batch side re-encodes the
// probe table from scratch; serving gives those tokens extension IDs).
func TestServeMatchesBatchEveryFilterKind(t *testing.T) {
	trainA, b := dirtyTables(70, 90, 5, 0)
	probeA, _ := dirtyTables(70, 0, 5, 30) // the training rows, then 30 rows with unseen tokens
	if !slices.Equal(probeA.Tuples[3].Values, trainA.Tuples[3].Values) {
		t.Fatal("probe table does not extend the training table")
	}
	art, matches := handWrittenArtifact(t, trainA, probeA, b)
	checkEquivalence(t, &datagen.Dataset{A: probeA, B: b}, &core.Result{Artifact: art, Matches: matches})
}

func TestRecordByName(t *testing.T) {
	d, res := trainSongs(t, 60, 2, nil)
	bn := loadBundle(t, res)

	names := bn.ColNames()
	vals := map[string]string{}
	for i, n := range names {
		vals[n] = d.A.Tuples[0].Values[i]
	}
	rec, err := bn.Record(vals)
	if err != nil {
		t.Fatal(err)
	}
	fromMap, err := bn.MatchOne(rec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := bn.MatchOne(d.A.Tuples[0].Values)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromMap) != len(direct) {
		t.Fatalf("named record answer %v != positional answer %v", fromMap, direct)
	}

	if _, err := bn.Record(map[string]string{"no_such_column": "x"}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := bn.MatchOne(make([]string, len(names)+1)); err == nil {
		t.Fatal("wrong-arity record accepted")
	}
}

func TestNewBundleRejectsModelOnlyArtifact(t *testing.T) {
	_, res := trainSongs(t, 60, 2, nil)
	interim := model.NewMatcherArtifact(res.Artifact.TrainedModel(), nil)
	if _, err := NewBundle(interim); err == nil {
		t.Fatal("bundle built from artifact without serving payload")
	}
	if _, err := NewBundle(nil); err == nil {
		t.Fatal("bundle built from nil artifact")
	}

	// Well-formed but inconsistent artifacts: each cross-reference MatchOne
	// or the HTTP handler would index through must be refused at bind time.
	trainA, b := dirtyTables(40, 50, 8, 0)
	good, _ := handWrittenArtifact(t, trainA, trainA, b)
	if _, err := NewBundle(good); err != nil {
		t.Fatalf("consistent artifact refused: %v", err)
	}
	for _, c := range []struct {
		name   string
		break_ func(a *model.MatcherArtifact)
		want   string
	}{
		{"correspondence rows short of B", func(a *model.MatcherArtifact) {
			a.Corrs = slices.Clone(a.Corrs)
			a.Corrs[0].RowsB = a.Corrs[0].RowsB[:b.Len()-1]
		}, "rows"},
		{"prefix set lengths short of B", func(a *model.MatcherArtifact) {
			a.Prefix = slices.Clone(a.Prefix)
			a.Prefix[0].SetLen = a.Prefix[0].SetLen[:b.Len()-1]
		}, "rows"},
		{"posting past B", func(a *model.MatcherArtifact) {
			a.Prefix = slices.Clone(a.Prefix)
			a.Prefix[0].Post = slices.Clone(a.Prefix[0].Post)
			a.Prefix[0].Post[0] = []index.Posting{{ID: int32(b.Len()), Pos: 0}}
		}, "posting for row"},
		{"more posting lists than ranked tokens", func(a *model.MatcherArtifact) {
			a.Prefix = slices.Clone(a.Prefix)
			a.Prefix[0].Ranked = a.Prefix[0].Ranked[:len(a.Prefix[0].Post)-1]
		}, "posting lists"},
		{"feature A column outside the schema", func(a *model.MatcherArtifact) {
			a.Feats = slices.Clone(a.Feats)
			a.Feats[0].ACol = len(a.AAttrs)
		}, "outside"},
		{"feature B column outside the schema", func(a *model.MatcherArtifact) {
			a.Feats = slices.Clone(a.Feats)
			a.Feats[len(a.Feats)-1].BCol = -1
		}, "outside"},
		{"rule on a blocking feature that does not exist", func(a *model.MatcherArtifact) {
			a.RuleSeq = []rules.Rule{{ID: 0, Preds: []rules.Predicate{{Feature: len(a.BlockingIdx), Op: rules.LE, Value: 0.5}}}}
		}, "blocking feature"},
		{"corpus with fewer frequencies than tokens", func(a *model.MatcherArtifact) {
			a.Corpora = []model.CorpusData{{Docs: 1, Toks: []string{"x"}}}
		}, "document frequencies"},
		{"no prefix index for a prefix predicate", func(a *model.MatcherArtifact) {
			a.Prefix = nil
		}, "no index built"},
		{"prefix index built above the predicate's threshold", func(a *model.MatcherArtifact) {
			a.Prefix = slices.Clone(a.Prefix)
			for i := range a.Prefix {
				a.Prefix[i].Threshold = 0.99
			}
		}, "threshold"},
	} {
		bad := *good
		c.break_(&bad)
		if _, err := NewBundle(&bad); err == nil {
			t.Errorf("%s: bundle built", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want mention of %q", c.name, err, c.want)
		}
	}
}
