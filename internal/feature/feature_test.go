package feature

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"falcon/internal/simfn"
	"falcon/internal/table"
	"falcon/internal/tokenize"
)

func bookTables() (*table.Table, *table.Table) {
	a := table.New("A", table.NewSchema("title", "price", "isbn", "descr"))
	a.Append("the art of computer programming volume one fundamental algorithms third edition hardcover", "99.5", "0201896834", "classic text on algorithms and data structures by donald knuth covering fundamentals in depth")
	a.Append("go programming language", "45", "0134190440", "introduction to go by donovan and kernighan with exercises and examples for working programmers today")
	a.Append("clean code", "40", "0132350882", "a handbook of agile software craftsmanship by robert martin with heuristics and smells catalogued")
	a.InferTypes()

	b := table.New("B", table.NewSchema("title", "price", "isbn", "descr"))
	b.Append("art of computer programming vol 1 fundamental algorithms 3rd edition by knuth hardcover print", "98.0", "0201896834", "the classic algorithms text by knuth volume one third edition covering fundamental algorithms deeply")
	b.Append("the go programming language", "44.99", "0134190440", "the definitive go book by alan donovan and brian kernighan for programmers learning go now")
	b.Append("refactoring", "50", "0201485672", "improving the design of existing code by martin fowler with catalog of refactorings explained")
	b.InferTypes()
	return a, b
}

func TestCorrespondByName(t *testing.T) {
	a, b := bookTables()
	cs := Correspond(a, b)
	if len(cs) != 4 {
		t.Fatalf("got %d correspondences, want 4", len(cs))
	}
	for _, c := range cs {
		if a.Schema.Attrs[c.ACol].Name != b.Schema.Attrs[c.BCol].Name {
			t.Fatalf("misaligned correspondence %v", c)
		}
	}
}

func TestCorrespondCharRules(t *testing.T) {
	a := table.New("A", table.NewSchema("x"))
	a.Append("one two three four five six seven") // medium
	a.InferTypes()
	b := table.New("B", table.NewSchema("x"))
	b.Append("word") // single-word
	b.InferTypes()
	cs := Correspond(a, b)
	if len(cs) != 1 || cs[0].Char != table.MediumString {
		t.Fatalf("char = %v, want medium (lower Figure-5 row wins)", cs[0].Char)
	}
}

func TestCorrespondNumericVsString(t *testing.T) {
	a := table.New("A", table.NewSchema("v"))
	a.Append("123")
	a.InferTypes()
	b := table.New("B", table.NewSchema("v"))
	b.Append("hello there")
	b.InferTypes()
	cs := Correspond(a, b)
	if len(cs) != 1 || cs[0].Char == table.NumericChar {
		t.Fatalf("numeric×string should fall back to the string characteristic, got %v", cs[0].Char)
	}
}

func TestGenerateCounts(t *testing.T) {
	a, b := bookTables()
	set := Generate(a, b)
	if len(set.Features) == 0 {
		t.Fatal("no features generated")
	}
	// title: short string (4-5 words avg) → 11 measures; price numeric → 4;
	// isbn numeric(all digits) → 4; descr long → 6.
	if set.NumBlocking() >= len(set.Features) {
		t.Fatalf("blocking features (%d) should be a strict subset of all (%d)", set.NumBlocking(), len(set.Features))
	}
	for _, i := range set.BlockingIdx {
		if !set.Features[i].Blockable {
			t.Fatalf("BlockingIdx includes non-blockable feature %s", set.Features[i].Name)
		}
	}
	// IDs must be dense and ordered.
	for i, f := range set.Features {
		if f.ID != i {
			t.Fatalf("feature %d has ID %d", i, f.ID)
		}
	}
}

func TestGenerateIncludesTFIDFForLongStrings(t *testing.T) {
	a, b := bookTables()
	set := Generate(a, b)
	f := set.ByName("tfidf_word(descr)")
	if f == nil {
		t.Fatal("tfidf_word(descr) not generated for long-string attribute")
	}
	if f.Blockable {
		t.Fatal("tfidf must not be blockable")
	}
	if f.corpus == nil {
		t.Fatal("tfidf feature has no corpus")
	}
	if v := f.Eval("classic algorithms text", "classic algorithms text"); !(v > 0.99) {
		t.Fatalf("tfidf self-similarity = %v", v)
	}
}

func TestByNameMissing(t *testing.T) {
	a, b := bookTables()
	if Generate(a, b).ByName("nope") != nil {
		t.Fatal("ByName should return nil for unknown name")
	}
}

func TestEvalNumeric(t *testing.T) {
	f := Feature{Measure: simfn.MAbsDiff}
	if got := f.Eval("10", "3.5"); got != 6.5 {
		t.Fatalf("abs_diff = %v", got)
	}
	if got := f.Eval("abc", "3"); got != Missing {
		t.Fatalf("unparseable should be Missing, got %v", got)
	}
	if got := f.Eval("", "3"); got != Missing {
		t.Fatalf("missing should be Missing, got %v", got)
	}
	r := Feature{Measure: simfn.MRelDiff}
	if got := r.Eval("10", "5"); got != 0.5 {
		t.Fatalf("rel_diff = %v", got)
	}
}

func TestEvalStringMeasures(t *testing.T) {
	em := Feature{Measure: simfn.MExactMatch}
	if em.Eval("X", " x ") != 1 {
		t.Fatal("exact match should normalize case and space")
	}
	lev := Feature{Measure: simfn.MLevenshtein}
	if got := lev.Eval("abcd", "abce"); got != 0.75 {
		t.Fatalf("levenshtein = %v", got)
	}
	jac := Feature{Measure: simfn.MJaccard, Token: tokenize.Word}
	if got := jac.Eval("a b", "b c"); math.Abs(got-1.0/3.0) > 1e-9 {
		t.Fatalf("jaccard = %v", got)
	}
}

// TestVectorizerMatchesEval holds the cached, dictionary-encoded,
// bit-parallel vector path to the string oracle: every feature of every
// pair must equal Feature.Eval on the raw cell values bit for bit —
// including missing markers and padded or unparseable numerics.
func TestVectorizerMatchesEval(t *testing.T) {
	a, b := bookTables()
	a.Append("NULL", " 45 ", "?", " nan ")
	b.Append("the go programming language", "n/a", "", "null")
	set := Generate(a, b)
	vz := NewVectorizer(set, a, b)
	for ai := 0; ai < a.Len(); ai++ {
		for bi := 0; bi < b.Len(); bi++ {
			p := table.Pair{A: ai, B: bi}
			vec := vz.Vector(p)
			if len(vec.Values) != len(set.Features) {
				t.Fatalf("vector length %d, want %d", len(vec.Values), len(set.Features))
			}
			for i := range set.Features {
				f := &set.Features[i]
				want := f.Eval(a.Value(p.A, f.ACol), b.Value(p.B, f.BCol))
				if math.Float64bits(vec.Values[i]) != math.Float64bits(want) {
					t.Fatalf("pair %v feature %s: vectorizer %v != eval %v", p, f.Name, vec.Values[i], want)
				}
			}
		}
	}
}

func TestVectorizerCacheReuse(t *testing.T) {
	a, b := bookTables()
	set := Generate(a, b)
	vz := NewVectorizer(set, a, b)
	v1 := vz.Vector(table.Pair{A: 0, B: 0})
	v2 := vz.Vector(table.Pair{A: 0, B: 0})
	for i := range v1.Values {
		if v1.Values[i] != v2.Values[i] {
			t.Fatal("cached vectorization not deterministic")
		}
	}
}

func TestBlockingVector(t *testing.T) {
	a, b := bookTables()
	set := Generate(a, b)
	vz := NewVectorizer(set, a, b)
	p := table.Pair{A: 1, B: 1}
	bv := vz.BlockingVector(p)
	if len(bv.Values) != set.NumBlocking() {
		t.Fatalf("blocking vector length %d, want %d", len(bv.Values), set.NumBlocking())
	}
	full := vz.Vector(p)
	for i, fi := range set.BlockingIdx {
		if bv.Values[i] != full.Values[fi] {
			t.Fatalf("blocking value %d mismatch", i)
		}
	}
}

func TestMatchingPairsScoreHigher(t *testing.T) {
	a, b := bookTables()
	set := Generate(a, b)
	vz := NewVectorizer(set, a, b)
	f := set.ByName("jaccard_word(title)")
	if f == nil {
		// title may be short-string: jaccard_word only for short/medium/long
		t.Fatal("expected jaccard_word(title)")
	}
	match := vz.Vector(table.Pair{A: 1, B: 1}).Values[f.ID]
	nonMatch := vz.Vector(table.Pair{A: 1, B: 2}).Values[f.ID]
	if match <= nonMatch {
		t.Fatalf("match sim %v should exceed non-match %v", match, nonMatch)
	}
}

func TestVectorizeAll(t *testing.T) {
	a, b := bookTables()
	set := Generate(a, b)
	vz := NewVectorizer(set, a, b)
	pairs := []table.Pair{{A: 0, B: 0}, {A: 1, B: 2}}
	vecs := vz.VectorizeAll(pairs)
	if len(vecs) != 2 || vecs[1].Pair != pairs[1] {
		t.Fatal("VectorizeAll wrong")
	}
	for i, p := range pairs {
		if want := vz.Vector(p); !slices.Equal(vecs[i].Values, want.Values) {
			t.Fatalf("VectorizeAll[%d] = %v, Vector = %v", i, vecs[i].Values, want.Values)
		}
	}
}

// Property: every generated blocking feature value is either Missing or in
// [0, ∞), and pure similarities stay within [0,1].
func TestQuickFeatureBounds(t *testing.T) {
	a, b := bookTables()
	set := Generate(a, b)
	vz := NewVectorizer(set, a, b)
	f := func(ai, bi uint8) bool {
		p := table.Pair{A: int(ai) % a.Len(), B: int(bi) % b.Len()}
		vec := vz.Vector(p)
		for i, val := range vec.Values {
			ft := set.Features[i]
			if val == Missing {
				continue
			}
			if val < 0 {
				return false
			}
			if !ft.Measure.Distance() && val > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
