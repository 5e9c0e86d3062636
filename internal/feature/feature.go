// Package feature implements Falcon's automatic feature generation (paper
// §8, Figure 5) and feature-vector computation (the gen_fvs operator).
//
// A feature is sim(a.x, b.y): a similarity measure applied to an attribute
// correspondence. Falcon generates features hands-off by inferring attribute
// types and characteristics, pairing attributes across the two tables, and
// instantiating the Figure-5 measure list for each pair. Starred measures
// are generated only for the matching stage; the blocking stage is limited
// to fast, filterable measures.
package feature

import (
	"fmt"
	"strings"

	"falcon/internal/simfn"
	"falcon/internal/table"
	"falcon/internal/tokenize"
)

// Missing is the sentinel feature value emitted when either side of a
// numeric feature cannot be parsed. Similarity measures handle missing text
// themselves (empty token sets score 0).
const Missing = -1.0

// Feature is one similarity function over one attribute correspondence.
type Feature struct {
	ID      int
	Name    string
	Measure simfn.Measure
	Token   tokenize.Kind // set for set-based measures
	ACol    int           // column in table A
	BCol    int           // column in table B
	Attr    string        // display name of the correspondence
	// Blockable mirrors Figure 5's star: only blockable features may appear
	// in blocking rules.
	Blockable bool
	corpus    *simfn.Corpus // shared per-correspondence corpus (TF/IDF family)
}

// Set is the generated feature space for one table pair.
type Set struct {
	Features []Feature
	// BlockingIdx indexes Features usable during the blocking stage.
	BlockingIdx []int
}

// NumBlocking returns the number of blocking-stage features.
func (s *Set) NumBlocking() int { return len(s.BlockingIdx) }

// ByName returns the feature with the given name, or nil.
func (s *Set) ByName(name string) *Feature {
	for i := range s.Features {
		if s.Features[i].Name == name {
			return &s.Features[i]
		}
	}
	return nil
}

// Correspondence pairs attribute x of A with attribute y of B.
type Correspondence struct {
	ACol, BCol int
	Char       table.AttrChar // the governing characteristic (lower Figure-5 row wins)
	Name       string
}

// Correspond computes attribute correspondences between two tables: first by
// case-insensitive name, then the Figure-5 rule that when the two sides have
// different characteristics the lower row (longer/most general) governs.
// Numeric pairs with numeric only; a numeric attribute matched by name to a
// string attribute is treated as a string pair.
func Correspond(a, b *table.Table) []Correspondence {
	var out []Correspondence
	bIndex := map[string]int{}
	for i, attr := range b.Schema.Attrs {
		bIndex[strings.ToLower(attr.Name)] = i
	}
	for i, attr := range a.Schema.Attrs {
		j, ok := bIndex[strings.ToLower(attr.Name)]
		if !ok {
			continue
		}
		ca, cb := attr.Char, b.Schema.Attrs[j].Char
		var char table.AttrChar
		switch {
		case ca == table.NumericChar && cb == table.NumericChar:
			char = table.NumericChar
		case ca == table.NumericChar:
			char = cb
		case cb == table.NumericChar:
			char = ca
		case cb > ca:
			char = cb
		default:
			char = ca
		}
		out = append(out, Correspondence{ACol: i, BCol: j, Char: char, Name: attr.Name})
	}
	return out
}

// measureSpec describes one generated measure.
type measureSpec struct {
	m         simfn.Measure
	tok       tokenize.Kind
	blockable bool
}

// figure5 maps an attribute characteristic to its Figure-5 measure list.
func figure5(char table.AttrChar) []measureSpec {
	switch char {
	case table.SingleWord:
		return []measureSpec{
			{simfn.MExactMatch, "", true},
			{simfn.MJaccard, tokenize.Gram3, true},
			{simfn.MOverlap, tokenize.Gram3, true},
			{simfn.MDice, tokenize.Gram3, true},
			{simfn.MLevenshtein, "", true},
			{simfn.MJaro, "", false},
			{simfn.MJaroWinkler, "", false},
		}
	case table.ShortString:
		return []measureSpec{
			{simfn.MJaccard, tokenize.Gram3, true},
			{simfn.MOverlap, tokenize.Gram3, true},
			{simfn.MDice, tokenize.Gram3, true},
			{simfn.MJaccard, tokenize.Word, true},
			{simfn.MOverlap, tokenize.Word, true},
			{simfn.MDice, tokenize.Word, true},
			{simfn.MCosine, tokenize.Word, true},
			{simfn.MMongeElkan, tokenize.Word, false},
			{simfn.MNeedlemanWunsch, "", false},
			{simfn.MSmithWaterman, "", false},
			{simfn.MSmithWatermanGotoh, "", false},
		}
	case table.MediumString:
		return []measureSpec{
			{simfn.MJaccard, tokenize.Word, true},
			{simfn.MOverlap, tokenize.Word, true},
			{simfn.MDice, tokenize.Word, true},
			{simfn.MCosine, tokenize.Word, true},
			{simfn.MMongeElkan, tokenize.Word, false},
		}
	case table.LongString:
		return []measureSpec{
			{simfn.MJaccard, tokenize.Word, true},
			{simfn.MOverlap, tokenize.Word, true},
			{simfn.MDice, tokenize.Word, true},
			{simfn.MCosine, tokenize.Word, true},
			{simfn.MTFIDF, tokenize.Word, false},
			{simfn.MSoftTFIDF, tokenize.Word, false},
		}
	case table.NumericChar:
		return []measureSpec{
			{simfn.MExactMatch, "", true},
			{simfn.MAbsDiff, "", true},
			{simfn.MRelDiff, "", true},
			{simfn.MLevenshtein, "", true},
		}
	default:
		return nil
	}
}

// corpusSampleCap limits how many values feed each TF/IDF corpus.
const corpusSampleCap = 20000

// Generate builds the feature set for tables A and B following Figure 5.
func Generate(a, b *table.Table) *Set {
	set := &Set{}
	for _, c := range Correspond(a, b) {
		specs := figure5(c.Char)
		var corpus *simfn.Corpus
		for _, sp := range specs {
			if sp.m.CorpusBased() && corpus == nil {
				corpus = buildCorpus(a, c.ACol, b, c.BCol, sp.tok)
			}
		}
		for _, sp := range specs {
			name := sp.m.String()
			if sp.m.SetBased() {
				name += "_" + string(sp.tok)
			}
			f := Feature{
				ID:        len(set.Features),
				Name:      fmt.Sprintf("%s(%s)", name, c.Name),
				Measure:   sp.m,
				Token:     sp.tok,
				ACol:      c.ACol,
				BCol:      c.BCol,
				Attr:      c.Name,
				Blockable: sp.blockable,
			}
			if sp.m.CorpusBased() {
				f.corpus = corpus
			}
			set.Features = append(set.Features, f)
			if sp.blockable {
				set.BlockingIdx = append(set.BlockingIdx, f.ID)
			}
		}
	}
	return set
}

func buildCorpus(a *table.Table, aCol int, b *table.Table, bCol int, kind tokenize.Kind) *simfn.Corpus {
	c := simfn.NewCorpus()
	add := func(t *table.Table, col int) {
		n := t.Len()
		step := 1
		if n > corpusSampleCap {
			step = n / corpusSampleCap
		}
		for i := 0; i < n; i += step {
			v := t.Value(i, col)
			if table.IsMissing(v) {
				continue
			}
			c.AddDoc(tokenize.Set(kind, v))
		}
	}
	add(a, aCol)
	add(b, bCol)
	return c
}

// Corpus returns the shared per-correspondence corpus, or nil unless the
// measure is corpus-based. Exported so the artifact builder can freeze the
// corpus state alongside the feature definitions.
func (f *Feature) Corpus() *simfn.Corpus { return f.corpus }

// NewBoundFeature reconstructs a feature from its serialized definition,
// rebinding it to a (possibly rebuilt) corpus. Every other field is plain
// data, so a round-tripped feature evaluates bit-identically.
func NewBoundFeature(id int, name string, m simfn.Measure, tok tokenize.Kind, acol, bcol int, attr string, blockable bool, corpus *simfn.Corpus) Feature {
	return Feature{
		ID: id, Name: name, Measure: m, Token: tok,
		ACol: acol, BCol: bcol, Attr: attr, Blockable: blockable,
		corpus: corpus,
	}
}

// EvalOperands computes the feature between row ai of operand a and row bi
// of operand b — the one score kernel: the batch vectorizer and the serving
// path both end here, over operands resolved by the same column builders,
// so their values are bit-identical by construction. Count-set measures run
// on the bit-parallel signatures when both sides carry one and fall back to
// the sorted merge otherwise (see simfn.OverlapPacked).
//
//falcon:hotpath
func (f *Feature) EvalOperands(a *Operand, ai int, b *Operand, bi int, s *simfn.Scratch) float64 {
	switch f.Measure {
	case simfn.MAbsDiff, simfn.MRelDiff:
		if !a.Ok[ai] || !b.Ok[bi] {
			return Missing
		}
		if f.Measure == simfn.MAbsDiff {
			return simfn.AbsDiff(a.Num[ai], b.Num[bi])
		}
		return simfn.RelDiff(a.Num[ai], b.Num[bi])
	case simfn.MJaccard:
		return simfn.JaccardPacked(&a.Pack[ai], &b.Pack[bi])
	case simfn.MDice:
		return simfn.DicePacked(&a.Pack[ai], &b.Pack[bi])
	case simfn.MOverlap:
		return simfn.OverlapSimPacked(&a.Pack[ai], &b.Pack[bi])
	case simfn.MCosine:
		return simfn.CosinePacked(&a.Pack[ai], &b.Pack[bi])
	case simfn.MMongeElkan:
		return s.MongeElkan(a.Tok[ai], b.Tok[bi])
	case simfn.MTFIDF:
		return simfn.TFIDFDocs(&a.Doc[ai], &b.Doc[bi])
	case simfn.MSoftTFIDF:
		return simfn.SoftTFIDFDocs(&a.Doc[ai], &b.Doc[bi], s)
	case simfn.MExactMatch:
		return simfn.ExactMatch(a.Norm[ai], b.Norm[bi])
	case simfn.MLevenshtein:
		return s.Levenshtein(a.Norm[ai], b.Norm[bi])
	case simfn.MJaro:
		return s.Jaro(a.Norm[ai], b.Norm[bi])
	case simfn.MJaroWinkler:
		return s.JaroWinkler(a.Norm[ai], b.Norm[bi])
	case simfn.MNeedlemanWunsch:
		return s.NeedlemanWunsch(a.Norm[ai], b.Norm[bi])
	case simfn.MSmithWaterman:
		return s.SmithWaterman(a.Norm[ai], b.Norm[bi])
	case simfn.MSmithWatermanGotoh:
		return s.SmithWatermanGotoh(a.Norm[ai], b.Norm[bi])
	default:
		panic("feature: unknown measure " + f.Measure.String())
	}
}

// Eval computes the feature value on raw attribute values, from scratch:
// it tokenizes, parses and normalizes per call and runs the allocating
// string-level simfn measures. No production path calls it — it is the
// string oracle the golden tests hold EvalOperands to, bit for bit.
func (f *Feature) Eval(av, bv string) float64 {
	switch {
	case f.Measure.NumericBased():
		x, okx := table.ParseNum(av)
		y, oky := table.ParseNum(bv)
		if !okx || !oky {
			return Missing
		}
		if f.Measure == simfn.MAbsDiff {
			return simfn.AbsDiff(x, y)
		}
		return simfn.RelDiff(x, y)
	case f.Measure.SetBased():
		return f.evalSets(CellTokens(f.Token, av), CellTokens(f.Token, bv))
	default:
		return f.evalStrings(table.Normalize(av), table.Normalize(bv))
	}
}

// CellTokens tokenizes one raw cell; a missing cell is the empty set.
func CellTokens(kind tokenize.Kind, v string) []string {
	if table.IsMissing(v) {
		return []string{}
	}
	return tokenize.Set(kind, v)
}

func (f *Feature) evalSets(ta, tb []string) float64 {
	switch f.Measure {
	case simfn.MJaccard:
		return simfn.Jaccard(ta, tb)
	case simfn.MDice:
		return simfn.Dice(ta, tb)
	case simfn.MOverlap:
		return simfn.Overlap(ta, tb)
	case simfn.MCosine:
		return simfn.Cosine(ta, tb)
	case simfn.MMongeElkan:
		return simfn.MongeElkan(ta, tb)
	case simfn.MTFIDF:
		return f.corpus.TFIDF(ta, tb)
	case simfn.MSoftTFIDF:
		return f.corpus.SoftTFIDF(ta, tb)
	default:
		panic("feature: not a set-based measure: " + f.Measure.String())
	}
}

func (f *Feature) evalStrings(av, bv string) float64 {
	switch f.Measure {
	case simfn.MExactMatch:
		return simfn.ExactMatch(av, bv)
	case simfn.MLevenshtein:
		return simfn.Levenshtein(av, bv)
	case simfn.MJaro:
		return simfn.Jaro(av, bv)
	case simfn.MJaroWinkler:
		return simfn.JaroWinkler(av, bv)
	case simfn.MNeedlemanWunsch:
		return simfn.NeedlemanWunsch(av, bv)
	case simfn.MSmithWaterman:
		return simfn.SmithWaterman(av, bv)
	case simfn.MSmithWatermanGotoh:
		return simfn.SmithWatermanGotoh(av, bv)
	default:
		panic("feature: not a string-based measure: " + f.Measure.String())
	}
}
