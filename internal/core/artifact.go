package core

import (
	"falcon/internal/feature"
	"falcon/internal/filters"
	"falcon/internal/forest"
	"falcon/internal/index"
	"falcon/internal/model"
	"falcon/internal/rules"
	"falcon/internal/simfn"
	"falcon/internal/table"
	"falcon/internal/tokenize"
)

// interimArtifact wraps a point-in-time forest as a model-only artifact so
// the matching stage applies it through the same artifact path the serving
// layer consumes. No serving payload is attached: mid-run, A, B, and the
// vectorizer are still live.
func (st *runState) interimArtifact(f *forest.Forest) *model.MatcherArtifact {
	return model.NewMatcherArtifact(model.New(st.set, st.modelSeq, st.modelSel, f), nil)
}

// BuildArtifact assembles the complete serving artifact for a trained model
// (a run calls it once it has settled on its final model; tests call it with
// a hand-written one): feature specs with their corpora, the
// correspondence dictionaries with every B row's encoded token-ID set, and
// prefix indexes over B for the learned blocking rules.
//
// The batch pipeline indexes table A and probes it with rows of B; serving
// flips the roles — it indexes the frozen B and probes with the incoming
// A-shaped record. The flip is sound because every filterable measure is
// symmetric in its two arguments, and exact because every blocking
// strategy converges to "the pairs the positive CNF rule keeps": the
// serving path re-applies the same CNF to bit-identical feature values, so
// its answer for a record equals the batch answer for that row.
//
// The B-side builds run in-process after the workflow finishes; they are
// part of artifact assembly (the train phase's output contract), not of
// the modeled cluster run, so timelines and counters stay untouched.
func BuildArtifact(m *model.Model, set *feature.Set, vz *feature.Vectorizer, a, b *table.Table) *model.MatcherArtifact {
	sv := &model.ServingData{
		AName:  a.Name,
		AAttrs: append([]table.Attribute(nil), a.Schema.Attrs...),
		B:      b,
		Dicts:  map[string]*tokenize.Dict{},
	}
	corpusIdx := map[*simfn.Corpus]int{}
	seenCorr := map[string]bool{}
	for i := range set.Features {
		f := &set.Features[i]
		ci := -1
		if c := f.Corpus(); c != nil {
			idx, ok := corpusIdx[c]
			if !ok {
				docs, toks, dfs := c.State()
				idx = len(sv.Corpora)
				corpusIdx[c] = idx
				sv.Corpora = append(sv.Corpora, model.CorpusData{Docs: docs, Toks: toks, DFs: dfs})
			}
			ci = idx
		}
		sv.Feats = append(sv.Feats, model.FeatureSpec{
			Name: f.Name, Measure: f.Measure, Token: f.Token,
			ACol: f.ACol, BCol: f.BCol, Attr: f.Attr,
			Blockable: f.Blockable, Corpus: ci,
		})
		if f.Measure.CountBased() {
			key := model.CorrKey(f.ACol, f.BCol, f.Token)
			if !seenCorr[key] {
				seenCorr[key] = true
				dict, _, rowsB := vz.CorrIDs(f.ACol, f.BCol, f.Token)
				sv.Dicts[key] = dict
				sv.Corrs = append(sv.Corrs, model.CorrData{
					ACol: f.ACol, BCol: f.BCol, Kind: f.Token,
					Ranked: append([]string(nil), dict.Tokens()...),
					RowsB:  rowsB,
				})
			}
		}
	}

	if len(m.RuleSeq) > 0 {
		// Analyze the learned CNF over role-flipped blocking features so the
		// needed index specs name B columns, then build each prefix/share
		// index over B. Hash and tree indexes are rebuilt from the B table at
		// load time; only the prefix postings ship in the artifact.
		flipped := make([]*feature.Feature, len(set.BlockingIdx))
		for i, fi := range set.BlockingIdx {
			f := set.Features[fi]
			f.ACol, f.BCol = f.BCol, f.ACol
			flipped[i] = &f
		}
		an := filters.Analyze(rules.ToCNF(m.RuleSeq), flipped)
		for _, spec := range an.NeededIndexes() {
			if spec.Kind != filters.PrefixSet && spec.Kind != filters.ShareGram {
				continue
			}
			ord := index.BuildOrdering(index.TokenFrequencies(b, spec.ACol, spec.Token))
			pidx := index.BuildPrefix(b, spec.ACol, spec.Token, ord, spec.Measure, spec.Threshold)
			ranked, post, setLen, ok := pidx.Parts()
			if !ok {
				continue // unreachable: the ordering covers the indexed column
			}
			sv.Prefix = append(sv.Prefix, model.PrefixData{
				Kind: spec.Kind, BCol: spec.ACol, Token: spec.Token,
				Measure: spec.Measure, Threshold: spec.Threshold,
				Ranked: append([]string(nil), ranked...),
				Post:   post, SetLen: setLen,
			})
		}
	}
	return model.NewMatcherArtifact(m, sv)
}
