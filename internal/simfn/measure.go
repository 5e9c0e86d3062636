package simfn

import "fmt"

// Measure enumerates the similarity measures of Figure 5. A feature combines
// a Measure with a tokenization (for set-based measures) and an attribute
// correspondence; blocking rules reference features, so Measure also drives
// filter inference (§7.4).
type Measure int

const (
	MExactMatch Measure = iota
	MJaccard
	MDice
	MOverlap
	MCosine
	MLevenshtein
	MAbsDiff
	MRelDiff
	MJaro
	MJaroWinkler
	MMongeElkan
	MNeedlemanWunsch
	MSmithWaterman
	MSmithWatermanGotoh
	MTFIDF
	MSoftTFIDF
	numMeasures
)

var measureNames = [numMeasures]string{
	"exact_match", "jaccard", "dice", "overlap", "cosine", "levenshtein",
	"abs_diff", "rel_diff", "jaro", "jaro_winkler", "monge_elkan",
	"needleman_wunsch", "smith_waterman", "smith_waterman_gotoh",
	"tfidf", "soft_tfidf",
}

// String implements fmt.Stringer.
func (m Measure) String() string {
	if m < 0 || m >= numMeasures {
		return fmt.Sprintf("measure(%d)", int(m))
	}
	return measureNames[m]
}

// SetBased reports whether the measure consumes token sets (and therefore
// carries a tokenizer kind in its feature).
func (m Measure) SetBased() bool {
	switch m {
	case MJaccard, MDice, MOverlap, MCosine, MMongeElkan, MTFIDF, MSoftTFIDF:
		return true
	}
	return false
}

// CountBased reports whether the measure depends only on the two token-set
// sizes and their overlap count, and can therefore run on dictionary-encoded
// ID sets (any bijective encoding yields the string path's value).
func (m Measure) CountBased() bool {
	switch m {
	case MJaccard, MDice, MOverlap, MCosine:
		return true
	}
	return false
}

// NumericBased reports whether the measure consumes parsed numbers.
func (m Measure) NumericBased() bool {
	return m == MAbsDiff || m == MRelDiff
}

// CorpusBased reports whether the measure needs document-frequency
// statistics (TF/IDF family).
func (m Measure) CorpusBased() bool {
	return m == MTFIDF || m == MSoftTFIDF
}

// Blockable reports whether Figure 5 allows the measure in blocking-stage
// features. The starred measures (Jaro, Jaro-Winkler, Monge-Elkan,
// Needleman-Wunsch, Smith-Waterman(-Gotoh), TF/IDF, Soft TF/IDF) are too
// slow or not filterable and are used only for matching.
func (m Measure) Blockable() bool {
	switch m {
	case MExactMatch, MJaccard, MDice, MOverlap, MCosine, MLevenshtein, MAbsDiff, MRelDiff:
		return true
	}
	return false
}

// Distance reports whether larger values mean *less* similar (AbsDiff and
// RelDiff are distances; everything else is a similarity).
func (m Measure) Distance() bool {
	return m == MAbsDiff || m == MRelDiff
}
