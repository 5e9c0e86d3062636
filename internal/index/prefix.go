package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"falcon/internal/bitset"
	"falcon/internal/simfn"
	"falcon/internal/table"
	"falcon/internal/tokenize"
)

// Posting locates one prefix token occurrence: the tuple and the token's
// position within the tuple's reordered token set.
type Posting struct {
	ID  int32
	Pos int32
}

// PrefixLen returns how many tokens of an l-token set must be indexed (or
// probed) so that any pair satisfying measure ≥ t shares a token within both
// prefixes. For Overlap and Levenshtein no tight prefix bound applies, so
// the full set is used (a share-token filter).
func PrefixLen(m simfn.Measure, l int, t float64) int {
	if l == 0 {
		return 0
	}
	if t <= 0 {
		return l
	}
	var alpha int // minimal possible overlap with an equal-size partner
	switch m {
	case simfn.MJaccard:
		alpha = int(math.Ceil(t * float64(l)))
	case simfn.MDice:
		alpha = int(math.Ceil(t / (2 - t) * float64(l)))
	case simfn.MCosine:
		alpha = int(math.Ceil(t * t * float64(l)))
	default:
		return l
	}
	p := l - alpha + 1
	if p < 1 {
		p = 1
	}
	if p > l {
		p = l
	}
	return p
}

// LengthBounds returns the [lo,hi] token-set size range an indexed set must
// fall in to possibly satisfy measure ≥ t against a probe set of size lb.
// ok=false means the measure admits no length filter.
func LengthBounds(m simfn.Measure, lb int, t float64) (lo, hi int, ok bool) {
	if t <= 0 || lb == 0 {
		return 0, 0, false
	}
	switch m {
	case simfn.MJaccard:
		return int(math.Ceil(t * float64(lb))), int(math.Floor(float64(lb) / t)), true
	case simfn.MDice:
		r := t / (2 - t)
		return int(math.Ceil(r * float64(lb))), int(math.Floor(float64(lb) / r)), true
	case simfn.MCosine:
		return int(math.Ceil(t * t * float64(lb))), int(math.Floor(float64(lb) / (t * t))), true
	default:
		return 0, 0, false
	}
}

// requiredOverlap returns the minimal |x∩y| for measure ≥ t given both set
// sizes (used by the position filter). ok=false means no bound.
func requiredOverlap(m simfn.Measure, lx, ly int, t float64) (int, bool) {
	if t <= 0 {
		return 0, false
	}
	switch m {
	case simfn.MJaccard:
		return int(math.Ceil(t / (1 + t) * float64(lx+ly))), true
	case simfn.MDice:
		return int(math.Ceil(t * float64(lx+ly) / 2)), true
	case simfn.MCosine:
		return int(math.Ceil(t * math.Sqrt(float64(lx)*float64(ly)))), true
	case simfn.MOverlap:
		lo := lx
		if ly < lo {
			lo = ly
		}
		return int(math.Ceil(t * float64(lo))), true
	default:
		return 0, false
	}
}

// PrefixIndex is the inverted index over reordered prefix tokens plus the
// per-tuple set lengths, implementing the prefix, position, and length
// filters for one (attribute, tokenization) pair at a build threshold.
// Probing with any threshold ≥ the build threshold remains correct.
//
// Postings are keyed by dictionary token ID (the ordering's rank), so the
// hot probe path works on integer token sets without touching strings.
// Tokens the ordering does not cover — possible only when the index is
// built with a mismatched ordering — fall back to a string-keyed side map
// so behavior matches the retired string-keyed implementation exactly.
type PrefixIndex struct {
	Kind      tokenize.Kind
	Threshold float64
	ord       *Ordering
	post      [][]Posting          // token ID (rank) → postings
	extPost   map[string][]Posting // tokens outside the ordering (rare)
	setLen    []int32
	bytes     int64

	scratch sync.Pool // *probeScratch, sized to the indexed table
}

// probeScratch is the reusable per-probe state: the candidate-dedup bitmap
// (cleared bit-by-bit after use, so reuse is O(|cands|), not O(|A|)) and the
// candidate accumulation buffer.
type probeScratch struct {
	seen  *bitset.Bitset
	cands []int32
}

func newPrefixIndex(t *table.Table, kind tokenize.Kind, ord *Ordering, threshold float64) *PrefixIndex {
	idx := &PrefixIndex{
		Kind:      kind,
		Threshold: threshold,
		ord:       ord,
		post:      make([][]Posting, ord.Len()),
		setLen:    make([]int32, t.Len()),
	}
	n := t.Len()
	idx.scratch.New = func() any { return &probeScratch{seen: bitset.New(n)} }
	return idx
}

// addPosting appends one posting, keeping the byte accounting of the
// string-keyed implementation: len(token)+48 per distinct token, 12 per
// posting.
func (idx *PrefixIndex) addPosting(tok string, pst Posting) {
	if id, ok := idx.ord.dict.ID(tok); ok {
		if len(idx.post[id]) == 0 {
			idx.bytes += int64(len(tok)) + 48
		}
		idx.post[id] = append(idx.post[id], pst)
	} else {
		if idx.extPost == nil {
			idx.extPost = map[string][]Posting{}
		}
		if _, ok := idx.extPost[tok]; !ok {
			idx.bytes += int64(len(tok)) + 48
		}
		idx.extPost[tok] = append(idx.extPost[tok], pst)
	}
	idx.bytes += 12
}

// postings returns the posting list for a token string (ID path when the
// ordering knows it, side map otherwise).
func (idx *PrefixIndex) postings(tok string) []Posting {
	if id, ok := idx.ord.dict.ID(tok); ok {
		return idx.post[id]
	}
	return idx.extPost[tok]
}

// HasExtension reports whether any indexed token fell outside the ordering;
// callers probing by pre-encoded IDs must fall back to string probing then.
func (idx *PrefixIndex) HasExtension() bool { return len(idx.extPost) > 0 }

// Parts exports the index's frozen state for artifact serialization: the
// ordering's ranked tokens, the per-rank posting lists, and the per-tuple
// set lengths. Indexes holding extension postings (built under a
// mismatched ordering) cannot be exported by ID; ok is false then. The
// artifact builder always derives the ordering from the indexed column
// itself, so every indexed token has a rank and ok holds.
func (idx *PrefixIndex) Parts() (ranked []string, post [][]Posting, setLen []int32, ok bool) {
	if idx.HasExtension() {
		return nil, nil, nil, false
	}
	return idx.ord.dict.Tokens(), idx.post, idx.setLen, true
}

// PrefixFromParts rebuilds an index exported by Parts. The byte accounting
// (len(token)+48 per distinct posted token, 12 per posting, 4 per setLen
// entry) and the probe-scratch pool match BuildPrefix, so a rebuilt index
// probes and meters identically to the one built at train time. The parts
// come from a decoded artifact, so their cross-references are checked: every
// posting list needs a rank in ord and every posting a row in setLen.
func PrefixFromParts(kind tokenize.Kind, threshold float64, ord *Ordering, post [][]Posting, setLen []int32) (*PrefixIndex, error) {
	if len(post) > ord.Len() {
		return nil, fmt.Errorf("index: %d posting lists for %d ranked tokens", len(post), ord.Len())
	}
	idx := &PrefixIndex{
		Kind:      kind,
		Threshold: threshold,
		ord:       ord,
		post:      post,
		setLen:    setLen,
	}
	n := len(setLen)
	idx.scratch.New = func() any { return &probeScratch{seen: bitset.New(n)} }
	for id, ps := range post {
		if len(ps) > 0 {
			idx.bytes += int64(len(ord.dict.Token(uint32(id)))) + 48
		}
		for _, pst := range ps {
			if pst.ID < 0 || int(pst.ID) >= n {
				return nil, fmt.Errorf("index: posting for row %d, index covers %d rows", pst.ID, n)
			}
		}
		idx.bytes += 12 * int64(len(ps))
	}
	idx.bytes += int64(len(setLen)) * 4
	return idx, nil
}

// BuildPrefix builds the index over column col of t for the given measure
// and threshold.
func BuildPrefix(t *table.Table, col int, kind tokenize.Kind, ord *Ordering, m simfn.Measure, threshold float64) *PrefixIndex {
	idx := newPrefixIndex(t, kind, ord, threshold)
	for i := 0; i < t.Len(); i++ {
		v := t.Value(i, col)
		if table.IsMissing(v) {
			continue
		}
		tokens := ord.Reorder(tokenize.Set(kind, v))
		idx.setLen[i] = int32(len(tokens))
		p := PrefixLen(m, len(tokens), threshold)
		for pos := 0; pos < p; pos++ {
			idx.addPosting(tokens[pos], Posting{ID: int32(i), Pos: int32(pos)})
		}
	}
	idx.bytes += int64(len(idx.setLen)) * 4
	return idx
}

// Ord returns the index's global token ordering.
func (idx *PrefixIndex) Ord() *Ordering { return idx.ord }

// SetLen returns the indexed tuple's token-set size.
func (idx *PrefixIndex) SetLen(id int32) int { return int(idx.setLen[id]) }

// SizeBytes estimates the index memory footprint.
func (idx *PrefixIndex) SizeBytes() int64 { return idx.bytes }

// checkThreshold rejects probes laxer than the build threshold: the index
// prefix would be too short, and silently losing recall is worse than a
// panic on a programming error.
func (idx *PrefixIndex) checkThreshold(threshold float64) {
	if threshold < idx.Threshold {
		panic("index: probe threshold below build threshold")
	}
}

// filterPosting applies the length and position filters to one posting and
// records survivors in the scratch (the seen bitmap dedups across posting
// lists). probe position pos and probe length ly are in reordered-set space.
func (idx *PrefixIndex) filterPosting(s *probeScratch, m simfn.Measure, threshold float64, ly, pos int, pst Posting, lo, hi int, hasLen bool) {
	if s.seen.Get(int(pst.ID)) {
		return
	}
	lx := int(idx.setLen[pst.ID])
	if hasLen && (lx < lo || lx > hi) {
		return
	}
	// Position filter: overlap achievable from here on must reach the
	// required overlap.
	if alpha, ok := requiredOverlap(m, lx, ly, threshold); ok {
		ub := 1 + min(lx-int(pst.Pos)-1, ly-pos-1)
		if ub < alpha {
			return
		}
	}
	s.seen.Set(int(pst.ID))
	s.cands = append(s.cands, pst.ID) //falcon:allow streambound pooled probe scratch, truncated to [:0] by drainSorted after every probe
}

// Probe returns candidate tuple IDs that may satisfy measure ≥ threshold
// against the probe value, applying prefix, length, and position filters.
// probes counts index lookups for cost accounting.
//
// The probe value is tokenized and reordered per call, and indexes built
// under a mismatched ordering (HasExtension) are still answered; hot paths
// encode the probe once and go through a Prober instead.
func (idx *PrefixIndex) Probe(m simfn.Measure, threshold float64, value string) (cands []int32, probes int64) {
	idx.checkThreshold(threshold)
	tokens := idx.ord.Reorder(tokenize.Set(idx.Kind, value))
	ly := len(tokens)
	if ly == 0 {
		return nil, 0
	}
	p := PrefixLen(m, ly, threshold)
	lo, hi, hasLen := LengthBounds(m, ly, threshold)
	s := idx.scratch.Get().(*probeScratch)
	for pos := 0; pos < p; pos++ {
		plist := idx.postings(tokens[pos])
		probes++
		for _, pst := range plist {
			probes++
			idx.filterPosting(s, m, threshold, ly, pos, pst, lo, hi, hasLen)
		}
	}
	cands = drainSorted(s, nil)
	idx.scratch.Put(s)
	return cands, probes
}

// drainSorted sorts the accumulated candidates, appends them to dst, and
// resets the scratch (bitmap cleared per-candidate, accumulator truncated)
// so the next probe starts clean. It never allocates beyond dst's growth.
func drainSorted(s *probeScratch, dst []int32) []int32 {
	if len(s.cands) > 0 {
		slices.Sort(s.cands)
		dst = append(dst, s.cands...) //falcon:allow streambound append-into-caller idiom; the batch buffer is the caller's to truncate per batch
	}
	for _, id := range s.cands {
		s.seen.Clear(int(id))
	}
	s.cands = s.cands[:0]
	return dst
}

// Prober is a probe session over one PrefixIndex: it pins a probe scratch
// (dedup bitmap + accumulator) for its lifetime, so a caller probing many
// rows — a blocking stripe, a serving scratch's requests — pays the pool
// round-trip once instead of per probe. Not safe for concurrent use;
// Release returns the scratch to the index's pool.
type Prober struct {
	idx *PrefixIndex
	s   *probeScratch
	buf []int32
}

// AcquireProber pins a probe scratch and returns the session.
func (idx *PrefixIndex) AcquireProber() *Prober {
	//falcon:allow scratchescape the prober is the sanctioned session wrapper around the probe scratch; callers must pair it with Release
	return &Prober{idx: idx, s: idx.scratch.Get().(*probeScratch)}
}

// Release returns the session's scratch to the index pool.
func (p *Prober) Release() {
	p.idx.scratch.Put(p.s)
	p.s = nil
}

// ProbeIDsInto is Probe over a dictionary-encoded token set — the one ID
// probe body every production caller goes through. ids must be the probe
// value's token IDs under the index ordering's dictionary, sorted ascending
// (= reordered), with tokens unknown to the ordering encoded as distinct
// values ≥ Ordering.Len() (tokenize.Dict.EncodeSorted): they have no
// postings but still cost one lookup each, exactly like the string path.
// The prefix length and length-filter bounds are computed once, every
// posting under the prefix goes through the length/position filters, and the
// sorted survivors are appended to dst (pass nil for a fresh slice), so a
// caller reusing dst allocates nothing once it reaches its high-water mark.
// probes counts lookups: 1 per prefix position + 1 per posting. The index
// must carry no extension tokens (HasExtension).
//
//falcon:hotpath
func (p *Prober) ProbeIDsInto(m simfn.Measure, threshold float64, ids []uint32, dst []int32) (cands []int32, probes int64) {
	idx := p.idx
	idx.checkThreshold(threshold)
	ly := len(ids)
	if ly == 0 {
		return dst, 0
	}
	plen := PrefixLen(m, ly, threshold)
	lo, hi, hasLen := LengthBounds(m, ly, threshold)
	for pos := 0; pos < plen; pos++ {
		var plist []Posting
		if id := ids[pos]; int64(id) < int64(len(idx.post)) {
			plist = idx.post[id]
		}
		probes++
		for _, pst := range plist {
			probes++
			idx.filterPosting(p.s, m, threshold, ly, pos, pst, lo, hi, hasLen)
		}
	}
	return drainSorted(p.s, dst), probes
}

// ProbeIDsBatch probes every encoded row in one call and hands each row's
// surviving candidates to visit in row order, reusing one scratch and one
// candidate buffer across the whole batch (the cands slice is only valid
// during the visit call). Returns the total lookup count.
func (idx *PrefixIndex) ProbeIDsBatch(m simfn.Measure, threshold float64, rows [][]uint32, visit func(row int, cands []int32)) int64 {
	p := idx.AcquireProber()
	defer p.Release()
	var probes int64
	for r, ids := range rows {
		var n int64
		p.buf, n = p.ProbeIDsInto(m, threshold, ids, p.buf[:0])
		probes += n
		visit(r, p.buf)
	}
	return probes
}

// referenceProbe is the retired string-keyed probe, kept verbatim as the
// reference implementation for the golden equivalence tests: per-call map
// allocation, map-based dedup, comparison-callback sort.
func (idx *PrefixIndex) referenceProbe(m simfn.Measure, threshold float64, value string) (cands []int32, probes int64) {
	idx.checkThreshold(threshold)
	tokens := idx.ord.Reorder(tokenize.Set(idx.Kind, value))
	ly := len(tokens)
	if ly == 0 {
		return nil, 0
	}
	p := PrefixLen(m, ly, threshold)
	lo, hi, hasLen := LengthBounds(m, ly, threshold)
	seen := map[int32]bool{}
	for pos := 0; pos < p; pos++ {
		plist := idx.postings(tokens[pos])
		probes++
		for _, pst := range plist {
			probes++
			if seen[pst.ID] {
				continue
			}
			lx := int(idx.setLen[pst.ID])
			if hasLen && (lx < lo || lx > hi) {
				continue
			}
			if alpha, ok := requiredOverlap(m, lx, ly, threshold); ok {
				ub := 1 + min(lx-int(pst.Pos)-1, ly-pos-1)
				if ub < alpha {
					continue
				}
			}
			seen[pst.ID] = true
			cands = append(cands, pst.ID)
		}
	}
	slices.Sort(cands)
	return cands, probes
}

// ReferenceProbe exposes the retired string-keyed probe: the oracle the
// equivalence tests compare Prober candidates and lookup counts against.
func (idx *PrefixIndex) ReferenceProbe(m simfn.Measure, threshold float64, value string) ([]int32, int64) {
	return idx.referenceProbe(m, threshold, value)
}

// LengthIndex is a standalone length filter: token-set length → tuple IDs.
type LengthIndex struct {
	lens []int32 // sorted
	ids  []int32
}

// BuildLength indexes token-set lengths of column col under kind.
func BuildLength(t *table.Table, col int, kind tokenize.Kind) *LengthIndex {
	type pair struct{ l, id int32 }
	var ps []pair
	for i := 0; i < t.Len(); i++ {
		v := t.Value(i, col)
		if table.IsMissing(v) {
			continue
		}
		ps = append(ps, pair{int32(len(tokenize.Set(kind, v))), int32(i)})
	}
	slices.SortFunc(ps, func(a, b pair) int {
		if c := cmp.Compare(a.l, b.l); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	li := &LengthIndex{lens: make([]int32, len(ps)), ids: make([]int32, len(ps))}
	for i, p := range ps {
		li.lens[i] = p.l
		li.ids[i] = p.id
	}
	return li
}

// ProbeRange returns IDs whose length lies in [lo, hi].
func (li *LengthIndex) ProbeRange(lo, hi int) []int32 {
	start := sort.Search(len(li.lens), func(i int) bool { return li.lens[i] >= int32(lo) })
	var out []int32
	for i := start; i < len(li.lens) && li.lens[i] <= int32(hi); i++ {
		out = append(out, li.ids[i])
	}
	return out
}

// SizeBytes estimates the index memory footprint.
func (li *LengthIndex) SizeBytes() int64 { return int64(len(li.lens)) * 8 }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
