package simfn

import (
	"math"

	"falcon/internal/bitset"
)

// Bit-parallel variants of the ID-set measures. A PackedIDs couples a
// sorted, duplicate-free ID set with its bitset.Signature so the
// intersection cardinality — the only quantity the four set measures need
// beyond the two lengths — comes from AND + popcount over 64-bit words
// instead of an element-wise merge. The final float arithmetic is exactly
// the formula the *IDs functions use, on the same exact integer inputs, so
// the packed measures are bit-identical to the merge path by construction.

// packMinLen is the exact-dispatch threshold: sets shorter than this skip
// signature packing and stay on the sorted-merge/galloping path, where the
// merge's few comparisons beat the signature's fixed word-loop overhead.
const packMinLen = 12

// PackedIDs is a sorted, duplicate-free ID set plus its (optional)
// bit-parallel signature. The zero value is an empty set; build one with
// PackIDs, or rebuild in place with Repack to reuse signature capacity.
type PackedIDs struct {
	IDs []uint32
	sig bitset.Signature
}

// PackIDs returns a PackedIDs over ids (which it aliases, not copies). Sets
// shorter than packMinLen are left unpacked — OverlapPacked dispatches them
// to the merge path.
func PackIDs(ids []uint32) PackedIDs {
	var p PackedIDs
	p.Repack(ids)
	return p
}

// PackRows packs a whole column of sorted ID sets, once, at column-build
// time, so the per-pair kernels never pay packing cost.
func PackRows(rows [][]uint32) []PackedIDs {
	out := make([]PackedIDs, len(rows))
	for i, ids := range rows {
		out[i].Repack(ids)
	}
	return out
}

// Repack rebuilds p in place over ids, reusing the signature's block/word
// capacity so steady-state repacking (e.g. one serve request's record set)
// does not allocate once buffers reach their high-water mark.
func (p *PackedIDs) Repack(ids []uint32) {
	p.IDs = ids
	if len(ids) >= packMinLen {
		p.sig.AppendSignature(ids)
	} else {
		p.sig.AppendSignature(nil)
	}
}

// Packed reports whether the set carries a signature (i.e. met the
// packMinLen dispatch threshold).
func (p *PackedIDs) Packed() bool { return !p.sig.Empty() }

// OverlapPacked returns |a ∩ b|, exactly. Both sides packed → AND+popcount
// over signature words; otherwise — short sets, or a size imbalance big
// enough that galloping beats the word sweep — the sorted-merge path.
func OverlapPacked(a, b *PackedIDs) int {
	if len(a.IDs) == 0 || len(b.IDs) == 0 {
		return 0
	}
	if a.Packed() && b.Packed() {
		small, big := len(a.IDs), len(b.IDs)
		if small > big {
			small, big = big, small
		}
		if big < gallopCutoff*small {
			return bitset.AndCount(&a.sig, &b.sig)
		}
	}
	return OverlapIDs(a.IDs, b.IDs)
}

// JaccardPacked returns |a∩b| / |a∪b|, bit-identical to JaccardIDs.
func JaccardPacked(a, b *PackedIDs) float64 {
	if len(a.IDs) == 0 && len(b.IDs) == 0 {
		return 0
	}
	inter := OverlapPacked(a, b)
	union := len(a.IDs) + len(b.IDs) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// DicePacked returns 2|a∩b| / (|a|+|b|), bit-identical to DiceIDs.
func DicePacked(a, b *PackedIDs) float64 {
	if len(a.IDs)+len(b.IDs) == 0 {
		return 0
	}
	return 2 * float64(OverlapPacked(a, b)) / float64(len(a.IDs)+len(b.IDs))
}

// OverlapSimPacked returns |a∩b| / min(|a|,|b|), bit-identical to
// OverlapSimIDs.
func OverlapSimPacked(a, b *PackedIDs) float64 {
	if len(a.IDs) == 0 || len(b.IDs) == 0 {
		return 0
	}
	m := len(a.IDs)
	if len(b.IDs) < m {
		m = len(b.IDs)
	}
	return float64(OverlapPacked(a, b)) / float64(m)
}

// CosinePacked returns |a∩b| / sqrt(|a|·|b|), bit-identical to CosineIDs.
func CosinePacked(a, b *PackedIDs) float64 {
	if len(a.IDs) == 0 || len(b.IDs) == 0 {
		return 0
	}
	return float64(OverlapPacked(a, b)) / math.Sqrt(float64(len(a.IDs))*float64(len(b.IDs)))
}
