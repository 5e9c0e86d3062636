// Package rules implements blocking rules: predicates over feature values,
// conjunction rules extracted from random-forest trees (paper Figure 2,
// get_blocking_rules), rewriting a rule sequence into a positive CNF rule
// (§7.3 step 1), and the predicate simplification optimization (§7.3 opt 3).
//
// A blocking rule is
//
//	p_1(a,b) ∧ … ∧ p_m(a,b) → drop (a,b)
//
// where each predicate compares a feature score f(a.x, b.y) with a constant.
// Feature indexes refer to positions in the feature-vector space the forest
// was trained on (the blocking-feature subspace during the blocking stage).
package rules

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"falcon/internal/bitset"
	"falcon/internal/forest"
)

// Op is a comparison operator.
type Op int

const (
	LE Op = iota // <=
	GT           // >
	LT           // <
	GE           // >=
	EQ           // ==
	NE           // !=
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GT:
		return ">"
	case LT:
		return "<"
	case GE:
		return ">="
	case EQ:
		return "=="
	case NE:
		return "!="
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Negate returns the complementary operator.
func (o Op) Negate() Op {
	switch o {
	case LE:
		return GT
	case GT:
		return LE
	case LT:
		return GE
	case GE:
		return LT
	case EQ:
		return NE
	case NE:
		return EQ
	default:
		panic("rules: unknown op")
	}
}

// Predicate is one comparison f_i op v.
type Predicate struct {
	Feature int
	Op      Op
	Value   float64
}

// Eval evaluates the predicate against a feature value.
func (p Predicate) Eval(v float64) bool {
	switch p.Op {
	case LE:
		return v <= p.Value
	case GT:
		return v > p.Value
	case LT:
		return v < p.Value
	case GE:
		return v >= p.Value
	case EQ:
		return v == p.Value
	case NE:
		return v != p.Value
	default:
		panic("rules: unknown op")
	}
}

// Negate returns the complementary predicate.
func (p Predicate) Negate() Predicate {
	return Predicate{Feature: p.Feature, Op: p.Op.Negate(), Value: p.Value}
}

// String renders the predicate with generic feature naming.
func (p Predicate) String() string {
	return fmt.Sprintf("f%d %s %.4g", p.Feature, p.Op, p.Value)
}

// Rule is a conjunction of predicates that drops a pair when all hold.
type Rule struct {
	ID    int
	Preds []Predicate
}

// Fires reports whether the rule drops the pair with feature vector vec.
func (r *Rule) Fires(vec []float64) bool {
	for _, p := range r.Preds {
		if !p.Eval(vec[p.Feature]) {
			return false
		}
	}
	return true
}

// String renders the rule.
func (r *Rule) String() string {
	parts := make([]string, len(r.Preds))
	for i, p := range r.Preds {
		parts[i] = p.String()
	}
	return fmt.Sprintf("R%d: %s -> drop", r.ID, strings.Join(parts, " AND "))
}

// key returns a canonical representation for de-duplication.
func (r *Rule) key() string {
	parts := make([]string, len(r.Preds))
	for i, p := range r.Preds {
		parts[i] = p.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}

// Coverage returns the bitmap of sample vectors the rule drops (§6). vecs is
// the sample encoded as feature vectors.
func (r *Rule) Coverage(vecs [][]float64) *bitset.Bitset {
	b := bitset.New(len(vecs))
	for i, v := range vecs {
		if r.Fires(v) {
			b.Set(i)
		}
	}
	return b
}

// Extract walks every tree of the forest and returns each root→"No"-leaf
// path as a candidate blocking rule (Figure 2.b), de-duplicated and with
// predicates simplified per §7.3. Rules are assigned dense IDs.
func Extract(f *forest.Forest) []Rule {
	var out []Rule
	seen := map[string]bool{}
	var walk func(n *forest.Node, path []Predicate)
	walk = func(n *forest.Node, path []Predicate) {
		if n.IsLeaf() {
			if !n.Match && len(path) > 0 {
				r := Rule{Preds: append([]Predicate(nil), path...)}
				r = Simplify(r)
				k := r.key()
				if !seen[k] {
					seen[k] = true
					r.ID = len(out)
					out = append(out, r)
				}
			}
			return
		}
		walk(n.Left, append(path, Predicate{Feature: n.Feature, Op: LE, Value: n.Threshold}))
		walk(n.Right, append(path[:len(path):len(path)], Predicate{Feature: n.Feature, Op: GT, Value: n.Threshold}))
	}
	for _, t := range f.Trees {
		walk(t.Root, nil)
	}
	return out
}

// Simplify merges redundant inequality predicates on the same feature
// (§7.3 opt 3): of all "< / <=" predicates keep the one with minimal bound,
// of all "> / >=" the one with maximal bound. EQ/NE predicates pass through.
func Simplify(r Rule) Rule {
	type bound struct {
		has bool
		op  Op
		v   float64
	}
	upper := map[int]bound{} // < or <=
	lower := map[int]bound{} // > or >=
	var passthrough []Predicate
	var order []int
	seenFeat := map[int]bool{}
	note := func(f int) {
		if !seenFeat[f] {
			seenFeat[f] = true
			order = append(order, f)
		}
	}
	for _, p := range r.Preds {
		switch p.Op {
		case LT, LE:
			note(p.Feature)
			b := upper[p.Feature]
			// Smaller bound is tighter; at equal bounds "<" is tighter.
			if !b.has || p.Value < b.v || (p.Value == b.v && p.Op == LT) {
				upper[p.Feature] = bound{true, p.Op, p.Value}
			}
		case GT, GE:
			note(p.Feature)
			b := lower[p.Feature]
			if !b.has || p.Value > b.v || (p.Value == b.v && p.Op == GT) {
				lower[p.Feature] = bound{true, p.Op, p.Value}
			}
		default:
			passthrough = append(passthrough, p)
		}
	}
	out := Rule{ID: r.ID}
	for _, f := range order {
		if b := lower[f]; b.has {
			out.Preds = append(out.Preds, Predicate{Feature: f, Op: b.op, Value: b.v})
		}
		if b := upper[f]; b.has {
			out.Preds = append(out.Preds, Predicate{Feature: f, Op: b.op, Value: b.v})
		}
	}
	out.Preds = append(out.Preds, passthrough...)
	return out
}

// Clause is a disjunction of predicates.
type Clause []Predicate

// Eval reports whether any predicate in the clause holds on vec.
func (c Clause) Eval(vec []float64) bool {
	for _, p := range c {
		if p.Eval(vec[p.Feature]) {
			return true
		}
	}
	return false
}

// CNF is the "positive" rule Q of §7.3: keep (a,b) iff every clause holds.
// Each clause is the negation of one blocking rule in the sequence.
type CNF struct {
	Clauses []Clause
}

// ToCNF rewrites a rule sequence [R_1..R_n] (drop semantics) into the single
// positive CNF rule: keep(a,b) ⇔ ∧_i ∨_j ¬p_j^i.
func ToCNF(seq []Rule) CNF {
	cnf := CNF{Clauses: make([]Clause, 0, len(seq))}
	for _, r := range seq {
		clause := make(Clause, len(r.Preds))
		for i, p := range r.Preds {
			clause[i] = p.Negate()
		}
		cnf.Clauses = append(cnf.Clauses, clause)
	}
	return cnf
}

// Keep reports whether the pair survives blocking (no rule fires).
func (c CNF) Keep(vec []float64) bool {
	for _, cl := range c.Clauses {
		if !cl.Eval(vec) {
			return false
		}
	}
	return true
}

// Features returns the distinct vector positions the CNF's predicates
// compare, ascending: the only slots Keep reads, so the only features a
// consumer of the rule has to compute.
func (c CNF) Features() []int {
	var out []int
	for _, cl := range c.Clauses {
		for _, p := range cl {
			out = append(out, p.Feature)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// String renders the CNF rule.
func (c CNF) String() string {
	var clauses []string
	for _, cl := range c.Clauses {
		var parts []string
		for _, p := range cl {
			parts = append(parts, p.String())
		}
		clauses = append(clauses, "("+strings.Join(parts, " OR ")+")")
	}
	return strings.Join(clauses, " AND ") + " -> keep"
}

// SequenceFires reports whether any rule in the sequence drops vec
// (short-circuit, in order — the execution model of §6).
func SequenceFires(seq []Rule, vec []float64) bool {
	for i := range seq {
		if seq[i].Fires(vec) {
			return true
		}
	}
	return false
}
