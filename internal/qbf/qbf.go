// Package qbf defines the core data structures for quantified Boolean
// formulas with a possibly non-prenex (tree shaped) quantifier structure,
// following Giunchiglia, Narizzano and Tacchella, "Quantifier structure in
// search based procedures for QBFs" (DATE 2006).
//
// A QBF is represented, as in Section II of the paper, by a pair
// ⟨prefix, matrix⟩ where the prefix is a partially ordered set of quantified
// variables and the matrix is a set of clauses. The partial order ≺ is
// induced by a quantifier tree: z ≺ z' holds exactly when z' occurs in the
// scope of z separated by at least one quantifier alternation. The package
// provides the tree, the DFS discovery/finish timestamps d(z), f(z) of
// Section VI (so that z ≺ z' ⇔ d(z) < d(z') ≤ f(z) by the parenthesis
// theorem), prefix levels, and an exponential-time semantic evaluator used
// as a ground-truth oracle by the test suites.
package qbf

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Var is a propositional variable, numbered starting from 1 as in DIMACS.
type Var int

// Lit is a literal: +v for the variable v, -v for its negation.
type Lit int

// PosLit returns the positive literal of v.
func (v Var) PosLit() Lit { return Lit(v) }

// NegLit returns the negative literal of v.
func (v Var) NegLit() Lit { return Lit(-v) }

// Var returns the variable occurring in l (the paper's |l|).
func (l Lit) Var() Var {
	if l < 0 {
		return Var(-l)
	}
	return Var(l)
}

// Neg returns the complementary literal (the paper's l̄).
func (l Lit) Neg() Lit { return -l }

// Positive reports whether l is a positive (unnegated) literal.
func (l Lit) Positive() bool { return l > 0 }

// String renders the literal in DIMACS style.
func (l Lit) String() string { return fmt.Sprintf("%d", int(l)) }

// Quant is a quantifier.
type Quant int8

const (
	// Exists is the existential quantifier ∃.
	Exists Quant = iota
	// Forall is the universal quantifier ∀.
	Forall
)

// Dual returns the other quantifier.
func (q Quant) Dual() Quant {
	if q == Exists {
		return Forall
	}
	return Exists
}

// String renders the quantifier as "e" or "a", the QDIMACS block letters.
func (q Quant) String() string {
	if q == Exists {
		return "e"
	}
	return "a"
}

// Clause is a disjunction of literals. The package treats clauses as sets:
// Normalize sorts by variable and reports tautologies and duplicates.
type Clause []Lit

// Clone returns an independent copy of c.
func (c Clause) Clone() Clause {
	out := make(Clause, len(c))
	copy(out, c)
	return out
}

// Has reports whether the literal l occurs in c.
func (c Clause) Has(l Lit) bool {
	for _, m := range c {
		if m == l {
			return true
		}
	}
	return false
}

// Normalize sorts the clause by variable index, removes duplicate literals
// and reports whether the clause is a tautology (contains both z and z̄).
// The receiver is modified in place; the returned clause aliases it.
func (c Clause) Normalize() (Clause, bool) {
	if len(c) == 0 {
		return c, false
	}
	slices.SortFunc(c, compareLits)
	out := c[:0]
	for i := 0; i < len(c); i++ {
		if i > 0 && c[i] == out[len(out)-1] {
			continue
		}
		if len(out) > 0 && c[i].Var() == out[len(out)-1].Var() {
			return c, true // z and z̄ both present
		}
		out = append(out, c[i])
	}
	return out, false
}

// compareLits orders literals by variable, then negative before positive.
func compareLits(a, b Lit) int {
	if c := cmp.Compare(a.Var(), b.Var()); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// String renders the clause as a set of DIMACS literals.
func (c Clause) String() string {
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Cube is a conjunction of literals, used for goods (learned terms).
type Cube []Lit

// String renders the cube as a set of DIMACS literals in brackets.
func (c Cube) String() string {
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
