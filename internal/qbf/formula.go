package qbf

import (
	"fmt"
	"slices"
	"strings"
)

// QBF is a quantified Boolean formula ⟨prefix, matrix⟩ with a CNF matrix
// and a possibly non-prenex quantifier prefix.
type QBF struct {
	Prefix *Prefix
	Matrix []Clause
}

// New returns a QBF with the given prefix and matrix. The prefix is
// finalized; the matrix is used as is (call NormalizeMatrix to clean it up).
func New(p *Prefix, matrix []Clause) *QBF {
	p.Finalize()
	return &QBF{Prefix: p, Matrix: matrix}
}

// MaxVar returns the largest variable index mentioned by the prefix or the
// matrix.
func (q *QBF) MaxVar() int {
	max := q.Prefix.MaxVar()
	for _, c := range q.Matrix {
		for _, l := range c {
			if int(l.Var()) > max {
				max = int(l.Var())
			}
		}
	}
	return max
}

// Clone returns a deep copy of the QBF.
func (q *QBF) Clone() *QBF {
	m := make([]Clause, len(q.Matrix))
	for i, c := range q.Matrix {
		m[i] = c.Clone()
	}
	return &QBF{Prefix: q.Prefix.Clone(), Matrix: m}
}

// NormalizeMatrix sorts every clause, drops duplicate literals and removes
// tautological clauses. It returns the number of tautologies removed.
func (q *QBF) NormalizeMatrix() int {
	removed := 0
	out := q.Matrix[:0]
	for _, c := range q.Matrix {
		nc, taut := c.Normalize()
		if taut {
			removed++
			continue
		}
		out = append(out, nc)
	}
	q.Matrix = out
	return removed
}

// Validate checks the structural invariants of Section II: every literal's
// variable is positive, and no clause mentions a variable twice. Matrix
// variables beyond the prefix range are free, which is legal (treated as
// outermost existentials). It returns the first violation found, or nil.
//
// A clause sorted by variable, as NormalizeMatrix leaves every clause, is
// checked in one pass with no allocation: a repeated variable is then
// adjacent to its first occurrence. Only an unsorted clause is checked
// against a set of the variables seen, one set shared by all such clauses.
func (q *QBF) Validate() error {
	var seen map[Var]bool
	for i, c := range q.Matrix {
		sorted, err := validateSorted(i, c)
		if err != nil {
			return err
		}
		if sorted {
			continue
		}
		if seen == nil {
			seen = make(map[Var]bool, len(c))
		}
		err = validateWith(i, c, seen)
		for _, l := range c {
			delete(seen, l.Var())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// validateSorted checks clause i while its variables increase. At the
// first step down it returns false and no error: every literal before the
// step is valid and distinct, so no violation is lost.
func validateSorted(i int, c Clause) (bool, error) {
	for j, l := range c {
		v := l.Var()
		if v <= 0 {
			return true, invalidLit(i, l)
		}
		if j > 0 {
			switch prev := c[j-1].Var(); {
			case v == prev:
				return true, twice(i, v)
			case v < prev:
				return false, nil
			}
		}
	}
	return true, nil
}

// validateWith checks clause i against seen, which it leaves holding the
// clause's variables up to the first violation.
func validateWith(i int, c Clause, seen map[Var]bool) error {
	for _, l := range c {
		v := l.Var()
		if v <= 0 {
			return invalidLit(i, l)
		}
		if seen[v] {
			return twice(i, v)
		}
		seen[v] = true
	}
	return nil
}

func invalidLit(i int, l Lit) error {
	return fmt.Errorf("clause %d: invalid literal %d", i, int(l))
}

func twice(i int, v Var) error {
	return fmt.Errorf("clause %d: variable %d occurs twice", i, v)
}

// ScopeConsistent checks that every clause's bound variables lie on a single
// root-to-leaf path of the quantifier tree, the condition under which the
// ⟨prefix, matrix⟩ pair represents an actual non-prenex formula (every
// clause of a formula occurs at one node of the tree, so all its variables
// are bound on the path above that node). The recursive semantics is only
// well defined under this condition. Free variables (outermost existential)
// are always consistent. The first offending clause index is returned with
// an error, or -1 and nil.
func (q *QBF) ScopeConsistent() (int, error) {
	q.Prefix.Finalize()
	for i, c := range q.Matrix {
		if _, err := q.ClauseBlock(c); err != nil {
			return i, fmt.Errorf("clause %d %v: %v", i, c, err)
		}
	}
	return -1, nil
}

// ClauseBlock returns the deepest block among the blocks binding c's
// variables, checking that those blocks form a chain (pairwise
// ancestor-related). It returns nil for a clause of free variables only.
func (q *QBF) ClauseBlock(c Clause) (*Block, error) {
	q.Prefix.Finalize()
	var deepest *Block
	for _, l := range c {
		b := q.Prefix.BlockOf(l.Var())
		if b == nil {
			continue
		}
		switch {
		case deepest == nil, deepest.AncestorOf(b):
			deepest = b
		case b.AncestorOf(deepest):
			// keep deepest
		default:
			return nil, fmt.Errorf("variables %v span incomparable scopes", c)
		}
	}
	return deepest, nil
}

// FreeVars returns the matrix variables not bound by the prefix, sorted.
func (q *QBF) FreeVars() []Var {
	var out []Var
	for _, c := range q.Matrix {
		for _, l := range c {
			if v := l.Var(); !q.Prefix.Bound(v) {
				out = append(out, v)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// BindFreeVars rebuilds the prefix so that every free matrix variable is
// bound by a fresh outermost existential block, per Section II point 2.
// It returns the number of variables bound. The prefix is replaced.
func (q *QBF) BindFreeVars() int {
	free := q.FreeVars()
	if len(free) == 0 {
		return 0
	}
	q.Prefix = q.Prefix.CloneBinding(free, q.MaxVar())
	return len(free)
}

// Assign returns the QBF q_l of Section II: clauses containing l are
// deleted, l̄ is deleted from the remaining clauses, and |l| is removed
// from the prefix order. The receiver is not modified. Assign is the
// reference (functional, not incremental) implementation used by the
// oracle evaluator and the tests; the solver keeps its own trail instead.
func (q *QBF) Assign(l Lit) *QBF {
	m := make([]Clause, 0, len(q.Matrix))
	neg := l.Neg()
	for _, c := range q.Matrix {
		if c.Has(l) {
			continue
		}
		if c.Has(neg) {
			nc := make(Clause, 0, len(c)-1)
			for _, x := range c {
				if x != neg {
					nc = append(nc, x)
				}
			}
			m = append(m, nc)
		} else {
			m = append(m, c)
		}
	}
	return &QBF{Prefix: q.Prefix.without(l.Var()), Matrix: m}
}

// without returns a copy of the prefix with v removed.
func (p *Prefix) without(v Var) *Prefix {
	np := NewPrefix(p.maxVar)
	var walk func(src *Block, parent *Block)
	walk = func(src *Block, parent *Block) {
		vars := make([]Var, 0, len(src.Vars))
		for _, x := range src.Vars {
			if x != v {
				vars = append(vars, x)
			}
		}
		target := parent
		if len(vars) > 0 {
			if parent != nil && parent.Quant == src.Quant {
				for _, x := range vars {
					np.bind(parent, x)
				}
			} else {
				target = np.AddBlock(parent, src.Quant, vars...)
			}
		}
		for _, c := range src.Children {
			walk(c, target)
		}
	}
	for _, r := range p.roots {
		walk(r, nil)
	}
	np.Finalize()
	return np
}

// UniversalReduce applies Lemma 3 to a clause: it removes every universal
// literal l for which no existential literal l' of the clause satisfies
// |l| ≺ |l'|. Free variables count as existential and precede everything.
// The input is not modified; the reduced clause is returned.
func UniversalReduce(p *Prefix, c Clause) Clause {
	p.Finalize()
	out := make(Clause, 0, len(c))
	for _, l := range c {
		v := l.Var()
		if p.QuantOf(v) == Exists {
			out = append(out, l)
			continue
		}
		keep := false
		for _, lp := range c {
			vp := lp.Var()
			if p.QuantOf(vp) == Exists && p.Before(v, vp) {
				keep = true
				break
			}
		}
		if keep {
			out = append(out, l)
		}
	}
	return out
}

// ExistentialReduce is the dual of UniversalReduce for cubes (goods): it
// removes every existential literal l for which no universal literal l' of
// the cube satisfies |l| ≺ |l'|.
func ExistentialReduce(p *Prefix, c Cube) Cube {
	p.Finalize()
	out := make(Cube, 0, len(c))
	for _, l := range c {
		v := l.Var()
		if p.QuantOf(v) == Forall {
			out = append(out, l)
			continue
		}
		keep := false
		for _, lp := range c {
			vp := lp.Var()
			if p.QuantOf(vp) == Forall && p.Before(v, vp) {
				keep = true
				break
			}
		}
		if keep {
			out = append(out, l)
		}
	}
	return out
}

// Contradictory reports whether c contains no existential literal, the
// condition of Lemma 4 under which the whole QBF is false.
func (q *QBF) Contradictory(c Clause) bool {
	for _, l := range c {
		if q.Prefix.QuantOf(l.Var()) == Exists {
			return false
		}
	}
	return true
}

// String renders the QBF as "prefix : matrix".
func (q *QBF) String() string {
	var sb strings.Builder
	sb.WriteString(q.Prefix.String())
	sb.WriteString(" : {")
	for i, c := range q.Matrix {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.String())
	}
	sb.WriteString("}")
	return sb.String()
}

// Stats summarizes a formula for reporting.
type Stats struct {
	Vars         int // bound variables
	Existentials int
	Universals   int
	Clauses      int
	Literals     int
	PrefixLevel  int
	Blocks       int
	Prenex       bool
}

// Stats computes summary statistics of the formula.
func (q *QBF) Stats() Stats {
	q.Prefix.Finalize()
	s := Stats{
		Clauses:     len(q.Matrix),
		PrefixLevel: q.Prefix.MaxLevel(),
		Blocks:      len(q.Prefix.Blocks()),
		Prenex:      q.Prefix.IsPrenex(),
	}
	for _, b := range q.Prefix.Blocks() {
		s.Vars += len(b.Vars)
		if b.Quant == Exists {
			s.Existentials += len(b.Vars)
		} else {
			s.Universals += len(b.Vars)
		}
	}
	for _, c := range q.Matrix {
		s.Literals += len(c)
	}
	return s
}
