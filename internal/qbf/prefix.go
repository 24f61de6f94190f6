package qbf

import (
	"fmt"
	"sort"
	"strings"
)

// Block is one node of the quantifier tree: a maximal run of variables bound
// by the same quantifier at the same tree position, together with the
// subtrees quantified in its scope. A QBF in prenex form is a degenerate
// tree in which every block has at most one child.
type Block struct {
	Quant    Quant
	Vars     []Var
	Children []*Block

	parent *Block
	id     int // index in Prefix.blocks, set by Prefix.finalize
	level  int // prefix level of the block's variables
	d, f   int // DFS discovery/finish timestamps (Section VI)
	sd, sf int // structural DFS interval (per block, not per alternation)
}

// AncestorOf reports whether b is a (possibly improper) tree ancestor of c,
// i.e. c lies in the scope of b. Valid after the owning Prefix's Finalize.
func (b *Block) AncestorOf(c *Block) bool {
	return b.sd <= c.sd && c.sf <= b.sf
}

// Interval returns the block's structural DFS interval: b is an ancestor of
// c exactly when b's interval contains c's. Valid after Finalize.
func (b *Block) Interval() (sd, sf int) { return b.sd, b.sf }

// Parent returns the block whose scope directly contains b, or nil for a
// root block.
func (b *Block) Parent() *Block { return b.parent }

// ID returns the block's dense index inside its Prefix, assigned in DFS
// preorder. It is only valid after the owning Prefix has been finalized.
func (b *Block) ID() int { return b.id }

// Level returns the prefix level shared by all variables of the block.
func (b *Block) Level() int { return b.level }

// Prefix is the quantifier structure of a QBF: a forest of quantifier
// blocks. The zero value is not usable; build prefixes with NewPrefix,
// NewPrenexPrefix, or incrementally with AddBlock and then Finalize.
type Prefix struct {
	roots  []*Block
	blocks []*Block // DFS preorder

	maxVar int
	// blockOf is the only per-variable array (1-based; nil for a free
	// variable): a variable's quantifier, level and timestamps are its
	// block's.
	blockOf  []*Block
	finished bool
}

// NewPrefix returns an empty prefix able to describe variables 1..maxVar.
// Variables that are never added to a block are free; GrowVar extends the
// range later if needed.
func NewPrefix(maxVar int) *Prefix {
	p := &Prefix{}
	p.grow(maxVar)
	return p
}

// grow extends blockOf to cover maxVar. Growth is amortized (the capacity
// at least doubles), so binding variables in increasing order past the
// initial range stays linear. The new array is the only allocation, also
// in a race-instrumented build, where append(s, make(…)...) would
// allocate its argument too.
func (p *Prefix) grow(maxVar int) {
	if maxVar <= p.maxVar {
		return
	}
	if maxVar >= cap(p.blockOf) {
		nb := make([]*Block, len(p.blockOf), max(maxVar+1, 2*cap(p.blockOf)))
		copy(nb, p.blockOf)
		p.blockOf = nb
	}
	p.blockOf = p.blockOf[:maxVar+1]
	p.maxVar = maxVar
}

// GrowVar extends the variable range of the prefix to cover v.
func (p *Prefix) GrowVar(v Var) { p.grow(int(v)) }

// MaxVar returns the largest variable index the prefix can describe.
func (p *Prefix) MaxVar() int { return p.maxVar }

// AddBlock appends a new block binding vars with quantifier q in the scope
// of parent (nil for a new root block) and returns it. Variables must not be
// bound twice; the call panics otherwise, because a QBF in which a variable
// is bound by two quantifiers is outside the representation of Section II.
// Finalize must be called after the last AddBlock.
func (p *Prefix) AddBlock(parent *Block, q Quant, vars ...Var) *Block {
	b := p.newBlock(parent, q, len(vars))
	for _, v := range vars {
		if v <= 0 {
			panic(fmt.Sprintf("qbf: invalid variable %d", v))
		}
		if !p.bind(b, v) {
			panic(fmt.Sprintf("qbf: variable %d bound twice", v))
		}
	}
	return b
}

// BindBlock is AddBlock for untrusted input. It binds vars, which must be
// positive, in order and stops at the first one that is already bound,
// by an earlier block or earlier in vars. It returns that variable, or 0
// when every variable was bound. After a nonzero return the prefix must be
// discarded.
func (p *Prefix) BindBlock(parent *Block, q Quant, vars []Var) (*Block, Var) {
	b := p.newBlock(parent, q, len(vars))
	for _, v := range vars {
		if !p.bind(b, v) {
			return b, v
		}
	}
	return b, 0
}

// newBlock links an empty block with room for n variables under parent
// (nil: a new root).
func (p *Prefix) newBlock(parent *Block, q Quant, n int) *Block {
	b := &Block{Quant: q, Vars: make([]Var, 0, n), parent: parent}
	if parent == nil {
		p.roots = append(p.roots, b)
	} else {
		parent.Children = append(parent.Children, b)
	}
	p.finished = false
	return b
}

// bind adds the positive variable v to block b, growing the range if
// needed. It reports false, changing nothing, if v is already bound.
func (p *Prefix) bind(b *Block, v Var) bool {
	p.grow(int(v))
	if p.blockOf[v] != nil {
		return false
	}
	p.blockOf[v] = b
	b.Vars = append(b.Vars, v)
	return true
}

// Roots returns the root blocks of the quantifier forest.
func (p *Prefix) Roots() []*Block { return p.roots }

// Blocks returns all blocks in DFS preorder. Valid after Finalize.
func (p *Prefix) Blocks() []*Block { return p.blocks }

// Bound reports whether v is bound by some quantifier of the prefix.
func (p *Prefix) Bound(v Var) bool {
	return int(v) <= p.maxVar && p.blockOf[v] != nil
}

// QuantOf returns the quantifier binding v. Free variables are existential
// (Section II: an unbound x is treated as if the QBF were ∃x ϕ).
func (p *Prefix) QuantOf(v Var) Quant {
	if !p.Bound(v) {
		return Exists
	}
	return p.blockOf[v].Quant
}

// BlockOf returns the block binding v, or nil if v is free.
func (p *Prefix) BlockOf(v Var) *Block {
	if int(v) > p.maxVar {
		return nil
	}
	return p.blockOf[v]
}

// Finalize computes block ids, prefix levels and the DFS timestamps d(z)
// and f(z) of Section VI. It must be called after the tree is fully built
// and before Before, Level, D or F are used. Finalize is idempotent.
func (p *Prefix) Finalize() {
	if p.finished {
		return
	}
	p.blocks = p.blocks[:0]

	// The timestamp starts at 1 and is incremented each time the DFS
	// enters a block whose quantifier differs from the innermost open
	// block's quantifier (the variable "z′ with the greatest d(z′) whose
	// f(z′) is not yet set" in the paper's formulation).
	ts := 1
	sts := 0
	var walk func(b *Block, parent *Block)
	walk = func(b *Block, parent *Block) {
		if parent != nil && parent.Quant != b.Quant {
			ts++
		}
		sts++
		b.sd = sts
		b.id = len(p.blocks)
		p.blocks = append(p.blocks, b)
		if parent == nil {
			b.level = 1
		} else if parent.Quant == b.Quant {
			b.level = parent.level
		} else {
			b.level = parent.level + 1
		}
		b.d = ts
		for _, c := range b.Children {
			walk(c, b)
		}
		b.f = ts
		b.sf = sts
	}
	for i, r := range p.roots {
		// Sibling roots are independent scopes: advance the timestamp so
		// that d intervals of distinct roots do not nest and variables of
		// distinct roots come out incomparable.
		if i > 0 {
			ts++
		}
		walk(r, nil)
	}
	p.finished = true
}

// D returns the DFS discovery timestamp d(v) of Section VI, 0 for a free
// variable. On trees whose edges all alternate quantifiers (the shape the
// paper's example and all the workload generators produce) d and f realize
// the parenthesis-theorem test; Before itself uses the structural test,
// exact for every tree. Valid after Finalize.
func (p *Prefix) D(v Var) int {
	if !p.Bound(v) {
		return 0
	}
	return p.blockOf[v].d
}

// F returns the DFS finish timestamp f(v), 0 for a free variable. See D.
// Valid after Finalize.
func (p *Prefix) F(v Var) int {
	if !p.Bound(v) {
		return 0
	}
	return p.blockOf[v].f
}

// Level returns the prefix level of v: the length of the longest chain
// z1 ≺ … ≺ v. Free variables have level 0 (outermost of everything).
// Valid after Finalize.
func (p *Prefix) Level(v Var) int {
	if !p.Bound(v) {
		return 0
	}
	return p.blockOf[v].level
}

// MaxLevel returns the prefix level of the whole QBF, i.e. the maximum
// prefix level of its variables. Valid after Finalize.
func (p *Prefix) MaxLevel() int {
	max := 0
	for _, b := range p.blocks {
		if b.level > max {
			max = b.level
		}
	}
	return max
}

// Before reports whether z ≺ z' in the partial prefix order: z' occurs in
// the scope of z separated by at least one quantifier alternation. The test
// is structural: z's block must be a tree ancestor of z”s block with a
// strictly smaller prefix level (levels grow exactly at alternations along
// a path). On trees whose edges all alternate quantifiers this coincides
// with the paper's parenthesis-theorem test d(z) < d(z') ≤ f(z) (Section
// VI, eq. 13); on trees with same-quantifier parent-child blocks and
// branching, no single interval labelling can decide ≺, so the structural
// test is the exact generalization. A free variable precedes every bound
// variable and no bound variable precedes a free one. Valid after Finalize.
func (p *Prefix) Before(z, zp Var) bool {
	zb, zpb := p.Bound(z), p.Bound(zp)
	switch {
	case !zb && !zpb:
		return false
	case !zb:
		return true // free variables are outermost existentials
	case !zpb:
		return false
	}
	bz, bzp := p.blockOf[z], p.blockOf[zp]
	return bz.AncestorOf(bzp) && bz.level < bzp.level
}

// Comparable reports whether z and z' are ordered either way by ≺.
func (p *Prefix) Comparable(z, zp Var) bool {
	return p.Before(z, zp) || p.Before(zp, z)
}

// IsPrenex reports whether the prefix is in prenex form in the paper's
// sense: for each existential x and universal y, either x ≺ y or y ≺ x.
// A chain-shaped tree is always prenex; a branching tree may still qualify
// if the branching never separates an ∃/∀ pair.
//
// An ∃ and a ∀ variable whose blocks lie on one root path are always
// comparable: the quantifier changes between the two blocks, so the prefix
// level grows. So the prefix is non-prenex exactly when some block, or the
// virtual root above the roots, has two different children, one whose
// subtree binds an existential and one whose subtree binds a universal.
// One post-order pass over the blocks decides it.
func (p *Prefix) IsPrenex() bool {
	p.Finalize()
	has := make([]uint8, len(p.blocks)) // per block: the quantifiers bound in its subtree
	for i := len(p.blocks) - 1; i >= 0; i-- {
		b := p.blocks[i]
		if len(b.Vars) > 0 {
			has[i] = 1 << b.Quant
		}
		sub, split := splitsQuantifiers(b.Children, has)
		if split {
			return false
		}
		has[i] |= sub
	}
	_, split := splitsQuantifiers(p.roots, has)
	return !split
}

// splitsQuantifiers reports whether two different blocks of bs have
// subtrees binding an existential and a universal respectively, and
// returns the union of their subtree quantifier sets.
func splitsQuantifiers(bs []*Block, has []uint8) (uint8, bool) {
	const e, a = 1 << Exists, 1 << Forall
	var all uint8
	nE, nA, nBoth := 0, 0, 0
	for _, c := range bs {
		m := has[c.id]
		all |= m
		if m&e != 0 {
			nE++
		}
		if m&a != 0 {
			nA++
		}
		if m == e|a {
			nBoth++
		}
	}
	// A pair of different children exists unless the only ∃ child is
	// also the only ∀ child.
	return all, nE > 0 && nA > 0 && !(nE == 1 && nA == 1 && nBoth == 1)
}

// NewPrenexPrefix builds a prenex (totally ordered) prefix from a sequence
// of (quantifier, variables) runs, outermost first. Adjacent runs with the
// same quantifier are merged into one block.
func NewPrenexPrefix(maxVar int, runs ...Run) *Prefix {
	p := NewPrefix(maxVar)
	var cur *Block
	for _, r := range runs {
		if len(r.Vars) == 0 {
			continue
		}
		if cur != nil && cur.Quant == r.Quant {
			for _, v := range r.Vars {
				if !p.bind(cur, v) {
					panic(fmt.Sprintf("qbf: variable %d bound twice", v))
				}
			}
			continue
		}
		cur = p.AddBlock(cur, r.Quant, r.Vars...)
	}
	p.Finalize()
	return p
}

// Run is one quantifier block of a prenex prefix, outermost first.
type Run struct {
	Quant Quant
	Vars  []Var
}

// Clone returns a deep copy of the prefix (blocks are fresh objects).
func (p *Prefix) Clone() *Prefix {
	q := p.cloneUnder(p.maxVar, nil)
	if p.finished {
		q.Finalize()
	}
	return q
}

// CloneBinding returns a finalized deep copy of the prefix whose range
// covers maxVar, in which the variables free, unbound in p, are bound by a
// fresh outermost existential block enclosing all of p's roots (Section II
// point 2: a free variable is treated as if the QBF were ∃x ϕ). With no
// free variables it is a finalized Clone.
func (p *Prefix) CloneBinding(free []Var, maxVar int) *Prefix {
	q := p.cloneUnder(maxVar, free)
	q.Finalize()
	return q
}

// cloneUnder copies the tree into a fresh prefix of range max(p.maxVar,
// maxVar), under a new existential root block of free if free is
// non-empty.
func (p *Prefix) cloneUnder(maxVar int, free []Var) *Prefix {
	q := NewPrefix(max(p.maxVar, maxVar))
	var top *Block
	if len(free) > 0 {
		top = q.AddBlock(nil, Exists, free...)
	}
	var walk func(src *Block, parent *Block)
	walk = func(src *Block, parent *Block) {
		nb := q.AddBlock(parent, src.Quant, src.Vars...)
		for _, c := range src.Children {
			walk(c, nb)
		}
	}
	for _, r := range p.roots {
		walk(r, top)
	}
	return q
}

// Vars returns all bound variables in DFS preorder of their blocks.
func (p *Prefix) Vars() []Var {
	var out []Var
	var walk func(b *Block)
	walk = func(b *Block) {
		out = append(out, b.Vars...)
		for _, c := range b.Children {
			walk(c)
		}
	}
	for _, r := range p.roots {
		walk(r)
	}
	return out
}

// NumBound returns the number of bound variables.
func (p *Prefix) NumBound() int {
	n := 0
	for _, b := range p.blocks {
		n += len(b.Vars)
	}
	if !p.finished {
		n = len(p.Vars())
	}
	return n
}

// String renders the prefix as a parenthesized tree, e.g.
// "e 1 (a 2 (e 3 4) ; a 5 (e 6))".
func (p *Prefix) String() string {
	var sb strings.Builder
	var walk func(b *Block)
	walk = func(b *Block) {
		sb.WriteString(b.Quant.String())
		for _, v := range b.Vars {
			fmt.Fprintf(&sb, " %d", v)
		}
		if len(b.Children) > 0 {
			sb.WriteString(" (")
			for i, c := range b.Children {
				if i > 0 {
					sb.WriteString(" ; ")
				}
				walk(c)
			}
			sb.WriteString(")")
		}
	}
	for i, r := range p.roots {
		if i > 0 {
			sb.WriteString(" ; ")
		}
		walk(r)
	}
	return sb.String()
}

// RemoveEmptyBlocks returns a copy of the prefix in which blocks that ended
// up with no variables are spliced out (their children are promoted), and
// adjacent same-quantifier parent/child single-chain blocks are merged.
// Useful after transformations that drop variables.
func (p *Prefix) RemoveEmptyBlocks() *Prefix {
	q := NewPrefix(p.maxVar)
	var walk func(src *Block, parent *Block)
	walk = func(src *Block, parent *Block) {
		target := parent
		if len(src.Vars) > 0 {
			if parent != nil && parent.Quant == src.Quant {
				// Merge into the parent run.
				for _, v := range src.Vars {
					q.bind(parent, v)
				}
			} else {
				target = q.AddBlock(parent, src.Quant, src.Vars...)
			}
		}
		for _, c := range src.Children {
			walk(c, target)
		}
	}
	for _, r := range p.roots {
		walk(r, nil)
	}
	q.Finalize()
	return q
}

// SortedVarsByLevel returns the bound variables sorted by (level, var),
// a convenient deterministic order for total-order solvers and printers.
func (p *Prefix) SortedVarsByLevel() []Var {
	p.Finalize()
	vars := p.Vars()
	sort.Slice(vars, func(i, j int) bool {
		li, lj := p.blockOf[vars[i]].level, p.blockOf[vars[j]].level
		if li != lj {
			return li < lj
		}
		return vars[i] < vars[j]
	})
	return vars
}
