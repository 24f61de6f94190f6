// Package circuit provides a hash-consed boolean formula DAG (the role the
// propositional extraction of NuSMV's BMC front end and the clause-form
// conversions of Jackson–Sheridan play in the paper) together with a
// Tseitin-style CNF converter. The diameter-calculation workload (Section
// VII.C) builds its I(s), T(s,s') and φn formulas with this package and
// converts the matrix to CNF before handing it to the solver.
package circuit

import (
	"fmt"

	"repro/internal/invariant"
	"repro/internal/qbf"
)

// Op is a gate kind.
type Op int8

const (
	// OpConst is a boolean constant (True/False distinguished by Node sign).
	OpConst Op = iota
	// OpVar is an input variable.
	OpVar
	// OpAnd is an n-ary conjunction.
	OpAnd
	// OpOr is an n-ary disjunction.
	OpOr
	// OpXor is a binary exclusive or.
	OpXor
	// OpIff is a binary equivalence.
	OpIff
)

// Node is a reference to a gate in a Builder. Negative values denote the
// negation of the gate |Node|; node 1 is the constant true, so -1 is false.
// The zero Node is invalid.
type Node int32

// Neg returns the negation of n.
func (n Node) Neg() Node { return -n }

type gate struct {
	op   Op
	v    qbf.Var // OpVar
	args []Node  // OpAnd, OpOr (n-ary), OpXor, OpIff (binary)
}

// Builder owns a DAG of gates with structural hashing: building the same
// gate twice returns the same Node, which keeps Tseitin conversion compact.
type Builder struct {
	gates []gate // index 0 unused; index 1 is the constant true
	hash  map[string]Node
	vars  map[qbf.Var]Node
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	b := &Builder{
		hash: make(map[string]Node),
		vars: make(map[qbf.Var]Node),
	}
	b.gates = append(b.gates, gate{}, gate{op: OpConst})
	return b
}

// True returns the constant true node.
func (b *Builder) True() Node { return 1 }

// False returns the constant false node.
func (b *Builder) False() Node { return -1 }

// Var returns the node of input variable v, creating it on first use.
func (b *Builder) Var(v qbf.Var) Node {
	if v <= 0 {
		invariant.Violated("circuit: invalid variable %d", v)
	}
	if n, ok := b.vars[v]; ok {
		return n
	}
	n := b.push(gate{op: OpVar, v: v})
	b.vars[v] = n
	return n
}

func (b *Builder) push(g gate) Node {
	key := gateKey(g)
	if n, ok := b.hash[key]; ok {
		return n
	}
	b.gates = append(b.gates, g)
	n := Node(len(b.gates) - 1)
	b.hash[key] = n
	return n
}

func gateKey(g gate) string {
	key := fmt.Sprintf("%d:%d:", g.op, g.v)
	for _, a := range g.args {
		key += fmt.Sprintf("%d,", a)
	}
	return key
}

// Not returns the negation of n.
func (b *Builder) Not(n Node) Node { return -n }

// And returns the conjunction of ns with constant folding and
// single-operand simplification.
func (b *Builder) And(ns ...Node) Node {
	args := make([]Node, 0, len(ns))
	for _, n := range ns {
		switch n {
		case b.True():
			continue
		case b.False():
			return b.False()
		}
		args = append(args, n)
	}
	switch len(args) {
	case 0:
		return b.True()
	case 1:
		return args[0]
	}
	return b.push(gate{op: OpAnd, args: args})
}

// Or returns the disjunction of ns with constant folding.
func (b *Builder) Or(ns ...Node) Node {
	args := make([]Node, 0, len(ns))
	for _, n := range ns {
		switch n {
		case b.False():
			continue
		case b.True():
			return b.True()
		}
		args = append(args, n)
	}
	switch len(args) {
	case 0:
		return b.False()
	case 1:
		return args[0]
	}
	return b.push(gate{op: OpOr, args: args})
}

// Xor returns x ⊕ y.
func (b *Builder) Xor(x, y Node) Node {
	switch {
	case x == b.False():
		return y
	case y == b.False():
		return x
	case x == b.True():
		return y.Neg()
	case y == b.True():
		return x.Neg()
	case x == y:
		return b.False()
	case x == y.Neg():
		return b.True()
	}
	return b.push(gate{op: OpXor, args: []Node{x, y}})
}

// Iff returns x ≡ y.
func (b *Builder) Iff(x, y Node) Node { return b.Xor(x, y).Neg() }

// Implies returns x ⇒ y.
func (b *Builder) Implies(x, y Node) Node { return b.Or(x.Neg(), y) }

// Ite returns if-then-else(c, t, e).
func (b *Builder) Ite(c, t, e Node) Node {
	return b.Or(b.And(c, t), b.And(c.Neg(), e))
}

// Eval computes the value of n under the input assignment asg (indexed by
// variable). Missing variables default to false.
func (b *Builder) Eval(n Node, asg map[qbf.Var]bool) bool {
	memo := make(map[Node]bool)
	return b.eval(n, asg, memo)
}

func (b *Builder) eval(n Node, asg map[qbf.Var]bool, memo map[Node]bool) bool {
	if n < 0 {
		return !b.eval(-n, asg, memo)
	}
	if v, ok := memo[n]; ok {
		return v
	}
	g := b.gates[n]
	var out bool
	switch g.op {
	case OpConst:
		out = true
	case OpVar:
		out = asg[g.v]
	case OpAnd:
		out = true
		for _, a := range g.args {
			if !b.eval(a, asg, memo) {
				out = false
				break
			}
		}
	case OpOr:
		out = false
		for _, a := range g.args {
			if b.eval(a, asg, memo) {
				out = true
				break
			}
		}
	case OpXor:
		out = b.eval(g.args[0], asg, memo) != b.eval(g.args[1], asg, memo)
	case OpIff:
		out = b.eval(g.args[0], asg, memo) == b.eval(g.args[1], asg, memo)
	default:
		invariant.Violated("circuit: unknown op")
	}
	memo[n] = out
	return out
}

// InputVars returns the set of input variables n depends on.
func (b *Builder) InputVars(n Node) map[qbf.Var]bool {
	out := make(map[qbf.Var]bool)
	seen := make(map[Node]bool)
	var walk func(n Node)
	walk = func(n Node) {
		if n < 0 {
			n = -n
		}
		if seen[n] {
			return
		}
		seen[n] = true
		g := b.gates[n]
		if g.op == OpVar {
			out[g.v] = true
		}
		for _, a := range g.args {
			walk(a)
		}
	}
	walk(n)
	return out
}
