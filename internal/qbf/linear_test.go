package qbf

import (
	"math/rand"
	"testing"

	"repro/internal/lineartest"
)

// pairwisePrenex is the definition IsPrenex decides: every existential is
// comparable with every universal.
func pairwisePrenex(p *Prefix) bool {
	p.Finalize()
	var ex, un []Var
	for _, b := range p.Blocks() {
		if b.Quant == Exists {
			ex = append(ex, b.Vars...)
		} else {
			un = append(un, b.Vars...)
		}
	}
	for _, x := range ex {
		for _, y := range un {
			if !p.Comparable(x, y) {
				return false
			}
		}
	}
	return true
}

// randomForest builds a random quantifier forest over up to maxVars
// variables: sibling roots, same-quantifier nesting, and empty blocks.
func randomForest(rng *rand.Rand, maxVars int) *Prefix {
	n := 1 + rng.Intn(maxVars)
	p := NewPrefix(n)
	var blocks []*Block
	for v := 1; v <= n; {
		var parent *Block
		if len(blocks) > 0 && rng.Intn(4) > 0 {
			parent = blocks[rng.Intn(len(blocks))]
		}
		q := Quant(rng.Intn(2))
		var vars []Var
		for k := rng.Intn(3); k > 0 && v <= n; k-- { // 0 to 2 variables
			vars = append(vars, Var(v))
			v++
		}
		blocks = append(blocks, p.AddBlock(parent, q, vars...))
	}
	p.Finalize()
	return p
}

func TestIsPrenexMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	prenex := 0
	for i := 0; i < 3000; i++ {
		p := randomForest(rng, 12)
		want := pairwisePrenex(p)
		if got := p.IsPrenex(); got != want {
			t.Fatalf("IsPrenex = %v, pairwise definition = %v on %s", got, want, p)
		}
		if want {
			prenex++
		}
	}
	// Both answers must be well represented for the comparison to mean
	// anything.
	if prenex < 300 || prenex > 2700 {
		t.Fatalf("%d of 3000 random forests prenex: generator too one-sided", prenex)
	}
}

func TestIsPrenexLinearTwoBlockChain(t *testing.T) {
	const side = 200_000
	ex, un := make([]Var, side), make([]Var, side)
	for i := range ex {
		ex[i], un[i] = Var(i+1), Var(side+i+1)
	}
	p := NewPrenexPrefix(2*side, Run{Exists, ex}, Run{Forall, un})
	var got bool
	lineartest.Within(t, "IsPrenex on a two-block chain of 200k variables per side", func() { got = p.IsPrenex() })
	if !got {
		t.Fatal("a chain is prenex")
	}
}

func TestIsPrenexLinearAlternatingChain(t *testing.T) {
	const blocks = 200_000
	p := NewPrefix(blocks)
	var b *Block
	for v := 1; v <= blocks; v++ {
		b = p.AddBlock(b, Quant(v%2), Var(v))
	}
	p.Finalize()
	var got bool
	lineartest.Within(t, "IsPrenex on a 200k-block alternating chain", func() { got = p.IsPrenex() })
	if !got {
		t.Fatal("a chain is prenex")
	}
}

// validateWithMaps is Validate as it was written first: one map per
// clause. Validate must report the same first violation.
func validateWithMaps(q *QBF) error {
	for i, c := range q.Matrix {
		seen := make(map[Var]bool, len(c))
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
	}
	return nil
}

func TestValidateMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	failures := 0
	for i := 0; i < 5000; i++ {
		m := make([]Clause, 1+rng.Intn(4))
		for j := range m {
			c := make(Clause, rng.Intn(6))
			for k := range c {
				c[k] = Lit(rng.Intn(13) - 6) // zeros, repeats, both signs
			}
			if rng.Intn(2) == 0 {
				c, _ = c.Normalize()
			}
			m[j] = c
		}
		q := &QBF{Prefix: NewPrefix(6), Matrix: m}
		got, want := q.Validate(), validateWithMaps(q)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("Validate = %v, reference = %v on %v", got, want, m)
		}
		if got != nil {
			failures++
		}
	}
	if failures < 500 || failures > 4500 {
		t.Fatalf("%d of 5000 matrices invalid: generator too one-sided", failures)
	}
}
