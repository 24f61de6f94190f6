package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/qbf"
)

// refSet is the reference working set: a member list whose deletion finds
// the member by a linear scan and swaps the last member into the gap.
type refSet struct {
	lit  []qbf.Lit // indexed by variable; 0 = absent
	vars []qbf.Var
}

func (r *refSet) add(l qbf.Lit) {
	if r.lit[l.Var()] == 0 {
		r.vars = append(r.vars, l.Var())
	}
	r.lit[l.Var()] = l
}

func (r *refSet) del(v qbf.Var) {
	if r.lit[v] == 0 {
		return
	}
	r.lit[v] = 0
	i := slices.Index(r.vars, v)
	r.vars[i] = r.vars[len(r.vars)-1]
	r.vars = r.vars[:len(r.vars)-1]
}

// pairwiseReduce is the quadratic definition of the set reductions that
// reduceSet implements by block marking: a member v whose quantifier is
// not keep survives only if some keep member x of the set has v ≺ x.
// Dropped members are deleted in r.vars order. It returns the dropped
// variables.
func pairwiseReduce(s *Solver, r *refSet, keep qbf.Quant) []qbf.Var {
	var drop []qbf.Var
	for _, v := range r.vars {
		if s.quant[v] == keep {
			continue
		}
		kept := false
		for _, x := range r.vars {
			if s.quant[x] == keep && s.before(v, x) {
				kept = true
				break
			}
		}
		if !kept {
			drop = append(drop, v)
		}
	}
	for _, v := range drop {
		r.del(v)
	}
	return drop
}

// spreadVars deals variables 1..nVars out to n groups, every group getting
// at least one (n ≤ nVars).
func spreadVars(rng *rand.Rand, n, nVars int) [][]qbf.Var {
	groups := make([][]qbf.Var, n)
	for i, x := range rng.Perm(nVars) {
		g := i
		if i >= n {
			g = rng.Intn(n)
		}
		groups[g] = append(groups[g], qbf.VarOf(x+1))
	}
	return groups
}

func randomQuant(rng *rand.Rand) qbf.Quant {
	if rng.Intn(2) == 0 {
		return qbf.Forall
	}
	return qbf.Exists
}

// randomTreePrefix builds a quantifier forest of nBlocks blocks over
// variables 1..nVars. Parents and quantifiers are drawn independently, so
// same-quantifier parent/child blocks are common: the shape on which no
// interval labelling decides ≺.
func randomTreePrefix(rng *rand.Rand, nBlocks, nVars int) *qbf.Prefix {
	p := qbf.NewPrefix(nVars)
	blocks := make([]*qbf.Block, nBlocks)
	for i, vars := range spreadVars(rng, nBlocks, nVars) {
		var parent *qbf.Block
		if i > 0 && rng.Intn(5) != 0 {
			parent = blocks[rng.Intn(i)]
		}
		blocks[i] = p.AddBlock(parent, randomQuant(rng), vars...)
	}
	p.Finalize()
	return p
}

// randomPrenexPrefix builds an alternating prenex chain of nRuns blocks
// over variables 1..nVars.
func randomPrenexPrefix(rng *rand.Rand, nRuns, nVars int) *qbf.Prefix {
	runs := make([]qbf.Run, nRuns)
	q := randomQuant(rng)
	for i, vars := range spreadVars(rng, nRuns, nVars) {
		runs[i] = qbf.Run{Quant: q, Vars: vars}
		if q == qbf.Exists {
			q = qbf.Forall
		} else {
			q = qbf.Exists
		}
	}
	return qbf.NewPrenexPrefix(nVars, runs...)
}

// TestReduceSetMatchesPairwise checks the block-marking reductions against
// the pairwise definition on random working sets over two prefix shapes —
// quantifier trees with same-quantifier parent/child blocks, and prenex
// chains. Both must drop the same variables and leave w.vars in the same
// order, since the order of a working set becomes the literal order of the
// learned constraint. Each solver serves many reductions in a row, with
// members added and deleted between them as in analysis, so stale stamps
// and the position index are exercised too.
func TestReduceSetMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(20061))
	shapes := []struct {
		name   string
		prefix func(nBlocks, nVars int) *qbf.Prefix
	}{
		{"tree", func(nb, nv int) *qbf.Prefix { return randomTreePrefix(rng, nb, nv) }},
		{"prenex", func(nb, nv int) *qbf.Prefix { return randomPrenexPrefix(rng, nb, nv) }},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for inst := 0; inst < 150; inst++ {
				nVars := 4 + rng.Intn(20)
				nBlocks := 1 + rng.Intn(nVars)
				p := sh.prefix(nBlocks, nVars)
				s, err := NewSolver(qbf.New(p, nil), Options{Incremental: true, CheckInvariants: true})
				if err != nil {
					t.Fatal(err)
				}
				ref := refSet{lit: make([]qbf.Lit, nVars+1)}
				w := s.newWorkSet()
				for round := 0; round < 40; round++ {
					if round%8 == 0 {
						w = s.newWorkSet()
						ref.vars = ref.vars[:0]
						clear(ref.lit)
					}
					// Grow both sets by the same random literals, then
					// delete a few members, as a resolution step does.
					for k := rng.Intn(nVars); k >= 0; k-- {
						n := 1 + rng.Intn(nVars)
						if rng.Intn(2) == 0 {
							n = -n
						}
						l := qbf.LitOf(n)
						w.add(l)
						ref.add(l)
					}
					for k := rng.Intn(3); k > 0 && len(w.vars) > 0; k-- {
						v := w.vars[rng.Intn(len(w.vars))]
						w.del(v)
						ref.del(v)
					}
					keep := qbf.Exists
					if rng.Intn(2) == 0 {
						keep = qbf.Forall
					}
					before := slices.Clone(w.vars)
					want := pairwiseReduce(s, &ref, keep)
					if keep == qbf.Exists {
						s.universalReduceSet(w)
					} else {
						s.existentialReduceSet(w)
					}
					if !slices.Equal(w.vars, ref.vars) {
						t.Fatalf("%s instance %d round %d (keep %v): set %v reduced to %v, pairwise rule gives %v (drops %v)\nprefix %v",
							sh.name, inst, round, keep, before, w.vars, ref.vars, want, p)
					}
					for i, v := range w.vars {
						if w.pos[v] != int32(i) || w.lit[v] != ref.lit[v] {
							t.Fatalf("%s instance %d round %d: member %d at %d indexed %d, lit %d want %d",
								sh.name, inst, round, v, i, w.pos[v], w.lit[v], ref.lit[v])
						}
					}
				}
			}
		})
	}
}
