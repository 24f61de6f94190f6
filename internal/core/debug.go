package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/qbf"
)

// DebugLearnedSizes returns a histogram (size → count) of the live learned
// constraints, separately for clauses and cubes. Diagnostic aid for tests
// and tuning; not part of the solving API.
func (s *Solver) DebugLearnedSizes() (clauses, cubes map[int]int) {
	clauses = make(map[int]int)
	cubes = make(map[int]int)
	for ci := s.origEnd; ci < s.ar.end(); ci = s.ar.next(ci) {
		if s.ar.deleted(ci) {
			continue
		}
		if s.ar.isCube(ci) {
			cubes[s.ar.size(ci)]++
		} else {
			clauses[s.ar.size(ci)]++
		}
	}
	return clauses, cubes
}

// DebugSampleCubes returns up to n learned cubes rendered with quantifier
// annotations, most recent first.
func (s *Solver) DebugSampleCubes(n int) []string {
	// The arena only walks forward; collect the live cube refs first and
	// render them in reverse (most recent first).
	var refs []int
	for ci := s.origEnd; ci < s.ar.end(); ci = s.ar.next(ci) {
		if !s.ar.deleted(ci) && s.ar.isCube(ci) {
			refs = append(refs, ci)
		}
	}
	var out []string
	var sb strings.Builder
	for i := len(refs) - 1; i >= 0 && len(out) < n; i-- {
		lits := s.ar.appendLits(nil, refs[i])
		sort.Slice(lits, func(a, b int) bool { return lits[a].Var() < lits[b].Var() })
		sb.Reset()
		sb.WriteByte('[')
		for j, l := range lits {
			if j > 0 {
				sb.WriteByte(' ')
			}
			q := byte('e')
			if s.quant[l.Var()] == qbf.Forall {
				q = 'a'
			}
			sb.WriteByte(q)
			fmt.Fprintf(&sb, "%d", l.Int())
		}
		sb.WriteByte(']')
		out = append(out, sb.String())
	}
	return out
}

// DebugSolutionHook, when non-nil, is called at every solution event with
// the number of assigned universal variables and the number of universal
// variables overall — a cheap probe for how local solutions are.
func (s *Solver) SetDebugSolutionHook(f func(assignedU, totalU int)) {
	s.debugSolutionHook = f
}

func (s *Solver) debugCountUniversals() (assigned, total int) {
	for v := qbf.MinVar; v.Int() <= s.nVars; v++ {
		if s.quant[v] == qbf.Forall {
			total++
			if s.value[v] != undef {
				assigned++
			}
		}
	}
	return assigned, total
}
