package core

import "repro/internal/qbf"

// Witness returns a satisfying assignment for the variables of the
// outermost existential region when the last Solve returned True and the
// formula's prefix starts existentially: the values of every variable that
// precedes the first universal block (on a SAT instance — no universal
// variables at all — this is a complete model). The second result is false
// when no witness is available: the formula was false, unsolved, trivially
// true with an empty matrix, or the relevant assignment did not survive to
// termination — in an incremental session, every Push, Pop, AddClause or
// Assume after the verdict unwinds it, and no witness is available until
// the next Solve that searches.
//
// The witness is read from the terminal good: when the engine concludes
// True through cube machinery, the final cube's existential reduction
// leaves exactly the literals the outermost existential player must
// realize, plus whatever level-0 assignments (units, pures) complement
// them. Variables the formula does not constrain are reported true.
func (s *Solver) Witness() (map[qbf.Var]bool, bool) {
	if s.lastResult != True || s.modelGone {
		return nil, false
	}
	model := make(map[qbf.Var]bool)
	for v := qbf.MinVar; v.Int() <= s.nVars; v++ {
		if s.blockOf[v] < 0 {
			continue
		}
		b := &s.blocks[s.blockOf[v]]
		if b.quant != qbf.Exists || b.level != 1 {
			continue
		}
		switch s.val[code(v)<<1] {
		case vTrue:
			model[v] = true
		case vFalse:
			model[v] = false
		default:
			// Unconstrained at termination: any value works for a
			// level-1 existential in a true formula only if the residual
			// did not depend on it; report true and let the caller's
			// verification (if any) confirm.
			model[v] = true
		}
	}
	return model, true
}

// VerifyWitness checks a purely existential formula against a model: every
// clause must contain a literal the model satisfies. It reports false for
// formulas with universal variables (a map is not a strategy).
func VerifyWitness(q *qbf.QBF, model map[qbf.Var]bool) bool {
	q.Prefix.Finalize()
	for _, b := range q.Prefix.Blocks() {
		if b.Quant == qbf.Forall {
			return false
		}
	}
	for _, c := range q.Matrix {
		ok := false
		for _, l := range c {
			val, has := model[l.Var()]
			if !has {
				continue
			}
			if val == l.Positive() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
