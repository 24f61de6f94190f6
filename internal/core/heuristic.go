package core

import (
	"repro/internal/qbf"
	"repro/internal/telemetry"
)

// The branching heuristic follows Section VI. Each literal carries a score
// initialized to its occurrence counter (for an existential literal its
// own; for a universal literal its complement's — a universal branch is
// useful where assigning it shrinks clauses) and updated as a decaying sum
// of learning activity: QUBE periodically halves the score and adds the
// variation of the counter, which ranks literals by an exponential moving
// average of how often they appear in recently learned constraints. We
// realize the same ranking with the multiplicative-increment formulation
// (bump by a growing increment on every learned constraint, occasionally
// rescaling), which avoids full-array sweeps on the hot path.
//
// In ModeTotalOrder literals are ranked by (prefix level, score, id): the
// queue of QUBE(TO). In ModePartialOrder the effective score of a literal
// is its raw score plus the block bonus: the maximum effective score of
// the literals one alternation deeper in its scope. This realizes the
// QUBE(PO) invariant that |l| ≺ |l'| implies score(l) ≥ score(l'), while
// on a SAT instance (a single existential block) every bonus is 0 and the
// heuristic degrades to plain VSIDS.

const (
	bonusRebuildPeriod = 16
	scoreIncGrowth     = 1.1
	scoreRescaleAt     = 1e100
	restartUnit        = 64
)

// rawScore returns the decayed activity score of a literal.
func (s *Solver) rawScore(l qbf.Lit) float64 {
	return s.score[litIdx(l)]
}

// assocCounter returns the counter associated with l per Section VI.
func (s *Solver) assocCounter(l qbf.Lit) int {
	if s.quant[l.Var()] == qbf.Exists {
		return s.counter[litIdx(l)]
	}
	return s.counter[litIdx(l.Neg())]
}

// bumpConstraint bumps the scores of a freshly learned constraint's
// literals and advances the decay.
func (s *Solver) bumpConstraint(lits []qbf.Lit) {
	for _, l := range lits {
		s.score[litIdx(l)] += s.scoreInc
	}
	s.scoreInc *= scoreIncGrowth
	if s.scoreInc > scoreRescaleAt {
		for i := range s.score {
			s.score[i] /= scoreRescaleAt
		}
		s.scoreInc /= scoreRescaleAt
	}
	s.scoreTicks++
	if s.scoreTicks%bonusRebuildPeriod == 0 {
		s.rebuildBlockBonus()
	}
}

// rebuildBlockBonus recomputes, bottom-up, the PO mode bonus of every
// block: the maximum effective score among literals one alternation deeper
// in the block's scope (Section VI).
func (s *Solver) rebuildBlockBonus() {
	if s.opt.Mode != ModePartialOrder {
		return
	}
	maxLit := make([]float64, len(s.blocks))
	// Blocks are stored in DFS preorder, so children follow parents:
	// iterate in reverse for a post-order pass.
	for i := len(s.blocks) - 1; i >= 0; i-- {
		b := &s.blocks[i]
		bonus := 0.0
		for _, c := range b.children {
			var contrib float64
			if s.blocks[c].level == b.level+1 {
				contrib = maxLit[c]
			} else {
				contrib = s.blockBonus[c]
			}
			if contrib > bonus {
				bonus = contrib
			}
		}
		s.blockBonus[i] = bonus
		best := 0.0
		for _, v := range b.vars {
			if p := s.rawScore(v.PosLit()); p > best {
				best = p
			}
			if n := s.rawScore(v.NegLit()); n > best {
				best = n
			}
		}
		maxLit[i] = best + bonus
	}
}

// initScores sets the initial scores to the associated counters, as in
// Section VI, and computes the initial block bonuses.
func (s *Solver) initScores() {
	s.scoreInc = 1
	for v := qbf.MinVar; v.Int() <= s.nVars; v++ {
		for _, l := range [2]qbf.Lit{v.PosLit(), v.NegLit()} {
			i := litIdx(l)
			s.lastCounter[i] = s.assocCounter(l)
			s.score[i] = float64(s.lastCounter[i])
		}
	}
	s.rebuildBlockBonus()
}

// pickBranch selects the next branching literal among the branchable
// variables (those whose ≺-predecessors are all assigned), or reports that
// none remain.
func (s *Solver) pickBranch() (qbf.Lit, bool) {
	var (
		found     bool
		bestLit   qbf.Lit
		bestLevel int
		bestScore float64
	)
	better := func(level int, score float64, l qbf.Lit) bool {
		if !found {
			return true
		}
		if s.opt.Mode == ModeTotalOrder {
			if level != bestLevel {
				return level < bestLevel
			}
		}
		if score != bestScore {
			return score > bestScore
		}
		// Ties break toward the outermost block: the PO bonus makes an
		// ancestor's score ≥ its descendants', so without this rule an
		// exact tie could branch a descendant before its ≺-ancestor in
		// the same chain, wasting the partial-order freedom.
		if level != bestLevel {
			return level < bestLevel
		}
		return l.Var() < bestLit.Var()
	}
	for bi := range s.blocks {
		b := &s.blocks[bi]
		if b.unassigned == 0 || b.guardOpen > 0 {
			continue
		}
		for _, v := range b.vars {
			if s.value[v] != undef {
				continue
			}
			l := v.PosLit()
			sc := s.rawScore(l)
			if n := s.rawScore(v.NegLit()); n > sc {
				l, sc = v.NegLit(), n
			}
			if s.opt.Mode == ModePartialOrder {
				sc += s.blockBonus[bi]
			}
			if better(b.level, sc, l) {
				found, bestLit, bestLevel, bestScore = true, l, b.level, sc
			}
		}
	}
	return bestLit, found
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
func luby(i int) int64 {
	for k := 1; ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// maybeRestart abandons the current branch after a Luby-scheduled number
// of learning events, keeping the learned constraint database. Restart
// intervals grow without bound, so completeness is preserved.
func (s *Solver) maybeRestart() {
	s.restartEvents++
	if s.restartEvents < s.restartLimit || s.level == 0 {
		return
	}
	s.restartEvents = 0
	s.lubyIndex++
	s.restartLimit = luby(s.lubyIndex) * restartUnit
	s.backtrack(0)
	s.stats.Restarts++
	s.emitEv(telemetry.KindRestart, 0, int64(s.lubyIndex), s.restartLimit)
}
