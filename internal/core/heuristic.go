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

// assocCounter returns the counter associated with l per Section VI.
func (s *Solver) assocCounter(l code) int {
	if s.quant[l.v()] == qbf.Exists {
		return s.counter[l]
	}
	return s.counter[l^1]
}

// bumpConstraint bumps the scores of a freshly learned constraint's
// literals and advances the decay. score holds the decayed activity of
// each literal, indexed by code.
func (s *Solver) bumpConstraint(lits []code) {
	for _, l := range lits {
		s.score[l] += s.scoreInc
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
			c := code(v) << 1
			if p := s.score[c]; p > best {
				best = p
			}
			if n := s.score[c|1]; n > best {
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
	for l := code(2); l < code(2*(s.nVars+1)); l++ {
		s.score[l] = float64(s.assocCounter(l))
	}
	s.rebuildBlockBonus()
}

// pickBranch selects the next branching literal among the branchable
// variables (those whose ≺-predecessors are all assigned), or reports that
// none remain.
func (s *Solver) pickBranch() (code, bool) {
	var (
		found     bool
		bestLit   code
		bestLevel int
		bestScore float64
	)
	better := func(level int, score float64, l code) bool {
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
		return l.v() < bestLit.v()
	}
	for bi := range s.blocks {
		b := &s.blocks[bi]
		if b.unassigned == 0 || b.guardOpen > 0 {
			continue
		}
		for _, v := range b.vars {
			l := code(v) << 1
			if s.val[l] != undef {
				continue
			}
			sc := s.score[l]
			if n := s.score[l|1]; n > sc {
				l, sc = l|1, n
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
