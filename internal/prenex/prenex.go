// Package prenex converts between non-prenex (tree shaped) and prenex QBFs.
//
// Apply implements the four prenexing strategies of Egly, Seidl, Tompits,
// Woltran and Zolda ("Comparing different prenexing strategies for
// quantified Boolean formulas", SAT 2003), the strategies the paper uses to
// produce the inputs of QUBE(TO): ∃↑∀↑, ∃↑∀↓, ∃↓∀↑ and ∃↓∀↓. All four are
// prenex-optimal: the resulting totally ordered prefix extends the tree's
// partial order ≺ and has the same prefix level.
//
// Miniscope implements the converse direction of Section VII.D: it shrinks
// quantifier scopes of a prenex QBF with the two rules
//
//	Qz(ϕ ∧ ψ) ↦ (Qzϕ ∧ ψ)        when z does not occur in ψ
//	Q1z1 Q2z2 ϕ ↦ Q2z2 Q1z1 ϕ    when Q1 = Q2
//
// applied from the innermost quantifier outward, plus the single-clause
// scope eliminations (an existential whose scope is one clause satisfies
// it; a universal whose scope is one clause is deleted from it). The
// variable-splitting rule (20) of QUBOS/QUANTOR/sKizzo is deliberately not
// applied, matching the paper.
package prenex

import (
	"fmt"

	"repro/internal/qbf"
)

// Strategy selects one of the four prenexing strategies.
type Strategy int

const (
	// EUpAUp is ∃↑∀↑: both quantifiers as outermost as possible.
	EUpAUp Strategy = iota
	// EUpADown is ∃↑∀↓: existentials outermost, universals innermost.
	EUpADown
	// EDownAUp is ∃↓∀↑.
	EDownAUp
	// EDownADown is ∃↓∀↓.
	EDownADown
)

// Strategies lists all four strategies in the paper's order.
var Strategies = []Strategy{EUpAUp, EDownADown, EDownAUp, EUpADown}

func (s Strategy) String() string {
	switch s {
	case EUpAUp:
		return "Eup-Aup"
	case EUpADown:
		return "Eup-Adown"
	case EDownAUp:
		return "Edown-Aup"
	case EDownADown:
		return "Edown-Adown"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy maps a strategy's command-line name — eu-au, eu-ad, ed-au
// or ed-ad, for ∃↑∀↑, ∃↑∀↓, ∃↓∀↑ and ∃↓∀↓ — to the Strategy. It is the one
// parser of these names: the CLIs, the solve service and the gate all
// call it.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "eu-au":
		return EUpAUp, nil
	case "eu-ad":
		return EUpADown, nil
	case "ed-au":
		return EDownAUp, nil
	case "ed-ad":
		return EDownADown, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", name)
}

// up reports whether the strategy shifts quantifier q upward.
func (s Strategy) up(q qbf.Quant) bool {
	if q == qbf.Exists {
		return s == EUpAUp || s == EUpADown
	}
	return s == EUpAUp || s == EDownAUp
}

// Apply converts q to prenex form with the given strategy. The matrix is
// shared with the input; only the prefix is rebuilt. Free variables of the
// matrix are left free (they stay outermost existentials either way).
func Apply(q *qbf.QBF, s Strategy) *qbf.QBF {
	p := q.Prefix
	p.Finalize()
	blocks := p.Blocks()
	if len(blocks) == 0 {
		return qbf.New(qbf.NewPrefix(p.MaxVar()), q.Matrix)
	}

	// Choose the parity scheme: slot k holds quantifier scheme(k). Try
	// both starting quantifiers, keep the shorter prefix; break ties in
	// favor of an existential innermost slot (the paper's prenex-optimal
	// convention), then of an existential outermost slot.
	upE, lenE := upSlots(blocks, qbf.Exists)
	upA, lenA := upSlots(blocks, qbf.Forall)
	up, start, total := upE, qbf.Exists, lenE
	switch {
	case lenA < lenE:
		up, start, total = upA, qbf.Forall, lenA
	case lenA == lenE && slotQuant(qbf.Forall, lenA) == qbf.Exists &&
		slotQuant(qbf.Exists, lenE) != qbf.Exists:
		up, start, total = upA, qbf.Forall, lenA
	}

	// Final slots: ↑ blocks take their up slot; ↓ blocks take the lowest
	// slot allowed by their (already placed) children, computed bottom-up
	// over the DFS preorder.
	slot := make([]int, len(blocks))
	for i := len(blocks) - 1; i >= 0; i-- {
		b := blocks[i]
		if s.up(b.Quant) {
			slot[i] = up[i]
			continue
		}
		bound := total
		if slotQuant(start, bound) != b.Quant {
			bound--
		}
		for _, c := range b.Children {
			limit := slot[c.ID()]
			if c.Quant != b.Quant {
				limit--
			}
			if slotQuant(start, limit) != b.Quant {
				limit--
			}
			if limit < bound {
				bound = limit
			}
		}
		slot[i] = bound
	}

	// Assemble the prenex prefix.
	runs := make([]qbf.Run, total)
	for k := 1; k <= total; k++ {
		runs[k-1].Quant = slotQuant(start, k)
	}
	for i, b := range blocks {
		runs[slot[i]-1].Vars = append(runs[slot[i]-1].Vars, b.Vars...)
	}
	var nonEmpty []qbf.Run
	for _, r := range runs {
		if len(r.Vars) > 0 {
			nonEmpty = append(nonEmpty, r)
		}
	}
	return qbf.New(qbf.NewPrenexPrefix(p.MaxVar(), nonEmpty...), q.Matrix)
}

// slotQuant returns the quantifier of slot k in the scheme starting with
// start at slot 1.
func slotQuant(start qbf.Quant, k int) qbf.Quant {
	if k%2 == 1 {
		return start
	}
	return start.Dual()
}

// upSlots computes, top-down, the outermost feasible slot of every block
// under the parity scheme starting with start, together with the number of
// slots used.
func upSlots(blocks []*qbf.Block, start qbf.Quant) ([]int, int) {
	slot := make([]int, len(blocks))
	max := 1
	for i, b := range blocks { // DFS preorder: parents precede children
		min := 1
		if p := b.Parent(); p != nil {
			min = slot[p.ID()]
			if p.Quant != b.Quant {
				min++
			}
		}
		if slotQuant(start, min) != b.Quant {
			min++
		}
		slot[i] = min
		if min > max {
			max = min
		}
	}
	return slot, max
}

// POTOShare computes the footnote-9 metric of a (tree) QBF: the fraction of
// ∃/∀ variable pairs that are incomparable under ≺. A prenex conversion
// makes every such pair comparable, so this is exactly the share of pairs
// whose order the conversion invents. Instances with a share above 0.2 are
// the ones the paper keeps in the QBFEVAL experiment.
func POTOShare(q *qbf.QBF) float64 {
	p := q.Prefix
	p.Finalize()
	var ex, un []qbf.Var
	for _, b := range p.Blocks() {
		if b.Quant == qbf.Exists {
			ex = append(ex, b.Vars...)
		} else {
			un = append(un, b.Vars...)
		}
	}
	if len(ex) == 0 || len(un) == 0 {
		return 0
	}
	incomparable := 0
	for _, x := range ex {
		for _, y := range un {
			if !p.Comparable(x, y) {
				incomparable++
			}
		}
	}
	return float64(incomparable) / float64(len(ex)*len(un))
}
