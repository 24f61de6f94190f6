package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"unsafe"

	"repro/internal/qbf"
	"repro/internal/telemetry"
)

// This file is the resource-governance and fault-containment layer: the
// learned-constraint memory budget behind Options.MemLimit and the
// SafeSolve wrappers that convert library panics (including
// invariant.Violated) into errors carrying the stack and partial Stats.
// Cancellation and deadline polling live next to the search loop in
// solver.go (pollStop); the qbfdebug fault-injection hook is in
// fault_qbfdebug.go.

// Byte-accounting model for a learned constraint of n literals: its arena
// footprint (hdrWords header words plus one uint32 word per literal) plus,
// per literal, a charge for the watcher and export slots referencing it.
// Slice headers, allocator slack, and the arrays preallocated per
// variable (not per constraint) are not charged — the
// estimate tracks the quantity that actually grows without bound during
// search.
const perLiteralBytes = int64(unsafe.Sizeof(qbf.NoLit)) + int64(unsafe.Sizeof(int(0)))

func constraintBytes(n int) int64 {
	return 4*int64(hdrWords+n) + int64(n)*perLiteralBytes
}

// governMemory enforces Options.MemLimit at propagation fixpoints. Over
// budget it degrades gracefully first: one aggressive reduction round over
// both learned databases (ignoring the MaxLearned count gate, keeping only
// locked and above-median-activity constraints). Only if that round cannot
// recover the budget — e.g. everything left is locked as a trail reason —
// does it order a clean stop.
func (s *Solver) governMemory() StopReason {
	if s.opt.MemLimit <= 0 || s.learnedBytes <= s.opt.MemLimit {
		return StopNone
	}
	s.stats.MemReductions++
	s.emitEv(telemetry.KindGovernor, 0, s.learnedBytes, s.opt.MemLimit)
	s.reduceDBNow(false)
	s.reduceDBNow(true)
	if s.learnedBytes > s.opt.MemLimit {
		return StopMemLimit
	}
	return StopNone
}

// PanicError is a library panic contained by SafeSolve: the recovered
// value, the stack at the panic site, and the statistics accumulated up to
// the crash. Stats.StopReason is StopPanicked.
type PanicError struct {
	Value any
	Stack []byte
	Stats Stats
}

func (e *PanicError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "core: solver panicked: %v", e.Value)
	return sb.String()
}

// SafeSolve runs Solve with panic containment: any panic raised by the
// engine — including invariant.Violated from the qbfdebug deep checker —
// is converted into a *PanicError carrying the stack and the partial
// Stats, instead of crashing the process. The solver must be considered
// unusable after a contained panic (its internal state is whatever the
// crash left behind); the Stats remain readable.
func (s *Solver) SafeSolve(ctx context.Context) (v Verdict, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.stats.StopReason = StopPanicked
			s.lastResult = Unknown
			v = Unknown
			err = &PanicError{Value: p, Stack: debug.Stack(), Stats: s.stats}
		}
	}()
	return s.Solve(ctx), nil
}

// SafeSolve decides q under ctx with full fault containment: a panic
// anywhere in construction or search (a nil input, a corrupt prefix, a
// violated solver invariant) becomes a *PanicError instead of killing the
// caller. This is the entry point batch drivers should use — one crashing
// instance must not take down a campaign.
func SafeSolve(ctx context.Context, q *qbf.QBF, opt Options) (r Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			r = Result{}
			r.Stats.StopReason = StopPanicked
			err = &PanicError{Value: p, Stack: debug.Stack(), Stats: r.Stats}
		}
	}()
	s, err := NewSolver(q, opt)
	if err != nil {
		return Result{}, err
	}
	v, err := s.SafeSolve(ctx)
	return Result{Verdict: v, Stats: s.Stats()}, err
}
