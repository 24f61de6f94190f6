// Package result is the shared vocabulary of solve outcomes: the verdict
// of a run, the reason an undecided run stopped, the search-effort
// statistics every engine reports, and the process exit codes the CLIs
// derive from them. It exists so that the engine (internal/core), the
// benchmark harness (internal/bench) and the solve service
// (internal/server) agree on one set of types instead of each declaring
// its own — core aliases these types under its historical names, so
// result is the single source of truth without forcing every caller to
// import a second package.
package result

import "time"

// Verdict is the outcome of a solve call.
type Verdict int

const (
	// Unknown means a resource limit or a cancellation stopped the search;
	// Stats.StopReason says which.
	Unknown Verdict = iota
	// True means the QBF evaluated to true.
	True
	// False means the QBF evaluated to false.
	False
)

func (v Verdict) String() string {
	switch v {
	case True:
		return "TRUE"
	case False:
		return "FALSE"
	default:
		return "UNKNOWN"
	}
}

// StopReason explains an Unknown verdict: which budget or event ended the
// search before a verdict. Decided runs carry StopNone.
type StopReason int

const (
	// StopNone: the search ran to a True/False verdict (or never ran).
	StopNone StopReason = iota
	// StopTimeout: the TimeLimit (or context deadline) expired.
	StopTimeout
	// StopNodeLimit: the decision budget was exhausted.
	StopNodeLimit
	// StopMemLimit: the learned-constraint byte budget was exceeded and a
	// reduction round could not recover it.
	StopMemLimit
	// StopCancelled: the context passed to Solve was cancelled.
	StopCancelled
	// StopPanicked: a library panic was contained by SafeSolve.
	StopPanicked
)

func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopTimeout:
		return "timeout"
	case StopNodeLimit:
		return "node-limit"
	case StopMemLimit:
		return "mem-limit"
	case StopCancelled:
		return "cancelled"
	case StopPanicked:
		return "panicked"
	default:
		return "unknown-stop"
	}
}

// Stats reports search effort.
type Stats struct {
	Decisions        int64
	Propagations     int64
	PureAssignments  int64
	Conflicts        int64
	Solutions        int64
	LearnedClauses   int64
	LearnedCubes     int64
	Backjumps        int64
	ChronoBacktracks int64
	MaxDecisionLevel int
	Restarts         int64
	Time             time.Duration

	// Fixpoints counts propagation fixpoints — the solver's cancellation
	// and budget polling points (one per main-loop iteration).
	Fixpoints int64
	// PeakLearnedBytes is the high-water estimate of learned-constraint
	// memory (the quantity MemLimit governs).
	PeakLearnedBytes int64
	// MemReductions counts aggressive learned-DB reductions forced by
	// memory pressure (as opposed to routine MaxLearned housekeeping).
	MemReductions int64
	// StopReason explains an Unknown verdict; StopNone on decided runs.
	StopReason StopReason
}

// Merge accumulates src into s: counters are summed, high-water marks take
// the maximum. StopReason is left untouched — aggregating stop reasons is
// a policy decision that belongs to the caller.
func (s *Stats) Merge(src Stats) {
	s.Decisions += src.Decisions
	s.Propagations += src.Propagations
	s.PureAssignments += src.PureAssignments
	s.Conflicts += src.Conflicts
	s.Solutions += src.Solutions
	s.LearnedClauses += src.LearnedClauses
	s.LearnedCubes += src.LearnedCubes
	s.Backjumps += src.Backjumps
	s.ChronoBacktracks += src.ChronoBacktracks
	s.Restarts += src.Restarts
	s.Time += src.Time
	s.Fixpoints += src.Fixpoints
	s.MemReductions += src.MemReductions
	if src.MaxDecisionLevel > s.MaxDecisionLevel {
		s.MaxDecisionLevel = src.MaxDecisionLevel
	}
	if src.PeakLearnedBytes > s.PeakLearnedBytes {
		s.PeakLearnedBytes = src.PeakLearnedBytes
	}
}

// Result is the unified outcome of one solve call: the verdict together
// with the statistics of the search that produced it. It is what the
// context-first entry points of core and the bench backends return.
type Result struct {
	Verdict Verdict
	Stats   Stats
}

// Decided reports whether the run produced a definite True/False verdict.
func (r Result) Decided() bool { return r.Verdict != Unknown }

// Stop returns the stop reason recorded in the statistics (StopNone on
// decided runs).
func (r Result) Stop() StopReason { return r.Stats.StopReason }
