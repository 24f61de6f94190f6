package core

import "math"

// This file is the arena clause store: every constraint (original clause,
// learned clause, learned cube) lives in one flat []uint32 region and is
// referred to by an integer ref — the word offset of its header. The layout
// replaces the previous pointer-per-constraint []constraint slice: no
// per-constraint allocations, no pointer fields for the GC to trace, and
// deletion plus in-place compaction instead of tenured garbage. Literals are
// stored as their codes (solver.go: 2v for +v, 2v+1 for ¬v), the form every
// reader uses, so a read is one load and nothing is decoded. Variable ids
// are bounded far below 2^31 (the QDIMACS reader's bound is about 2^26), so
// every code fits a word.
//
// Constraint layout (hdrWords header words, then size literal words):
//
//	word 0   size | flags (isCube, learned, deleted in the top bits)
//	word 1   activity as float32 bits
//	word 2   sat     — satisfaction tag of an original clause
//	word 3   frame   — deepest assumption frame the constraint depends on
//
// sat is maintained for original clauses only and is 0 on learned
// constraints. It is 0 while the clause is in the residual matrix (no
// dequeued literal of it is true); otherwise it is one plus the trail
// position of the literal whose dequeue satisfied it, so unwinding the
// trail past that position returns the clause to the matrix (watch.go,
// Solver.satStack). The propagation engine keeps its state in the literal
// order instead: positions 0 and 1 of every constraint are its two watched
// literals (watch.go). frame is 0 outside incremental sessions; within
// one, an original clause carries the depth of the frame that added it and
// a learned clause the deepest frame its derivation resolved with, so
// popping a frame can drop exactly the constraints that cited it
// (incremental.go).
//
// Construction-time original clauses form a fixed prefix of the region
// ([0, Solver.origEnd)): they are never deleted and never move, so their
// refs are stable for the lifetime of the solver. Learned constraints —
// and, in incremental sessions, runtime-added originals — follow and are
// compacted in place when enough of them have been deleted; compaction
// returns an (old ref → new ref) mapping which the solver applies to every
// ref-holding structure (occurrence lists, watcher lists, trail reasons,
// the units list, frame clause and learned lists, the satisfied-clause
// stack).
const (
	hdrWords = 4
	offAct   = 1
	offSat   = 2
	offFrame = 3

	flagCube    = uint32(1) << 31
	flagLearned = uint32(1) << 30
	flagDeleted = uint32(1) << 29
	sizeMask    = flagDeleted - 1
)

// arena is the flat constraint store. The zero value is ready to use.
type arena struct {
	d []uint32
	// wasted counts the words (headers included) occupied by deleted
	// constraints; the solver compacts when it dominates the learned region.
	wasted int
}

// alloc appends a constraint and returns its ref. Activity starts at 1.
func (a *arena) alloc(lits []code, isCube, learned bool) int {
	ci := len(a.d)
	hdr := uint32(len(lits))
	if isCube {
		hdr |= flagCube
	}
	if learned {
		hdr |= flagLearned
	}
	a.d = append(a.d, hdr, math.Float32bits(1), 0, 0)
	for _, l := range lits {
		a.d = append(a.d, uint32(l))
	}
	return ci
}

func (a *arena) size(ci int) int     { return int(a.d[ci] & sizeMask) }
func (a *arena) isCube(ci int) bool  { return a.d[ci]&flagCube != 0 }
func (a *arena) learned(ci int) bool { return a.d[ci]&flagLearned != 0 }
func (a *arena) deleted(ci int) bool { return a.d[ci]&flagDeleted != 0 }

// next returns the ref following ci in an arena walk; iterate with
// `for ci := start; ci < a.end(); ci = a.next(ci)` and skip deleted refs.
// Headers of deleted constraints stay valid until the next compaction, so a
// walk crossing them is safe.
func (a *arena) next(ci int) int { return ci + hdrWords + a.size(ci) }
func (a *arena) end() int        { return len(a.d) }

func (a *arena) lit(ci, k int) code { return code(a.d[ci+hdrWords+k]) }

func (a *arena) swapLits(ci, j, k int) {
	b := ci + hdrWords
	a.d[b+j], a.d[b+k] = a.d[b+k], a.d[b+j]
}

func (a *arena) activity(ci int) float64 {
	return float64(math.Float32frombits(a.d[ci+offAct]))
}

func (a *arena) setActivity(ci int, v float64) {
	a.d[ci+offAct] = math.Float32bits(float32(v))
}

func (a *arena) bumpActivity(ci int) { a.setActivity(ci, a.activity(ci)+1) }

// sat is the satisfaction tag of an original clause and frame the
// assumption-frame tag (see the layout comment above).
func (a *arena) sat(ci int) int     { return int(a.d[ci+offSat]) }
func (a *arena) setSat(ci, t int)   { a.d[ci+offSat] = uint32(t) }
func (a *arena) frame(ci int) int   { return int(a.d[ci+offFrame]) }
func (a *arena) setFrame(ci, f int) { a.d[ci+offFrame] = uint32(f) }

// del marks ci deleted. The header (and the literal words) remain readable
// until compactFrom reclaims the space.
func (a *arena) del(ci int) {
	a.d[ci] |= flagDeleted
	a.wasted += hdrWords + a.size(ci)
}

// compactFrom slides live constraints toward the start of the region
// beginning at `from`, dropping deleted ones, and truncates the arena. It
// returns parallel slices (olds strictly ascending, news) mapping each moved
// constraint's old ref to its new one; unmoved refs are absent. Refs below
// `from` are never touched. The caller must purge deleted refs from every
// ref-holding structure before calling (their targets cease to exist) and
// rebind the returned mapping after.
func (a *arena) compactFrom(from int) (olds, news []int32) {
	w := from
	for r := from; r < len(a.d); {
		n := hdrWords + a.size(r)
		if a.deleted(r) {
			r += n
			continue
		}
		if w != r {
			copy(a.d[w:w+n], a.d[r:r+n])
			olds = append(olds, int32(r))
			news = append(news, int32(w))
		}
		w += n
		r += n
	}
	a.d = a.d[:w]
	a.wasted = 0
	return olds, news
}

// rebind maps a ref through a compactFrom result (binary search on the
// ascending olds). A ref below the first moved one, such as a
// construction-time original's, maps to itself without a search: the
// base frame's cover list holds every coverable one.
func rebind(ci int32, olds, news []int32) int32 {
	if len(olds) == 0 || ci < olds[0] {
		return ci
	}
	lo, hi := 0, len(olds)
	for lo < hi {
		mid := (lo + hi) / 2
		if olds[mid] < ci {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(olds) && olds[lo] == ci {
		return news[lo]
	}
	return ci
}
