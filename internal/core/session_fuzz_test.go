package core

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/qbf"
)

// FuzzSession runs a session script decoded from the fuzz input with the
// deep checker on (under -tags qbfdebug), and checks every Solve against a
// fresh solve of the equivalent formula and the oracle (runOps). The input
// picks the formula and encodes the ops byte by byte (decodeSession), so
// coverage guidance mutates one op at a time instead of reseeding a whole
// script. The seed corpus holds the scripts of the seeds on which scratch
// campaigns of seeded scripts found session defects.
func FuzzSession(f *testing.F) {
	for _, seed := range []int64{125610, 31194, 22344} {
		rng := rand.New(rand.NewSource(seed))
		q := randomDefQBF(rng, 1)
		ops := rootScriptOps(rng, q, 16)
		data := encodeSession(0, seed, q, ops)
		if _, _, got := decodeSession(data); !reflect.DeepEqual(got, ops) {
			f.Fatalf("seed %d: the script decodes to %v, want %v", seed, got, ops)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, opt, ops := decodeSession(data)
		runOps(t, q, opt, ops, "session")
	})
}

// maxFuzzOps bounds a decoded script, so one input stays cheap.
const maxFuzzOps = 32

// decodeSession decodes a fuzz input. Byte 0 picks the formula: bits 0-1
// modulo 3 choose randomDefQBF with one branch, with two, or
// qbf.RandomQBF(10, 12); bit 2 asks for ModeTotalOrder, which a non-prenex
// formula ignores; bit 3 sets MaxLearned to 4, so reduction and compaction
// meet the frames. Bytes 1-8 seed the generator, little-endian. Each
// following op starts with a byte b: b&3 is the kind (push, pop, add,
// assume), and b&4 asks for a Solve after the op. An add takes 1 +
// (b>>3)%3 literal bytes and an assume one. A literal byte x names the
// bound variable x>>1 (modulo their number, in prefix order), negated when
// x&1 is set. An add keeps the first literal of each variable, and only the
// first literal at all when the clause is not scope-consistent.
func decodeSession(data []byte) (*qbf.QBF, Options, []scriptOp) {
	var hdr [9]byte
	copy(hdr[:], data)
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(hdr[1:]))))
	var q *qbf.QBF
	switch (hdr[0] & 3) % 3 {
	case 0:
		q = randomDefQBF(rng, 1)
	case 1:
		q = randomDefQBF(rng, 2)
	default:
		q = qbf.RandomQBF(rng, 10, 12)
	}
	opt := Options{Mode: ModePartialOrder, CheckInvariants: true}
	if hdr[0]&4 != 0 && q.Prefix.IsPrenex() {
		opt.Mode = ModeTotalOrder
	}
	if hdr[0]&8 != 0 {
		opt.MaxLearned = 4
	}
	bound := newScriptState(q).bound
	pos := len(hdr)
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	lit := func(x byte) qbf.Lit {
		l := bound[int(x>>1)%len(bound)].PosLit()
		if x&1 != 0 {
			return l.Neg()
		}
		return l
	}
	var ops []scriptOp
	for pos < len(data) && len(ops) < maxFuzzOps {
		b := next()
		o := scriptOp{kind: opKind(b & 3), solve: b&4 != 0}
		switch o.kind {
		case opAdd:
			seen := make(map[qbf.Var]bool)
			for k := 1 + int(b>>3)%3; k > 0; k-- {
				if l := lit(next()); !seen[l.Var()] {
					seen[l.Var()] = true
					o.lits = append(o.lits, l)
				}
			}
			if _, err := q.ClauseBlock(o.lits); err != nil {
				o.lits = o.lits[:1]
			}
		case opAssume:
			o.lits = qbf.Clause{lit(next())}
		}
		ops = append(ops, o)
	}
	return q, opt, ops
}

// encodeSession is decodeSession's inverse for a script over q drawn with
// formula byte h from seed.
func encodeSession(h byte, seed int64, q *qbf.QBF, ops []scriptOp) []byte {
	index := make(map[qbf.Var]int)
	for i, v := range newScriptState(q).bound {
		index[v] = i
	}
	out := binary.LittleEndian.AppendUint64([]byte{h}, uint64(seed))
	for _, o := range ops {
		b := byte(o.kind)
		if o.solve {
			b |= 4
		}
		if o.kind == opAdd {
			b |= byte(len(o.lits)-1) << 3
		}
		out = append(out, b)
		for _, l := range o.lits {
			x := byte(index[l.Var()] << 1)
			if !l.Positive() {
				x |= 1
			}
			out = append(out, x)
		}
	}
	return out
}
