package core

import (
	"testing"

	"repro/internal/qbf"
)

// FuzzArena drives the arena clause store with a model-based operation
// stream decoded from the fuzz input: allocate learned clauses/cubes,
// delete them, bump activities, and compact — while a plain-Go shadow model
// tracks what every constraint must contain. After every compaction the
// returned (olds, news) mapping is applied to the model's refs exactly the
// way the solver rebinds its occurrence/watcher lists, and the arena is
// verified ref-by-ref against the model: contents, flags, activity, the
// wasted-words counter, and the stability of the original-clause prefix.
// The model holds qbf literals and the arena their codes, so every
// literal read back is checked through the enc/lit round trip, with
// variable ids across the QDIMACS reader's whole admissible range.
// This mirrors the FuzzRead harness in internal/qdimacs (which found real
// reader bugs): the arena is the one structure whose silent corruption the
// engine could not detect by itself.
func FuzzArena(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 0, 1, 2, 3, 4})
	f.Add([]byte{0, 5, 10, 1, 6, 11, 2, 0, 4, 0, 7, 12, 2, 0, 4})
	f.Add([]byte{1, 9, 9, 9, 2, 0, 2, 0, 4, 4, 3, 1, 0, 2, 2, 1, 4})
	f.Add([]byte{0, 255, 254, 253, 252, 251, 250, 4, 2, 0, 4, 0, 1, 2, 4})
	// Wide literals at the extremes: variable 1 and variable 2^26, both
	// polarities, in originals, a learned clause and a learned cube.
	f.Add([]byte{3, 128, 0, 0, 0, 192, 0, 0, 0, 131, 255, 255, 255, 195, 255, 255, 255,
		1, 131, 255, 255, 255, 0, 1, 195, 255, 255, 255,
		0, 1, 128, 0, 0, 0, 131, 255, 255, 255, 1, 1, 192, 0, 0, 0, 195, 255, 255, 255, 4})
	f.Add([]byte{0, 195, 255, 255, 255, 0, 131, 255, 255, 255, 0, 192, 0, 0, 0,
		1, 5, 131, 255, 255, 255, 195, 255, 255, 255, 128, 0, 0, 0, 192, 0, 0, 0, 7, 71,
		2, 0, 4, 0, 0, 131, 255, 255, 255, 4})
	f.Fuzz(func(t *testing.T, in []byte) {
		type mc struct {
			ref     int32
			lits    []qbf.Lit
			isCube  bool
			deleted bool
			act     float32
		}
		var a arena
		pos := 0
		next := func() byte {
			if pos >= len(in) {
				return 0
			}
			b := in[pos]
			pos++
			return b
		}
		// A literal byte b below 128 names variable 1 + b%50; one from 128
		// up starts a wide literal: variable 1 + the 26-bit number made of
		// b's low two bits and the next three bytes, so ids run from 1 to
		// 2^26, the QDIMACS reader's bound for an 8 MiB body. Bit 6 of b is
		// the polarity either way.
		decodeLits := func() []qbf.Lit {
			n := 1 + int(next()%6)
			lits := make([]qbf.Lit, 0, n)
			for i := 0; i < n; i++ {
				b := next()
				v := 1 + int(b%50)
				if b >= 128 {
					v = 1 + (int(b&3)<<24 | int(next())<<16 | int(next())<<8 | int(next()))
				}
				l := qbf.VarOf(v).PosLit()
				if b&64 != 0 {
					l = l.Neg()
				}
				lits = append(lits, l)
			}
			return lits
		}
		encode := func(lits []qbf.Lit) []code {
			out := make([]code, len(lits))
			for i, l := range lits {
				out[i] = enc(l)
			}
			return out
		}

		// Fixed original prefix: refs below origEnd must never move.
		var originals []mc
		for i := 0; i < 3; i++ {
			lits := decodeLits()
			ref := int32(a.alloc(encode(lits), false, false))
			originals = append(originals, mc{ref: ref, lits: lits, act: 1})
		}
		origEnd := a.end()

		var model []mc
		live := func() []int { // indexes of live learned model entries
			var out []int
			for i := range model {
				if !model[i].deleted {
					out = append(out, i)
				}
			}
			return out
		}
		verify := func(stage string) {
			t.Helper()
			wantWasted := 0
			for _, m := range append(append([]mc{}, originals...), model...) {
				if m.deleted {
					wantWasted += hdrWords + len(m.lits)
					continue
				}
				ci := int(m.ref)
				if a.deleted(ci) {
					t.Fatalf("%s: live constraint at ref %d reads as deleted", stage, ci)
				}
				if a.isCube(ci) != m.isCube || a.size(ci) != len(m.lits) {
					t.Fatalf("%s: ref %d header mismatch: cube=%v size=%d, want cube=%v size=%d",
						stage, ci, a.isCube(ci), a.size(ci), m.isCube, len(m.lits))
				}
				for k, l := range m.lits {
					if c := a.lit(ci, k); c != enc(l) || c.lit() != l {
						t.Fatalf("%s: ref %d literal %d is code %d (literal %d), want %d", stage, ci, k, c, c.lit(), l)
					}
				}
				if got := float32(a.activity(ci)); got != m.act {
					t.Fatalf("%s: ref %d activity %v, want %v", stage, ci, got, m.act)
				}
			}
			if a.wasted != wantWasted {
				t.Fatalf("%s: arena wasted=%d, model says %d", stage, a.wasted, wantWasted)
			}
		}

		steps := 0
		for pos < len(in) && steps < 512 {
			steps++
			op := next() % 5
			switch op {
			case 0, 1:
				lits := decodeLits()
				ref := int32(a.alloc(encode(lits), op == 1, true))
				model = append(model, mc{ref: ref, lits: lits, isCube: op == 1, act: 1})
			case 2:
				lv := live()
				if len(lv) == 0 {
					continue
				}
				i := lv[int(next())%len(lv)]
				a.del(int(model[i].ref))
				model[i].deleted = true
			case 3:
				lv := live()
				if len(lv) == 0 {
					continue
				}
				i := lv[int(next())%len(lv)]
				a.bumpActivity(int(model[i].ref))
				model[i].act = float32(float64(model[i].act) + 1)
			case 4:
				olds, news := a.compactFrom(origEnd)
				// Rebind the model's refs exactly like the solver rebinds
				// its occurrence and watcher lists, and drop deleted
				// entries — their targets no longer exist.
				var kept []mc
				for _, m := range model {
					if m.deleted {
						continue
					}
					m.ref = rebind(m.ref, olds, news)
					kept = append(kept, m)
				}
				model = kept
				// Original refs must be fixed points of every mapping.
				for _, o := range originals {
					if got := rebind(o.ref, olds, news); got != o.ref {
						t.Fatalf("compaction moved original ref %d to %d", o.ref, got)
					}
				}
				// The mapping must be strictly ascending (rebind binary-searches it).
				for i := 1; i < len(olds); i++ {
					if olds[i] <= olds[i-1] {
						t.Fatalf("compaction mapping not ascending: olds=%v", olds)
					}
				}
			}
			verify("step")
		}
		// Final compaction must always leave a dense, fully live arena.
		olds, news := a.compactFrom(origEnd)
		var kept []mc
		for _, m := range model {
			if m.deleted {
				continue
			}
			m.ref = rebind(m.ref, olds, news)
			kept = append(kept, m)
		}
		model = kept
		verify("final")
		want := origEnd
		for _, m := range model {
			want += hdrWords + len(m.lits)
		}
		if a.end() != want {
			t.Fatalf("compacted arena holds %d words, model says %d", a.end(), want)
		}
		for ci := 0; ci < a.end(); ci = a.next(ci) {
			if a.deleted(ci) {
				t.Fatalf("deleted constraint %d survived compaction", ci)
			}
		}
	})
}
