package gate

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/qbf"
	"repro/internal/qdimacs"
)

// basePrenex is a small 3-level prenex instance; baseRenamed applies the
// variable permutation 1→3, 2→1, 3→4, 4→2 and shuffles the clause order.
// Canonicalization must fold both onto one key.
const basePrenex = `p cnf 4 3
e 1 2 0
a 3 0
e 4 0
1 -3 4 0
-1 2 0
2 3 -4 0
`

const baseRenamed = `p cnf 4 3
e 3 1 0
a 4 0
e 2 0
1 4 -2 0
3 -4 2 0
-3 1 0
`

// baseTree is the paper's tree prefix example; treeRenamed applies
// 1→7, 2→5, 3→1, 4→2, 5→6, 6→3, 7→4 and reorders the clauses.
const baseTree = `p qtree 7 3
q e 1 0
q a 2 0
q e 3 4 0
u 2
q a 5 0
q e 6 7 0
u 3
1 3 4 0
2 -3 0
1 6 -7 0
`

const treeRenamed = `p qtree 7 3
q e 7 0
q a 5 0
q e 1 2 0
u 2
q a 6 0
q e 3 4 0
u 3
7 3 -4 0
7 1 2 0
5 -1 0
`

func parse(t *testing.T, text string) *qbf.QBF {
	t.Helper()
	q, err := qdimacs.ReadString(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return q
}

func TestKeyRenameAndPermuteInvariant(t *testing.T) {
	cases := []struct {
		name string
		a, b string
	}{
		{"prenex", basePrenex, baseRenamed},
		{"tree", baseTree, treeRenamed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ka := Key(parse(t, tc.a), "po", "")
			kb := Key(parse(t, tc.b), "po", "")
			if ka != kb {
				t.Errorf("rename/permute variant changed key:\n a=%s\n b=%s", ka, kb)
			}
		})
	}
}

// TestKeyGolden pins the exact canonical hashes. A change here means every
// deployed gate's cache keys and ring placement shift on upgrade — that
// can be a deliberate choice, but never an accident.
func TestKeyGolden(t *testing.T) {
	cases := []struct {
		name     string
		text     string
		mode     string
		strategy string
		want     string
	}{
		{"prenex-po", basePrenex, "po", "", "47894d590a82c2e1e3183a07d9b1fdadd32d864e3a73253bcdaa2cc9352ce8d5"},
		{"prenex-to", basePrenex, "to", "eu-au", "cb9e227c554b1be3c93cadf9a129753725ffee976a39830d642962111bd6911c"},
		{"tree-po", baseTree, "po", "", "474e0da493322132e7c7ed2126b653dde9fd5fa7a3939d794118352141d5297d"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Key(parse(t, tc.text), tc.mode, tc.strategy)
			if got != tc.want {
				t.Errorf("Key(%s, %s/%s) = %s, want %s", tc.name, tc.mode, tc.strategy, got, tc.want)
			}
		})
	}
}

func TestKeyDistinguishesInstancesAndOptions(t *testing.T) {
	base := Key(parse(t, basePrenex), "po", "")
	// One flipped literal sign is a different formula.
	flipped := `p cnf 4 3
e 1 2 0
a 3 0
e 4 0
1 3 4 0
-1 2 0
2 3 -4 0
`
	keys := map[string]string{
		"flipped literal": Key(parse(t, flipped), "po", ""),
		"mode to":         Key(parse(t, basePrenex), "to", "eu-au"),
		"strategy ed-ad":  Key(parse(t, basePrenex), "to", "ed-ad"),
		"tree formula":    Key(parse(t, baseTree), "po", ""),
	}
	seen := map[string]string{base: "base"}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s: %s", name, prev, k)
		}
		seen[k] = name
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	for _, text := range []string{basePrenex, baseTree} {
		q := parse(t, text)
		once := Canonicalize(q)
		twice := Canonicalize(once)
		if a, b := serialize(once, "po", ""), serialize(twice, "po", ""); a != b {
			t.Errorf("canonicalization not idempotent:\n once=%s\n twice=%s", a, b)
		}
		// Key canonicalizes internally, so the canonical form must key to
		// the same value as the original.
		if a, b := Key(q, "po", ""), Key(once, "po", ""); a != b {
			t.Errorf("canonical form keys differently: %s vs %s", a, b)
		}
	}
}

// TestCanonicalPermIsPermutation checks the rename table is a bijection on
// 1..MaxVar — a collision would merge distinct variables and corrupt both
// the cache key and qbf.Rename's clause normalization.
func TestCanonicalPermIsPermutation(t *testing.T) {
	for _, text := range []string{basePrenex, baseTree} {
		q := parse(t, text)
		perm := CanonicalPerm(q)
		seen := map[qbf.Var]bool{}
		for v := 1; v < len(perm); v++ {
			img := perm[v]
			if img < 1 || int(img) >= len(perm) {
				t.Fatalf("perm[%d] = %d out of range", v, img)
			}
			if seen[img] {
				t.Fatalf("perm maps two variables to %d", img)
			}
			seen[img] = true
		}
	}
}

// TestDecodeBytesPerID bounds what the gate's decode path allocates per
// variable id, on a one-variable body padded by a comment so that the id
// 2^20 is within the reader's bound: ReadString at most 12 bytes per id
// (the prefix's one per-variable array), and ReadString plus Key at most
// 32. A body's ids are untrusted, so every per-id byte here is a byte an
// attacker buys with one character of padding.
func TestDecodeBytesPerID(t *testing.T) {
	const id = 1 << 20
	body := fmt.Sprintf("p cnf 1 1\nc %s\ne %d 0\n%d 0\n", strings.Repeat("x", id/8), id, id)
	perID := func(f func() error) float64 {
		t.Helper()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f()
			}
		})
		return float64(r.AllocedBytesPerOp()) / id
	}
	read := perID(func() error {
		_, err := qdimacs.ReadString(body)
		return err
	})
	key := perID(func() error {
		q, err := qdimacs.ReadString(body)
		if err == nil {
			Key(q, "po", "")
		}
		return err
	})
	t.Logf("bytes per id: ReadString %.1f, ReadString + Key %.1f", read, key)
	if read > 12 {
		t.Errorf("ReadString allocates %.1f bytes per id, want at most 12", read)
	}
	if key > 32 {
		t.Errorf("ReadString + Key allocate %.1f bytes per id, want at most 32", key)
	}
}
