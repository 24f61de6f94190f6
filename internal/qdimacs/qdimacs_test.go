package qdimacs

import (
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/qbf"
)

func TestReadQDIMACS(t *testing.T) {
	in := `c a comment
c another
p cnf 4 3
e 1 2 0
a 3 0
e 4 0
1 -3 4 0
-1 2 0
-2 -4 0
`
	q, err := ReadString(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Matrix) != 3 {
		t.Fatalf("got %d clauses, want 3", len(q.Matrix))
	}
	if !q.Prefix.IsPrenex() {
		t.Error("QDIMACS input must yield a prenex prefix")
	}
	if q.Prefix.QuantOf(1) != qbf.Exists || q.Prefix.QuantOf(3) != qbf.Forall {
		t.Error("quantifiers misparsed")
	}
	if !q.Prefix.Before(1, 3) || !q.Prefix.Before(3, 4) {
		t.Error("prefix order misparsed")
	}
	if q.Prefix.Before(1, 2) {
		t.Error("same-block variables must be incomparable")
	}
	if q.Matrix[0][1] != qbf.Lit(-3) {
		t.Errorf("clause 0 = %v", q.Matrix[0])
	}
}

func TestReadQTree(t *testing.T) {
	// The paper's prefix (3): x0 (y1 (x1 x2) ; y2 (x3 x4)).
	in := `c paper example
p qtree 7 3
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
	q, err := ReadString(in)
	if err != nil {
		t.Fatal(err)
	}
	if q.Prefix.IsPrenex() {
		t.Error("tree input must be non-prenex")
	}
	if !q.Prefix.Before(2, 3) || q.Prefix.Before(2, 6) {
		t.Error("tree order misparsed")
	}
	if got := q.Prefix.String(); got != "e 1 (a 2 (e 3 4) ; a 5 (e 6 7))" {
		t.Errorf("prefix = %q", got)
	}
	if _, err := q.ScopeConsistent(); err != nil {
		t.Errorf("parsed formula inconsistent: %v", err)
	}
}

func TestReadQTreeImplicitClose(t *testing.T) {
	in := `p qtree 3 1
q e 1 0
q a 2 0
q e 3 0
1 -2 3 0
`
	q, err := ReadString(in)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Prefix.Before(1, 2) || !q.Prefix.Before(2, 3) {
		t.Error("implicitly closed chain misparsed")
	}
}

func TestReadMultilineClause(t *testing.T) {
	in := "p cnf 3 2\ne 1 2 3 0\n1 2\n3 0 -1\n-2 0\n"
	q, err := ReadString(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Matrix) != 2 || len(q.Matrix[0]) != 3 || len(q.Matrix[1]) != 2 {
		t.Fatalf("matrix = %v", q.Matrix)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"no header", "e 1 0\n1 0\n"},
		{"bad header", "p wat 1 1\n"},
		{"unterminated quant", "p cnf 2 1\ne 1 2\n1 0\n"},
		{"unterminated clause", "p cnf 1 1\ne 1 0\n1\n"},
		{"quant after clause", "p cnf 2 2\ne 1 0\n1 0\na 2 0\n2 0\n"},
		{"bad literal", "p cnf 1 1\ne 1 0\nx 0\n"},
		{"pop too far", "p qtree 1 1\nq e 1 0\nu 2\n1 0\n"},
		{"empty block", "p cnf 1 1\ne 0\n1 0\n"},
		{"negative quant var", "p cnf 1 1\ne -1 0\n1 0\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadString(c.in); err == nil {
				t.Errorf("input %q must fail", c.in)
			}
		})
	}
}

// TestReadStream reads a formula from a stream as ReadString reads its
// text, and reports a stream cut off by a read error, even at a clause
// boundary, instead of parsing what arrived.
func TestReadStream(t *testing.T) {
	in := "p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n-1 0\n"
	q, err := Read(iotest.OneByteReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := ReadString(in); q.String() != want.String() {
		t.Fatalf("Read gave %s, ReadString %s", q, want)
	}
	cut := errors.New("connection reset")
	if _, err := Read(io.MultiReader(strings.NewReader(in), iotest.ErrReader(cut))); !errors.Is(err, cut) {
		t.Fatalf("cut stream: err = %v, want %v", err, cut)
	}
}

func TestWriteQDIMACSRejectsTree(t *testing.T) {
	p := qbf.NewPrefix(3)
	r := p.AddBlock(nil, qbf.Exists, 1)
	p.AddBlock(r, qbf.Forall, 2)
	p.AddBlock(r, qbf.Forall, 3)
	q := qbf.New(p, []qbf.Clause{{1, 2}})
	var sb strings.Builder
	if err := WriteQDIMACS(&sb, q); err == nil {
		t.Error("WriteQDIMACS must reject non-chain prefixes")
	}
}

func TestRoundTripPrenex(t *testing.T) {
	p := qbf.NewPrenexPrefix(4,
		qbf.Run{Quant: qbf.Exists, Vars: []qbf.Var{1, 2}},
		qbf.Run{Quant: qbf.Forall, Vars: []qbf.Var{3}},
		qbf.Run{Quant: qbf.Exists, Vars: []qbf.Var{4}},
	)
	q := qbf.New(p, []qbf.Clause{{1, -3, 4}, {-1, 2}, {-2, -4}})
	s, err := WriteString(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(s, "p cnf") {
		t.Errorf("prenex formula must serialize as QDIMACS, got %q", s)
	}
	r, err := ReadString(s)
	if err != nil {
		t.Fatal(err)
	}
	assertSameQBF(t, q, r)
}

func TestRoundTripRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 100; i++ {
		q := qbf.RandomQBF(rng, 12, 10)
		s, err := WriteString(q)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		r, err := ReadString(s)
		if err != nil {
			t.Fatalf("iteration %d: %v\n%s", i, err, s)
		}
		assertSameQBF(t, q, r)
		// Semantics must survive the round trip.
		if qbf.Eval(q) != qbf.Eval(r) {
			t.Fatalf("iteration %d: round trip changed the value\n%s", i, s)
		}
	}
}

// assertSameQBF compares prefix order, quantifiers and matrices.
func assertSameQBF(t *testing.T, a, b *qbf.QBF) {
	t.Helper()
	if len(a.Matrix) != len(b.Matrix) {
		t.Fatalf("clause count %d vs %d", len(a.Matrix), len(b.Matrix))
	}
	for i := range a.Matrix {
		if len(a.Matrix[i]) != len(b.Matrix[i]) {
			t.Fatalf("clause %d: %v vs %v", i, a.Matrix[i], b.Matrix[i])
		}
		for j := range a.Matrix[i] {
			if a.Matrix[i][j] != b.Matrix[i][j] {
				t.Fatalf("clause %d: %v vs %v", i, a.Matrix[i], b.Matrix[i])
			}
		}
	}
	mv := a.MaxVar()
	if bv := b.MaxVar(); bv > mv {
		mv = bv
	}
	for v := qbf.Var(1); int(v) <= mv; v++ {
		if a.Prefix.Bound(v) != b.Prefix.Bound(v) {
			t.Fatalf("var %d bound in one formula only", v)
		}
		if a.Prefix.Bound(v) && a.Prefix.QuantOf(v) != b.Prefix.QuantOf(v) {
			t.Fatalf("var %d quantifier differs", v)
		}
		for w := qbf.Var(1); int(w) <= mv; w++ {
			if a.Prefix.Before(v, w) != b.Prefix.Before(v, w) {
				t.Fatalf("order (%d,%d) differs: %v vs %v",
					v, w, a.Prefix.Before(v, w), b.Prefix.Before(v, w))
			}
		}
	}
}
