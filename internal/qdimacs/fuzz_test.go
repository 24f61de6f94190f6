package qdimacs

import (
	"strings"
	"testing"

	"repro/internal/qbf"
)

// FuzzRead covers both accepted formats (QDIMACS prenex headers and QTREE
// quantifier-tree headers) through ReadString, which Read and every service
// call. ReadString and refRead (the line-by-line reader it replaced,
// reference_test.go) must return the same formula or the same error text.
// The one exception is a variable id beyond the input's id bound, which the
// reference would allocate for. Beyond that, the reader must never panic,
// must never return a nil formula without an error, and anything it
// accepts must survive the standard cleanup (normalization followed by
// structural validation) and round-trip through the writer.
//
// Run with: go test -fuzz=FuzzRead ./internal/qdimacs/
// Regression corpus: testdata/fuzz/FuzzRead/ (replayed by plain go test).
func FuzzRead(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		q, err := ReadString(in)
		if err == nil || !strings.Contains(err.Error(), "beyond the bound") {
			rq, rerr := refRead(strings.NewReader(in))
			if d := diffRead(q, err, rq, rerr); d != "" {
				t.Fatalf("ReadString differs from the reference reader: %s\ninput: %q", d, in)
			}
		}
		if err != nil {
			return
		}
		if q == nil {
			t.Fatal("nil formula without error")
		}
		for i, c := range q.Matrix {
			if cap(c) != len(c) {
				t.Fatalf("clause %d has spare capacity %d: an append would write into its neighbour\ninput: %q", i, cap(c)-len(c), in)
			}
		}
		q.NormalizeMatrix()
		if verr := q.Validate(); verr != nil {
			t.Fatalf("accepted formula fails validation: %v\ninput: %q", verr, in)
		}
		// Accepted formulas must be serializable: the writer only sees
		// structures the reader built, so an error here means the reader
		// admitted something the rest of the pipeline cannot represent.
		if _, werr := WriteString(q); werr != nil {
			t.Fatalf("accepted formula fails to serialize: %v\ninput: %q", werr, in)
		}
	})
}

// fuzzSeeds are FuzzRead's seeds: the original ones, then the tokenizer's
// edge cases.
var fuzzSeeds = []string{
	"",
	"p cnf 3 2\ne 1 2 0\na 3 0\n1 -2 3 0\n-1 2 0\n",
	"p cnf 2 1\na 1 0\ne 2 0\n1 2 0\n",
	"p qtree 7 3\nq e 1 0\nq a 2 0\nq e 3 4 0\nu 2\nq a 5 0\nq e 6 7 0\nu 3\n1 3 4 0\n2 -3 0\n1 6 -7 0\n",
	"p cnf 2 1\ne 1 2 0\n" + strings.Repeat("1", 400) + " 0\n",
	"c comment\np cnf 1 1\n1 0\n",
	"p cnf 0 0\n",
	"p qtree 1 1\nq e 1 0\n1 0\n",
	"p cnf 2 2\ne 1 0\n1 -1 0\n2 2 0\n",
	// Separators: tabs, CRLF, vertical tab and form feed.
	"p cnf 3 2\ne\t1\t2 0\na 3\t0\n1\t-3 0\n\t2 3\t0\t\n",
	"p cnf 3 2\r\ne 1 2 0\r\na 3 0\r\n1 -3 0\r\n2 3 0\r\n",
	"p cnf 3 1\ne 1\v2 0\na 3\f0\n1\v-3\f2 0\n",
	"c\tnot a comment\np cnf 1 1\ne 1 0\n1 0\n",
	"p cnf 1 1\ne 1 0\nc\tnot a comment\n1 0\n",
	// Unicode white space, which strings.Fields splits on: U+00A0,
	// U+0085 and U+3000, and a lone 0xA0 byte, which is not UTF-8.
	"p cnf 3 1\ne 1\u00a02 3 0\n1\u00a0-2\u00a03 0\n",
	"p cnf 3 1\ne 1\u00852 0\na 3 0\n1\u0085-3 0\n",
	"p cnf 2 1\ne 1 2 0\n1 -2\u30000\n",
	"p cnf 2 1\ne 1 2 0\n1\xa0-2 0\n",
	"\u00a0p cnf 1 1\u00a0\ne 1 0\u0085\n1 0\u00a0\n",
	// Signs and leading zeros.
	"p cnf 7 1\ne 1 7 0\n+7 -1 0\n",
	"p cnf 2 2\ne 1 2 0\n1 -0\n2 +0\n",
	"p cnf 9 1\ne 007 9 0\n-007 0009 00\n",
	"p cnf 3 1\ne +1 -0 2 0\n1 0\n",
	"p cnf 1 1\ne 1 0\n--1 0\n",
	"p cnf 1 1\ne 1 0\n+-1 0\n",
	"p cnf 1 1\ne 1 0\n- 0\n",
	// Long literals: 10 to 19 digits, then overflow.
	"p cnf 1 1\ne 1 0\n1234567890 0\n",
	"p cnf 1 1\ne 1 0\n-123456789012345678 0\n",
	"p cnf 1 1\ne 1 0\n9223372036854775807 0\n",
	"p cnf 1 1\ne 1 0\n-9223372036854775808 0\n",
	"p cnf 1 1\ne 1 0\n9223372036854775808 0\n",
	"p cnf 1 1\ne 1 0\n0000000000000000000001 0\n",
	"p cnf 1 1\ne 1 0\n99999999999999999999 0\n",
	"p cnf 1 1\ne 1234567890123 0\n1 0\n",
	// A clause split across lines, with a comment inside it.
	"p cnf 4 2\ne 1 2 3 4 0\n1 -2\n3 0 -4\nc inside\n1 0\n",
	// No final newline.
	"p cnf 2 1\ne 1 2 0\n1 -2 0",
	"p cnf 2 1\ne 1 2 0\n1 -2",
	"p cnf 2 1",
	"c only a comment",
	// Comment lines after the clauses.
	"p cnf 2 2\ne 1 2 0\n1 0\nc trailing\n-2 0\nc\n\n",
	// A variable id no input this short can justify.
	"p cnf 1 1\ne 1000000000000000 0\n1000000000000000 0\n",
	"p cnf 1 1\ne 1 0\n-1000000000000000 0\n",
	"p qtree 2 1\nq e 1 0\nq a 70000 0\n1 0\n",
}

// diffRead describes how two reader results differ, or returns "".
func diffRead(a *qbf.QBF, aerr error, b *qbf.QBF, berr error) string {
	switch {
	case aerr != nil || berr != nil:
		if aerr == nil || berr == nil || aerr.Error() != berr.Error() {
			return "errors " + errText(aerr) + " vs " + errText(berr)
		}
		return ""
	case a.Prefix.String() != b.Prefix.String():
		return "prefix " + a.Prefix.String() + " vs " + b.Prefix.String()
	case a.Prefix.MaxVar() != b.Prefix.MaxVar():
		return "prefix ranges differ"
	case len(a.Matrix) != len(b.Matrix):
		return "clause counts differ"
	}
	for i := range a.Matrix {
		ca, cb := a.Matrix[i], b.Matrix[i]
		if (ca == nil) != (cb == nil) || ca.String() != cb.String() {
			return "clause " + ca.String() + " vs " + cb.String()
		}
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
