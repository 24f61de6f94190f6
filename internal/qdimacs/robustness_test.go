package qdimacs

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/qbf"
)

// TestReadNeverPanics feeds the fuzz seeds, then random byte soup and
// mutated valid headers, to the reader: malformed input must produce an
// error or a parsed formula, never a panic. Among the seeds is a variable
// id of 10^15, which once sized the prefix's per-variable arrays.
func TestReadNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(907))
	alphabet := []byte("pcnfqtreau0123456789- \n\t")
	inputs := append([][]byte(nil), []byte("p cnf 1 1\ne 1000000000000000 0\n1000000000000000 0\n"))
	for _, s := range fuzzSeeds {
		inputs = append(inputs, []byte(s))
	}
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(200))
		for j := range buf {
			buf[j] = alphabet[rng.Intn(len(alphabet))]
		}
		inputs = append(inputs, buf)
	}
	for _, buf := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on input %q: %v", buf, r)
				}
			}()
			q, err := ReadString(string(buf))
			if err == nil && q == nil {
				t.Fatalf("nil formula without error for %q", buf)
			}
		}()
	}
}

// TestReadMutatedValid mutates a correct instance one byte at a time.
func TestReadMutatedValid(t *testing.T) {
	valid := "p qtree 7 3\nq e 1 0\nq a 2 0\nq e 3 4 0\nu 2\nq a 5 0\nq e 6 7 0\nu 3\n1 3 4 0\n2 -3 0\n1 6 -7 0\n"
	for i := 0; i < len(valid); i++ {
		for _, b := range []byte{'0', '9', '-', 'q', 'x', '\n', ' '} {
			mutated := valid[:i] + string(b) + valid[i+1:]
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on mutation at %d→%q: %v", i, b, r)
					}
				}()
				q, err := ReadString(mutated)
				if err == nil {
					// Accepted mutations must still be structurally sane
					// after the standard cleanup (the reader, like most
					// DIMACS tooling, tolerates duplicate literals and
					// leaves deduplication to NormalizeMatrix).
					q.NormalizeMatrix()
					if err2 := q.Validate(); err2 != nil {
						t.Fatalf("mutation at %d→%q accepted an invalid formula: %v", i, b, err2)
					}
				}
			}()
		}
	}
}

// TestReadRejectsUnjustifiedIDs pins the id bound: an id above
// max(2^16, 8 × the bytes read through its line) is a parse error, in a
// quantifier line and in a clause, and anything up to the bound is read.
func TestReadRejectsUnjustifiedIDs(t *testing.T) {
	huge := "p cnf 1 1\ne 1000000000000000 0\n1000000000000000 0\n"
	_, err := ReadString(huge)
	if err == nil || err.Error() != "line 2: variable id 1000000000000000 beyond the bound 65536 the input read so far justifies" {
		t.Fatalf("quantifier line: err = %v", err)
	}
	_, err = ReadString("p cnf 1 1\ne 1 0\n-65537 1 0\n")
	if err == nil || err.Error() != "line 3: variable id -65537 beyond the bound 65536 the input read so far justifies" {
		t.Fatalf("clause: err = %v", err)
	}
	if _, err := ReadString("p cnf 1 1\ne 65536 0\n-65536 0\n"); err != nil {
		t.Fatalf("id at the floor: %v", err)
	}
	// Past the floor, the bound is 8 bytes per byte read: a 10000-byte
	// comment line justifies ids up to 80000 on the lines after it.
	pad := "c " + strings.Repeat("x", 9997) + "\n"
	long := "p cnf 1 1\n" + pad + "e 80000 0\n80000 0\n"
	if _, err := ReadString(long); err != nil {
		t.Fatalf("id within 8 bytes per byte: %v", err)
	}
	if _, err := ReadString(strings.Replace(long, "80000", "80200", 2)); err == nil {
		t.Fatal("id beyond 8 bytes per byte read accepted")
	}
}

// TestGeneratedIDsWithinBound checks every generated suite formula of the
// smoke scale, tree and prenexed, against the id bound without its 2^16
// floor: the largest id on each line must stay within 8 × the bytes read
// through that line, so generated formulas of any size are accepted.
func TestGeneratedIDsWithinBound(t *testing.T) {
	s := bench.ScaleSmoke
	var suites []bench.Instance
	for _, suite := range [][]bench.Instance{bench.NCFSuite(s), bench.FPVSuite(s), bench.DIASuite(s), bench.EvalSuite(s, false), bench.EvalSuite(s, true)} {
		suites = append(suites, suite...)
	}
	if len(suites) < 50 {
		t.Fatalf("only %d suite instances", len(suites))
	}
	worst, worstName := 0.0, ""
	for _, inst := range suites {
		forms := []*qbf.QBF{inst.Tree}
		for _, q := range inst.Prenex {
			forms = append(forms, q)
		}
		for _, q := range forms {
			text, err := WriteString(q)
			if err != nil {
				t.Fatal(err)
			}
			read := 0
			for _, line := range strings.SplitAfter(text, "\n") {
				read += len(line)
				if strings.HasPrefix(line, "p ") {
					continue // the counts, not ids
				}
				for _, f := range strings.Fields(line) {
					n, err := strconv.Atoi(f)
					if err != nil {
						continue // "q", "e", "a", "u"
					}
					if r := float64(max(n, -n)) / float64(8*read); r > worst {
						worst, worstName = r, inst.Name
					}
				}
			}
		}
	}
	if worst > 1 {
		t.Fatalf("%s has an id at %.2f × the bound without its floor", worstName, worst)
	}
	t.Logf("largest id against the bound without its floor: %.2f (%s)", worst, worstName)
}

// TestReadHugeTokens guards against pathological token lengths.
func TestReadHugeTokens(t *testing.T) {
	in := "p cnf 2 1\ne 1 2 0\n" + strings.Repeat("1", 400) + " 0\n"
	if _, err := ReadString(in); err == nil {
		t.Error("a 400-digit literal must be rejected")
	}
}
