package qdimacs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/qbf"
)

// refRead is the line-by-line reader this package had before ReadString
// walked its input in place: strings.Fields per line, strconv per field,
// a map of bound variables, and one allocation per clause. FuzzRead holds
// ReadString to it, formula for formula and error for error.
func refRead(r io.Reader) (*qbf.QBF, error) {
	br := bufio.NewReader(r)
	var header string
	for {
		line, err := br.ReadString('\n')
		if len(line) == 0 && err != nil {
			return nil, fmt.Errorf("qdimacs: missing problem line: %w", err)
		}
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "c") {
			if err != nil {
				return nil, fmt.Errorf("qdimacs: missing problem line")
			}
			continue
		}
		header = t
		break
	}
	fields := strings.Fields(header)
	if len(fields) != 4 || fields[0] != "p" {
		return nil, fmt.Errorf("qdimacs: malformed problem line %q", header)
	}
	nv, err := strconv.Atoi(fields[2])
	if err != nil || nv < 0 {
		return nil, fmt.Errorf("qdimacs: bad variable count %q", fields[2])
	}
	nc, err := strconv.Atoi(fields[3])
	if err != nil || nc < 0 {
		return nil, fmt.Errorf("qdimacs: bad clause count %q", fields[3])
	}
	switch fields[1] {
	case "cnf":
		return refReadBody(br, nv, nc, false)
	case "qtree":
		return refReadBody(br, nv, nc, true)
	default:
		return nil, fmt.Errorf("qdimacs: unknown format %q", fields[1])
	}
}

// refMaxPrealloc caps the allocation driven by header counts: the counts are
// advisory in much of the benchmark ecosystem, and an untrusted header must
// not be able to claim gigabytes before a single body line is read. Larger
// genuine instances simply grow on demand past the cap.
const refMaxPrealloc = 1 << 16

func refReadBody(br *bufio.Reader, nv, nc int, tree bool) (*qbf.QBF, error) {
	p := qbf.NewPrefix(min(nv, refMaxPrealloc))
	var stack []*qbf.Block // open blocks (QTREE); in QDIMACS a chain
	matrix := make([]qbf.Clause, 0, min(nc, refMaxPrealloc))
	var pending qbf.Clause
	bound := map[qbf.Var]bool{} // rebinding is a parse error, not a panic
	inPrefix := true

	lineNo := 1
	for {
		line, rdErr := br.ReadString('\n')
		lineNo++
		t := strings.TrimSpace(line)
		switch {
		case t == "" || strings.HasPrefix(t, "c "), t == "c":
			// comment / blank
		case strings.HasPrefix(t, "e ") || strings.HasPrefix(t, "a ") ||
			(tree && strings.HasPrefix(t, "q ")):
			if !inPrefix {
				return nil, fmt.Errorf("line %d: quantifier line after clauses", lineNo)
			}
			spec := t
			if tree && strings.HasPrefix(t, "q ") {
				spec = strings.TrimSpace(t[2:])
			}
			quant := qbf.Exists
			if strings.HasPrefix(spec, "a") {
				quant = qbf.Forall
			} else if !strings.HasPrefix(spec, "e") {
				return nil, fmt.Errorf("line %d: bad quantifier %q", lineNo, t)
			}
			vars, err := refParseVarList(spec[1:])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			var parent *qbf.Block
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			for _, v := range vars {
				if bound[v] {
					return nil, fmt.Errorf("line %d: variable %d bound twice", lineNo, v)
				}
				bound[v] = true
				p.GrowVar(v)
			}
			b := p.AddBlock(parent, quant, vars...)
			stack = append(stack, b)
		case tree && (t == "u" || strings.HasPrefix(t, "u ")):
			if !inPrefix {
				return nil, fmt.Errorf("line %d: block pop after clauses", lineNo)
			}
			k := 1
			if t != "u" {
				var err error
				k, err = strconv.Atoi(strings.TrimSpace(t[2:]))
				if err != nil || k < 1 {
					return nil, fmt.Errorf("line %d: bad pop count %q", lineNo, t)
				}
			}
			if k > len(stack) {
				return nil, fmt.Errorf("line %d: popping %d of %d open blocks", lineNo, k, len(stack))
			}
			stack = stack[:len(stack)-k]
		default:
			inPrefix = false
			lits, err := refParseLits(t, pending)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			pending, matrix = refFlushClauses(lits, matrix)
		}
		if rdErr != nil {
			break
		}
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("qdimacs: last clause not 0-terminated")
	}
	p.Finalize()
	// Header counts are advisory in much of the benchmark ecosystem
	// (QBFLIB instances frequently disagree), so nc is not enforced.
	return qbf.New(p, matrix), nil
}

// parseVarList parses "v1 v2 … 0"; the terminating 0 is required.
func refParseVarList(s string) ([]qbf.Var, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil, fmt.Errorf("empty quantifier line")
	}
	var vars []qbf.Var
	terminated := false
	for _, f := range fields {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad variable %q", f)
		}
		if n == 0 {
			terminated = true
			break
		}
		if n < 0 {
			return nil, fmt.Errorf("negative variable %d in quantifier line", n)
		}
		vars = append(vars, qbf.Var(n))
	}
	if !terminated {
		return nil, fmt.Errorf("quantifier line not 0-terminated")
	}
	if len(vars) == 0 {
		return nil, fmt.Errorf("empty quantifier block")
	}
	return vars, nil
}

// parseLits accumulates literals from one clause-section line onto pending.
// A 0 inside the line marks the end of a clause; the in-band refClauseEnd
// marker is used by flushClauses to split completed clauses off.
func refParseLits(s string, pending qbf.Clause) (qbf.Clause, error) {
	for _, f := range strings.Fields(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad literal %q", f)
		}
		if n == 0 {
			pending = append(pending, refClauseEnd)
			continue
		}
		pending = append(pending, qbf.Lit(n))
	}
	return pending, nil
}

// refClauseEnd is an in-band marker separating completed clauses in the
// pending buffer. Variable 0 can never occur in a literal, so the marker is
// unambiguous.
const refClauseEnd = qbf.Lit(0)

func refFlushClauses(pending qbf.Clause, matrix []qbf.Clause) (qbf.Clause, []qbf.Clause) {
	start := 0
	for i, l := range pending {
		if l == refClauseEnd {
			c := make(qbf.Clause, i-start)
			copy(c, pending[start:i])
			matrix = append(matrix, c)
			start = i + 1
		}
	}
	if start == 0 {
		return pending, matrix
	}
	rest := make(qbf.Clause, len(pending)-start)
	copy(rest, pending[start:])
	return rest, matrix
}
