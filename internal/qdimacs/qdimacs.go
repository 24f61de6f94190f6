// Package qdimacs reads and writes QBF instances in two concrete syntaxes:
//
//   - QDIMACS, the standard prenex format of the QBF evaluations: a
//     "p cnf <vars> <clauses>" header, quantifier lines "e v… 0" / "a v… 0"
//     outermost first, then 0-terminated clauses.
//
//   - QTREE, a small extension for non-prenex (tree shaped) prefixes used by
//     this repository: the header is "p qtree <vars> <clauses>"; a line
//     "q e v… 0" (or "q a v… 0") opens a quantifier block nested in the
//     previously opened one, and "u <k>" pops k open blocks, so arbitrary
//     quantifier trees can be described in DFS order. Clause lines follow as
//     in DIMACS. Blocks still open at the first clause line are closed
//     implicitly.
//
// Both readers are tolerant of comment lines ("c …") anywhere before the
// clauses and of extra whitespace.
//
// ReadString walks the lines of its string in place; Read buffers its
// stream and calls ReadString, so both accept the same inputs and return
// the same formula or the same error. Fields split as strings.Fields splits
// them, without allocating, and numbers parse with strconv.Atoi. The clause
// literals of one formula share one backing array, sized from the input,
// and every clause is a 3-index slice of it, so an append to one clause
// never writes into the next. Duplicate literals and tautologies are left
// to QBF.NormalizeMatrix.
//
// A variable id is bounded by the input read so far: an id above
// max(2^16, 8 × the bytes read up to the end of its line) is a parse error,
// so no id makes the reader size its arrays beyond what Go can allocate.
// The bound is linear, not tight: the prefix's per-variable arrays cost
// about 33 bytes per id up to the largest one, so a body padded with a
// comment can still claim about 260 bytes of prefix per byte sent, and a
// solver built on it more (DESIGN.md §3.2). Generated formulas reach about a
// quarter of the bound.
package qdimacs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/qbf"
)

// Read parses either format from a stream, dispatching on the problem line.
// It reads the whole stream first, so a stream cut off by a read error is
// an error, never a shorter formula.
func Read(r io.Reader) (*qbf.QBF, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, fmt.Errorf("qdimacs: reading input: %w", err)
	}
	return ReadString(sb.String())
}

// ReadString parses a formula from a string, walking its lines in place.
func ReadString(s string) (*qbf.QBF, error) {
	return read(&lines{s: s})
}

// lines yields a string one line at a time, each with its '\n' if it has
// one, as bufio.Reader.ReadString('\n') would.
type lines struct {
	s    string // unread input
	read int    // bytes consumed so far
}

// next returns the next line, with a non-nil error (io.EOF at the end of
// the input) when no line follows it.
func (r *lines) next() (string, error) {
	var line string
	var err error
	if i := strings.IndexByte(r.s, '\n'); i >= 0 {
		line, r.s = r.s[:i+1], r.s[i+1:]
	} else {
		line, r.s, err = r.s, "", io.EOF
	}
	r.read += len(line)
	return line, err
}

// idLimit is the largest variable id the input read so far justifies.
func (r *lines) idLimit() int { return max(1<<16, 8*r.read) }

func read(in *lines) (*qbf.QBF, error) {
	var header string
	for {
		line, err := in.next()
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
		return readBody(in, nv, nc, false)
	case "qtree":
		return readBody(in, nv, nc, true)
	default:
		return nil, fmt.Errorf("qdimacs: unknown format %q", fields[1])
	}
}

// maxPrealloc caps the allocation driven by header counts: the counts are
// advisory in much of the benchmark ecosystem, and an untrusted header must
// not be able to claim gigabytes before a single body line is read. Larger
// genuine instances simply grow on demand past the cap.
const maxPrealloc = 1 << 16

func readBody(in *lines, nv, nc int, tree bool) (*qbf.QBF, error) {
	p := qbf.NewPrefix(min(nv, maxPrealloc))
	var stack []*qbf.Block // open blocks (QTREE); in QDIMACS a chain
	matrix := make([]qbf.Clause, 0, min(nc, maxPrealloc))
	var lits litSlab   // clause literals, the open clause last
	var vars []qbf.Var // the current quantifier line's variables
	inPrefix := true

	lineNo := 1
	for {
		line, rdErr := in.next()
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
			var err error
			if vars, err = parseVarList(spec[1:], vars[:0], in.idLimit()); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			var parent *qbf.Block
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			// Rebinding is a parse error, not a panic.
			b, twice := p.BindBlock(parent, quant, vars)
			if twice != 0 {
				return nil, fmt.Errorf("line %d: variable %d bound twice", lineNo, twice)
			}
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
			if inPrefix {
				// The clause section starts. In the usual layout every
				// field but the last ends at a space or a line end, which
				// bounds the literals left; a miss only grows the array.
				lits.reserve(1 + strings.Count(t, " ") + strings.Count(in.s, " ") + strings.Count(in.s, "\n"))
				inPrefix = false
			}
			var err error
			if matrix, err = parseLits(t, &lits, matrix, in.idLimit()); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
		}
		if rdErr != nil {
			break
		}
	}
	if lits.open() > 0 {
		return nil, fmt.Errorf("qdimacs: last clause not 0-terminated")
	}
	p.Finalize()
	// Header counts are advisory in much of the benchmark ecosystem
	// (QBFLIB instances frequently disagree), so nc is not enforced.
	return qbf.New(p, matrix), nil
}

// parseVarList parses "v1 v2 … 0" onto vars; the terminating 0 is required.
func parseVarList(s string, vars []qbf.Var, limit int) ([]qbf.Var, error) {
	f, s := field(s)
	if f == "" {
		return nil, fmt.Errorf("empty quantifier line")
	}
	terminated := false
	for ; f != ""; f, s = field(s) {
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
		if n > limit {
			return nil, idRangeError(n, limit)
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

// parseLits parses one clause-section line: each literal goes onto the
// open clause of lits, and each 0 closes that clause onto matrix.
func parseLits(s string, lits *litSlab, matrix []qbf.Clause, limit int) ([]qbf.Clause, error) {
	for f, rest := field(s); f != ""; f, rest = field(rest) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad literal %q", f)
		}
		if n == 0 {
			matrix = append(matrix, lits.close())
			continue
		}
		if n > limit || n < -limit {
			return nil, idRangeError(n, limit)
		}
		lits.push(qbf.Lit(n))
	}
	return matrix, nil
}

func idRangeError(n, limit int) error {
	return fmt.Errorf("variable id %d beyond the bound %d the input read so far justifies", n, limit)
}

// litSlab hands out the clause literals of one formula from one backing
// array. A closed clause is a 3-index slice of it, so an append to one
// clause reallocates that clause instead of writing into the next. When the
// array is full, one twice as large takes over with the open clause; the
// closed clauses keep the old one.
type litSlab struct {
	buf   []qbf.Lit
	start int // first literal of the open clause
}

// reserve gives a slab with no array yet room for n literals.
func (s *litSlab) reserve(n int) {
	if s.buf == nil {
		s.buf = make([]qbf.Lit, 0, max(n, 1))
	}
}

func (s *litSlab) push(l qbf.Lit) {
	if len(s.buf) == cap(s.buf) {
		open := s.buf[s.start:]
		buf := make([]qbf.Lit, len(open), max(2*cap(s.buf), 64))
		copy(buf, open)
		s.buf, s.start = buf, 0
	}
	s.buf = append(s.buf, l)
}

// close ends the open clause and returns it; an empty clause is non-nil.
func (s *litSlab) close() qbf.Clause {
	s.reserve(1)
	c := s.buf[s.start:len(s.buf):len(s.buf)]
	s.start = len(s.buf)
	return c
}

// open returns the length of the open clause.
func (s *litSlab) open() int { return len(s.buf) - s.start }

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// field returns the first field of s and the rest of s after it, splitting
// exactly as strings.Fields does (on ASCII white space and on every Unicode
// space rune) without allocating. f is empty when s holds no field.
func field(s string) (f, rest string) {
	i := skip(s, 0, true)
	j := skip(s, i, false)
	return s[i:j], s[j:]
}

// skip advances from byte i of s past white space (space true) or past
// anything else (space false), and returns where it stopped. An invalid
// byte is a one-byte non-space rune, as for strings.Fields.
func skip(s string, i int, space bool) int {
	for i < len(s) {
		c, w, sp := s[i], 1, false
		if c < utf8.RuneSelf {
			sp = asciiSpace[c]
		} else {
			var r rune
			r, w = utf8.DecodeRuneInString(s[i:])
			sp = unicode.IsSpace(r)
		}
		if sp != space {
			break
		}
		i += w
	}
	return i
}

// Write renders q in QDIMACS if its prefix is a chain, and in QTREE
// otherwise.
func Write(w io.Writer, q *qbf.QBF) error {
	if isChain(q.Prefix) {
		return WriteQDIMACS(w, q)
	}
	return WriteQTree(w, q)
}

func isChain(p *qbf.Prefix) bool {
	if len(p.Roots()) > 1 {
		return false
	}
	for _, b := range p.Roots() {
		for x := b; x != nil; {
			if len(x.Children) > 1 {
				return false
			}
			if len(x.Children) == 1 {
				x = x.Children[0]
			} else {
				x = nil
			}
		}
	}
	return true
}

// WriteQDIMACS renders a prenex (chain shaped) formula in QDIMACS. It
// returns an error if the prefix is not a chain.
func WriteQDIMACS(w io.Writer, q *qbf.QBF) error {
	if !isChain(q.Prefix) {
		return fmt.Errorf("qdimacs: prefix is not a chain; use WriteQTree or prenex first")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p cnf %d %d\n", q.MaxVar(), len(q.Matrix))
	for _, r := range q.Prefix.Roots() {
		for b := r; b != nil; {
			bw.WriteString(b.Quant.String())
			for _, v := range b.Vars {
				fmt.Fprintf(bw, " %d", v)
			}
			bw.WriteString(" 0\n")
			if len(b.Children) == 1 {
				b = b.Children[0]
			} else {
				b = nil
			}
		}
	}
	writeClauses(bw, q.Matrix)
	return bw.Flush()
}

// WriteQTree renders any formula in the QTREE format.
func WriteQTree(w io.Writer, q *qbf.QBF) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p qtree %d %d\n", q.MaxVar(), len(q.Matrix))
	var walk func(b *qbf.Block)
	walk = func(b *qbf.Block) {
		fmt.Fprintf(bw, "q %s", b.Quant.String())
		for _, v := range b.Vars {
			fmt.Fprintf(bw, " %d", v)
		}
		bw.WriteString(" 0\n")
		for _, c := range b.Children {
			walk(c)
		}
		bw.WriteString("u 1\n")
	}
	for _, r := range q.Prefix.Roots() {
		walk(r)
	}
	writeClauses(bw, q.Matrix)
	return bw.Flush()
}

func writeClauses(bw *bufio.Writer, matrix []qbf.Clause) {
	for _, c := range matrix {
		for _, l := range c {
			fmt.Fprintf(bw, "%d ", int(l))
		}
		bw.WriteString("0\n")
	}
}

// WriteString renders q to a string using Write.
func WriteString(q *qbf.QBF) (string, error) {
	var sb strings.Builder
	if err := Write(&sb, q); err != nil {
		return "", err
	}
	return sb.String(), nil
}
