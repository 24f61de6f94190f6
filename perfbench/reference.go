package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/prenex"
	"repro/internal/qbf"
	"repro/internal/qdimacs"
)

// reference.json holds the expected verdicts for the default seed and
// where each came from. Regenerate it with
//
//	perfbench --write-reference perfbench/reference.json
//
//go:embed reference.json
var referenceJSON []byte

// Verdict sources.
const (
	srcBFS    = "bfs"    // models.ExplicitDiameter: φn is true iff n < diameter
	srcOracle = "oracle" // qbf.EvalWithBudget finished
	srcAgree  = "po=to"  // PO on the tree and TO on its ∃↑∀↑ prenex form agreed
)

// oracleVars is the largest paper-batch instance the oracle is asked to
// decide; beyond it the oracle only burns its budget.
const oracleVars = 32

// bfsBits bounds the explicit state-space BFS: semaphore7 has 15 bits.
const bfsBits = 16

// oracleBudget is the node budget of the exponential oracle; formulas it
// cannot finish fall back to the PO/TO agreement.
const oracleBudget = 100_000

// reference is the parsed reference file. Verdicts are one character per
// verdict ("T"/"F"); sources one character per verdict too ("b", "o",
// "a" for srcBFS, srcOracle, srcAgree), keyed like Verdicts.
type reference struct {
	Seed int64 `json:"seed"`
	// Diameters maps dia-ladder model names to their BFS diameter.
	Diameters map[string]int `json:"diameters"`
	// Verdicts maps a key to its verdict string: one verdict for a
	// paper-batch instance, the base then every variant of a sweep, every
	// fresh formula of a serve-mix stream, every call of a session base.
	Verdicts map[string]string `json:"verdicts"`
	Sources  map[string]string `json:"sources"`
}

func loadReference() *reference {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		// A corrupt embedded file is a build defect, not an input error.
		panic(fmt.Sprintf("perfbench: reference.json: %v", err))
	}
	return &r
}

func verdictChar(v core.Verdict) byte {
	if v == core.True {
		return 'T'
	}
	return 'F'
}

// lookup returns the recorded verdict at index j of key.
func (r *reference) lookup(key string, j int) (core.Verdict, bool) {
	s, ok := r.Verdicts[key]
	if !ok || j >= len(s) {
		return core.Unknown, false
	}
	if s[j] == 'T' {
		return core.True, true
	}
	return core.False, true
}

// checkIndexed compares a decided verdict with the recorded one.
func (r *reference) checkIndexed(key string, j int, v core.Verdict) error {
	want, ok := r.lookup(key, j)
	if !ok {
		return fmt.Errorf("no reference verdict for %s[%d]", key, j)
	}
	if v != want {
		return fmt.Errorf("%w: %s[%d] is %v, reference %v (%s)", errVerdict, key, j, v, want, r.source(key, j))
	}
	return nil
}

func (r *reference) source(key string, j int) string {
	s := r.Sources[key]
	if j >= len(s) {
		return "?"
	}
	switch s[j] {
	case 'b':
		return srcBFS
	case 'o':
		return srcOracle
	}
	return srcAgree
}

// checkPair checks a PO and a TO verdict of one instance: each decided one
// must match the reference.
func (r *reference) checkPair(key string, po, to core.Verdict) error {
	for _, v := range []core.Verdict{po, to} {
		if v == core.Unknown {
			continue
		}
		if err := r.checkIndexed(key, 0, v); err != nil {
			return err
		}
	}
	return nil
}

// diameter returns the recorded BFS diameter of m, or runs the BFS.
func (r *reference) diameter(m *models.Model) (int, error) {
	if d, ok := r.Diameters[m.Name]; ok {
		return d, nil
	}
	return models.ExplicitDiameter(m, bfsBits)
}

// expect decides q independently of the served path: by the oracle when
// asked and it finishes within oracleBudget, else by PO on q and TO on its
// prenex form, which must agree. The oracle costs tens of milliseconds per
// formula, so it is asked only of small instances.
func expect(q *qbf.QBF, oracle bool) (core.Verdict, byte, error) {
	if !oracle {
		return agree(q)
	}
	if v, ok := qbf.EvalWithBudget(q.Clone(), oracleBudget); ok {
		if v {
			return core.True, 'o', nil
		}
		return core.False, 'o', nil
	}
	return agree(q)
}

func agree(q *qbf.QBF) (core.Verdict, byte, error) {
	ctx := context.Background()
	po, err := core.Solve(ctx, q, core.Options{Mode: core.ModePartialOrder, TimeLimit: solveBudget})
	if err != nil {
		return core.Unknown, 0, err
	}
	to, err := core.Solve(ctx, prenex.Apply(q, prenex.EUpAUp), core.Options{Mode: core.ModeTotalOrder, TimeLimit: solveBudget})
	if err != nil {
		return core.Unknown, 0, err
	}
	if !po.Decided() || !to.Decided() {
		return core.Unknown, 0, fmt.Errorf("reference solve undecided (PO %v, TO %v)", po.Verdict, to.Verdict)
	}
	if po.Verdict != to.Verdict {
		return core.Unknown, 0, fmt.Errorf("%w: PO %v but TO %v", errVerdict, po.Verdict, to.Verdict)
	}
	return po.Verdict, 'a', nil
}

// withUnit is q with one more unit clause: what a session's assume adds.
func withUnit(q *qbf.QBF, lit int) *qbf.QBF {
	m := append(append([]qbf.Clause{}, q.Matrix...), qbf.Clause{qbf.LitOf(lit)})
	return qbf.New(q.Prefix, m)
}

// writeReference records the default seed's reference verdicts at path.
func writeReference(path string) error {
	r := reference{Seed: defaultSeed, Diameters: map[string]int{}, Verdicts: map[string]string{}, Sources: map[string]string{}}
	put := func(key string, v core.Verdict, src byte) {
		r.Verdicts[key] += string(verdictChar(v))
		r.Sources[key] += string(src)
	}

	// paper-batch: DIA instances by BFS, the rest by oracle or agreement.
	dias := map[string]int{}
	builders := suiteBuilders()
	for _, name := range batchNames() {
		q := builders[name]()
		if i := strings.LastIndex(name, "-phi"); i > 0 {
			n, err := strconv.Atoi(name[i+4:])
			if err != nil {
				return err
			}
			d, ok := dias[name[:i]]
			if !ok {
				m, err := findModel(name[:i])
				if err != nil {
					return err
				}
				if d, err = models.ExplicitDiameter(m, bfsBits); err != nil {
					return err
				}
				dias[name[:i]] = d
			}
			v := core.False
			if n < d {
				v = core.True
			}
			put(wlBatch+"/"+name, v, 'b')
			continue
		}
		v, src, err := expect(q, q.MaxVar() <= oracleVars)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		put(wlBatch+"/"+name, v, src)
	}

	// dia-ladder: diameters by BFS, sweep variants by agreement.
	for _, m := range ladderModels() {
		d, err := models.ExplicitDiameter(m, bfsBits)
		if err != nil {
			return err
		}
		r.Diameters[m.Name] = d
	}
	in, err := buildLadder(&r)
	if err != nil {
		return err
	}
	for i, b := range in.bases {
		q := in.formulas[i]
		key := wlLadder + "/sweep/" + b.name()
		v, src, err := expect(q, false)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		put(key, v, src)
		for _, l := range sweepLits(q) {
			v, src, err := expect(withUnit(q, l.Int()), false)
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			put(key, v, src)
		}
	}

	// serve-mix: the fresh formulas of the timed stream at the default run
	// length by the oracle, those of the whole ramp and every session call
	// by agreement.
	seed := int64(defaultSeed)
	sin, err := buildServeInputs(seed, defaultPhase)
	if err != nil {
		return err
	}
	rampReqs, err := sin.ramp.take(rampCapacity())
	if err != nil {
		return err
	}
	for _, sp := range []struct {
		name  string
		space int
		reqs  []oneShot
	}{{"timed", spaceTimed, sin.timed}, {"ramp", spaceRamp, rampReqs}} {
		n := 0
		for _, q := range sp.reqs {
			n = max(n, q.fresh+1)
		}
		key := wlServe + "/" + sp.name
		for j := 0; j < n; j++ {
			v, src, err := expect(freshFormula(seed, sp.space, j), sp.space == spaceTimed)
			if err != nil {
				return fmt.Errorf("%s[%d]: %w", key, j, err)
			}
			put(key, v, src)
		}
	}
	for b := range sin.sessionTexts {
		q, err := qdimacs.ReadString(sin.sessionTexts[b])
		if err != nil {
			return err
		}
		key := fmt.Sprintf("%s/session/%d", wlServe, b)
		for _, l := range sin.sessionLits[b] {
			v, src, err := expect(withUnit(q, l), false)
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			put(key, v, src)
		}
	}

	out, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func findModel(name string) (*models.Model, error) {
	for _, m := range bench.DIAModels(bench.ScaleDefault) {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("unknown model %q", name)
}

// oracleSample is how often, off the default seed, a fresh formula of the
// timed stream is also decided by the oracle; the rest are cross-checked
// PO against TO, which keeps the check to a few seconds.
const oracleSample = 64

// checkServe checks every served verdict: the reference where the default
// seed recorded one, else an independent decision of the same formula.
func checkServe(seed int64, in *serveInputs, warm []shotResult, phases []phaseResult, rampReqs []oneShot, rampShots []shotResult, calls []sessionCall) error {
	ref := loadReference()
	useRef := seed == defaultSeed
	memo := map[string]core.Verdict{}
	want := func(key string, j int, q func() *qbf.QBF) (core.Verdict, error) {
		if useRef {
			if v, ok := ref.lookup(key, j); ok {
				return v, nil
			}
		}
		mk := key + "#" + strconv.Itoa(j)
		if v, ok := memo[mk]; ok {
			return v, nil
		}
		v, _, err := expect(q(), key == wlServe+"/timed" && j%oracleSample == 0)
		if err != nil {
			return core.Unknown, fmt.Errorf("%s[%d]: %w", key, j, err)
		}
		memo[mk] = v
		return v, nil
	}
	shots := func(name string, space int, reqs []oneShot, results []shotResult) error {
		key := wlServe + "/" + name
		for i, r := range results {
			if !shotOK(r) {
				continue
			}
			j := reqs[i].fresh
			v, err := want(key, j, func() *qbf.QBF { return freshFormula(seed, space, j) })
			if err != nil {
				return err
			}
			if r.out.Resp.Verdict != v.String() {
				return fmt.Errorf("%w: %s request %d (fresh %d, copy %v) served %s, reference %v",
					errVerdict, key, i, j, reqs[i].copy, r.out.Resp.Verdict, v)
			}
		}
		return nil
	}
	if err := shots("warm", spaceWarm, in.warm, warm); err != nil {
		return err
	}
	for _, ph := range phases {
		if err := shots("timed", spaceTimed, in.timed, ph.shots); err != nil {
			return err
		}
		calls = append(calls, ph.calls...)
	}
	if err := shots("ramp", spaceRamp, rampReqs, rampShots); err != nil {
		return err
	}
	for _, c := range calls {
		if !callOK(c) {
			continue
		}
		key := fmt.Sprintf("%s/session/%d", wlServe, c.base)
		v, err := want(key, c.call, func() *qbf.QBF {
			q, err := qdimacs.ReadString(in.sessionTexts[c.base])
			if err != nil {
				panic(err) // the text was generated by the benchmark itself
			}
			return withUnit(q, in.sessionLits[c.base][c.call])
		})
		if err != nil {
			return err
		}
		if c.out.Resp.Verdict != v.String() {
			return fmt.Errorf("%w: %s call %d served %s, reference %v", errVerdict, key, c.call, c.out.Resp.Verdict, v)
		}
	}
	return nil
}
