// Command qbfgen generates benchmark instances from the paper's workload
// families and writes them in QDIMACS (prenex) or QTREE (non-prenex)
// format to stdout.
//
// Families:
//
//	ncf   — nested counterfactual trees (Section VII.A)
//	fpv   — web-service composition games (Section VII.B)
//	dia   — diameter formulas φn for a model (Section VII.C)
//	prob  — random model-A prenex QBFs (Section VII.D)
//	fixed — structured prenex QBFs (Section VII.D)
//
// Examples:
//
//	qbfgen -family ncf -dep 4 -vars 8 -cls 16 -lpc 3 -seed 7
//	qbfgen -family dia -model counter -size 3 -n 4
//	qbfgen -family prob -blocks 3 -blocksize 8 -clauses 24 -seed 1
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dia"
	"repro/internal/fpv"
	"repro/internal/models"
	"repro/internal/ncf"
	"repro/internal/prenex"
	"repro/internal/qbf"
	"repro/internal/qdimacs"
	"repro/internal/randqbf"
)

func main() {
	family := flag.String("family", "ncf", "instance family: ncf, fpv, dia, prob, fixed")
	seed := flag.Int64("seed", 0, "generator seed")
	doPrenex := flag.String("prenex", "", "convert to prenex form with a strategy: eu-au, eu-ad, ed-au, ed-ad")
	doMini := flag.Bool("miniscope", false, "miniscope the result before printing")

	// ncf
	dep := flag.Int("dep", 4, "ncf: nesting depth")
	vars := flag.Int("vars", 4, "ncf: variables per level")
	cls := flag.Int("cls", 8, "ncf: clauses per level")
	lpc := flag.Int("lpc", 3, "ncf: literals per clause")

	// fpv
	services := flag.Int("services", 2, "fpv: number of services")
	steps := flag.Int("steps", 2, "fpv: unrolling depth")
	bits := flag.Int("bits", 2, "fpv: variables per block")

	// dia
	model := flag.String("model", "counter", "dia: model family (counter, ring, semaphore, dme, twobit, gray, shift, arbiter)")
	size := flag.Int("size", 3, "dia: model size parameter")
	n := flag.Int("n", 1, "dia: path length bound of φn")

	// prob
	blocks := flag.Int("blocks", 3, "prob: quantifier blocks")
	blockSize := flag.Int("blocksize", 8, "prob: variables per block")
	clauses := flag.Int("clauses", 24, "prob: number of clauses")
	length := flag.Int("length", 3, "prob: literals per clause")
	communities := flag.Int("communities", 1, "prob: variable communities")
	flag.Parse()

	q, err := generate(genConfig{
		family: *family, seed: *seed,
		dep: *dep, vars: *vars, cls: *cls, lpc: *lpc,
		services: *services, steps: *steps, bits: *bits,
		model: *model, size: *size, n: *n,
		blocks: *blocks, blockSize: *blockSize, clauses: *clauses,
		length: *length, communities: *communities,
	})
	if err != nil {
		fail(err)
	}
	if *doMini {
		q = prenex.Miniscope(q)
	}
	if *doPrenex != "" {
		s, err := prenex.ParseStrategy(*doPrenex)
		if err != nil {
			fail(err)
		}
		q = prenex.Apply(q, s)
	}
	if err := qdimacs.Write(os.Stdout, q); err != nil {
		fail(err)
	}
}

type genConfig struct {
	family                     string
	seed                       int64
	dep, vars, cls, lpc        int
	services, steps, bits      int
	model                      string
	size, n                    int
	blocks, blockSize, clauses int
	length, communities        int
}

func generate(c genConfig) (*qbf.QBF, error) {
	switch c.family {
	case "ncf":
		return ncf.Generate(ncf.Params{
			Dep: c.dep, Var: c.vars, Cls: c.cls, Lpc: c.lpc, Seed: c.seed,
		}), nil
	case "fpv":
		return fpv.Generate(fpv.Params{
			Services: c.services, Steps: c.steps, Bits: c.bits, Seed: c.seed,
		}), nil
	case "dia":
		m, err := pickModel(c.model, c.size)
		if err != nil {
			return nil, err
		}
		return dia.Phi(m, c.n), nil
	case "prob":
		return randqbf.Prob(randqbf.ProbParams{
			Blocks: c.blocks, BlockSize: c.blockSize, Clauses: c.clauses,
			Length: c.length, MaxUniversal: 1,
			Communities: c.communities, CrossPct: 5, Seed: c.seed,
		}), nil
	case "fixed":
		return randqbf.Fixed(c.seed), nil
	}
	return nil, fmt.Errorf("unknown family %q", c.family)
}

func pickModel(name string, size int) (*models.Model, error) {
	switch name {
	case "counter":
		return models.Counter(size), nil
	case "ring":
		return models.Ring(size), nil
	case "semaphore":
		return models.Semaphore(size), nil
	case "dme":
		return models.DME(size), nil
	case "twobit":
		return models.TwoBit(), nil
	case "gray":
		return models.GrayCounter(size), nil
	case "shift":
		return models.ShiftRegister(size), nil
	case "arbiter":
		return models.Arbiter(size), nil
	}
	return nil, fmt.Errorf("unknown model %q", name)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qbfgen:", err)
	os.Exit(1)
}
