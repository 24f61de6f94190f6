package main

import (
	"math"
	"sort"
	"time"
)

// geomean is the geometric mean of positive values; 0 for an empty slice.
// Every headline time is a geomean over instances so that no single slow
// instance carries the figure the way a ratio of totals would.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// median returns the middle value (mean of the middle two for even counts);
// 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minimum is the smallest value; 0 for an empty slice. The in-process
// workloads report each item's fastest repetition: on a shared machine
// interference only ever adds time, and over a run the per-item median
// moved with the neighbours' load by a fifth while the minimum held to a
// few percent.
func minimum(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// flatten joins the per-item samples of a run into one slice.
func flatten(xss [][]float64) []float64 {
	var out []float64
	for _, xs := range xss {
		out = append(out, xs...)
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile p (0 < p ≤ 1) of xs: the
// smallest sample with at least p·n samples at or below it. It also returns
// how many samples lie strictly beyond that rank.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	k := int(math.Ceil(p*float64(len(s)) - 1e-9))
	if k < 1 {
		k = 1
	}
	return s[k-1], len(s) - k
}

// tailLevels are the candidate tail percentiles, highest first. p99.9
// is left out: a run has a few thousand samples, and ten samples beyond a
// percentile make a figure that moves by a quarter between runs.
var tailLevels = []float64{0.99, 0.95, 0.9, 0.75, 0.5}

// minBeyond is the number of samples a tail percentile must have beyond it
// before it is reported: fewer, and the figure is one or two outliers.
const minBeyond = 10

// inProcessTail is the tail level of the in-process workloads. Their
// sample count follows the machine's speed, one sample per item and
// pass, so the tail rule would switch levels between runs of the same
// code; p90 has ten samples beyond it from a hundred samples on, which
// nine items reach in twelve passes.
const inProcessTail = 0.9

// tailStat is a latency tail: the highest percentile in tailLevels that
// still has at least minBeyond samples beyond it, with its sample counts.
type tailStat struct {
	P       float64
	Value   float64
	Samples int
	Beyond  int
}

// tail applies the tail rule to xs. With too few samples for even the
// median to have minBeyond beyond it, it falls back to the median.
func tail(xs []float64) tailStat {
	for _, p := range tailLevels {
		v, beyond := percentile(xs, p)
		if beyond >= minBeyond {
			return tailStat{P: p, Value: v, Samples: len(xs), Beyond: beyond}
		}
	}
	v, beyond := percentile(xs, 0.5)
	return tailStat{P: 0.5, Value: v, Samples: len(xs), Beyond: beyond}
}

// serveWindows is how many consecutive windows serve-mix splits its
// timed phase into, about 3 s each at 30 measured seconds.
const serveWindows = 10

// quietestWindow splits xs, in time order, into serveWindows consecutive
// windows and returns the smallest median and the smallest tail among
// them. On a shared machine a neighbour's load comes and goes over
// seconds and only ever adds latency; over a whole run it moved the
// one-shot p50 by a quarter and the p99 by more than half between runs
// of the same code, while the quietest window held. A change to the
// program slows every window alike, so it still shows.
func quietestWindow(xs []float64) (p50 float64, tl tailStat) {
	n := len(xs) / serveWindows
	if n == 0 {
		p50, _ = percentile(xs, 0.5)
		return p50, tail(xs)
	}
	for w := 0; w < serveWindows; w++ {
		end := (w + 1) * n
		if w == serveWindows-1 {
			end = len(xs)
		}
		m, _ := percentile(xs[w*n:end], 0.5)
		t := tail(xs[w*n : end])
		if w == 0 || m < p50 {
			p50 = m
		}
		if w == 0 || t.Value < tl.Value {
			tl = t
		}
	}
	return p50, tl
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
