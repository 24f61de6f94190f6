package main

import (
	"math"
	"testing"
)

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 100}, 10},
		{[]float64{2, 8, 4}, 4},
		// One outlier moves a geomean far less than it moves a total.
		{[]float64{1, 1, 1, 1000}, math.Pow(1000, 0.25)},
	} {
		if got := geomean(tc.xs); math.Abs(got-tc.want) > 1e-9*math.Max(1, tc.want) {
			t.Errorf("geomean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		value  float64
		beyond int
	}{
		// 10000 samples: p99, the highest level, with 100 beyond.
		{10000, 0.99, 9900, 100},
		// 1000 samples: p99 is rank 990 with exactly 10 beyond.
		{1000, 0.99, 990, 10},
		// 999 samples: p99 is rank 990 with 9 beyond, so p95.
		{999, 0.95, 950, 49},
		{200, 0.95, 190, 10},
		{100, 0.9, 90, 10},
		{40, 0.75, 30, 10},
		{20, 0.5, 10, 10},
		// Too few for any level: the median, with what lies beyond it.
		{5, 0.5, 3, 2},
	} {
		got := tail(seq(tc.n))
		if got.P != tc.p || got.Value != tc.value || got.Beyond != tc.beyond || got.Samples != tc.n {
			t.Errorf("tail(%d samples) = %+v, want p%v value %v beyond %d", tc.n, got, tc.p, tc.value, tc.beyond)
		}
		if tc.n >= 20 && got.Beyond < minBeyond {
			t.Errorf("tail(%d samples) reported with only %d beyond", tc.n, got.Beyond)
		}
	}
}

func TestTailCountsFailuresAsMisses(t *testing.T) {
	xs := seq(100)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if got := tail(xs); !math.IsInf(got.Value, 1) {
		t.Errorf("11 failures in 100 samples should put p90 beyond every limit, got %+v", got)
	}
}

func TestQuietestWindowIgnoresNoisyStretches(t *testing.T) {
	xs := make([]float64, 10000)
	for i := range xs {
		// Every window but the seventh runs twice as slow.
		xs[i] = float64(i%100+1) * 2
		if i/1000 == 6 {
			xs[i] /= 2
		}
	}
	p50, tl := quietestWindow(xs)
	if p50 != 50 || tl.P != 0.99 || tl.Value != 99 || tl.Samples != 1000 || tl.Beyond != 10 {
		t.Errorf("quietestWindow = %v, %+v; want the seventh window: p50 50, p99 99 of 1000 samples, 10 beyond", p50, tl)
	}
	// Too few samples to split: the whole slice.
	p50, tl = quietestWindow(seq(5))
	if p50 != 3 || tl != tail(seq(5)) {
		t.Errorf("quietestWindow(5 samples) = %v, %+v", p50, tl)
	}
}
