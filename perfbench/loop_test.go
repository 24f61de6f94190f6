package main

import (
	"math/rand"
	"testing"
	"time"
)

// fakeClock advances only when the loop sleeps or a request is served.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	c := &fakeClock{}
	dues := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 100 * time.Millisecond}
	// The second request stalls for 35 ms; the two due behind it wait.
	service := []time.Duration{5, 35, 5, 5, 5}
	got := openLoop(c, dues, func(i int) { c.t += service[i] * time.Millisecond })
	want := []struct{ late, latency time.Duration }{
		{0, 5},
		{0, 35},
		{25, 30}, // sent at 45 when due at 20, done at 50
		{20, 25}, // sent at 50 when due at 30, done at 55
		{0, 5},   // the loop has caught up again
	}
	for i, w := range want {
		if got[i].late() != w.late*time.Millisecond || got[i].latency() != w.latency*time.Millisecond {
			t.Errorf("request %d: late %v latency %v, want %v and %v", i, got[i].late(), got[i].latency(),
				w.late*time.Millisecond, w.latency*time.Millisecond)
		}
	}
}

func TestPoissonSchedule(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 1000, time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 1000, time.Second)
	if len(a) != len(b) || len(a) < 900 || len(a) > 1100 {
		t.Fatalf("schedule of %d and %d arrivals, want the same count near 1000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) || a[i] >= time.Second {
			t.Fatalf("arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRampStopsAtFirstMiss(t *testing.T) {
	limit := 10 * time.Millisecond
	rates := rampRates(100, 1.05, 10)
	for i := 1; i < len(rates); i++ {
		if r := rates[i] / rates[i-1]; r >= 1.25 {
			t.Fatalf("adjacent steps %v apart, not closer than solve_max_rps's bound", r)
		}
	}
	var ran []float64
	best, steps := runRamp(rates, limit, func(rate float64) rampStep {
		ran = append(ran, rate)
		s := rampStep{rate: rate, throughput: rate * 0.99, tail: tailStat{Value: 2}}
		switch {
		case rate > 120: // a later step that would pass again is never run
		case rate > 112:
			s.tail.Value = 12 // over the limit
		}
		return s
	})
	if len(steps) != 4 || len(ran) != 4 {
		t.Fatalf("ran %d steps (%v), want the ramp to stop at the first miss, step 4", len(steps), ran)
	}
	if want := rates[2] * 0.99; best != want {
		t.Errorf("max rate %v, want the last passing step's throughput %v", best, want)
	}
}

func TestRampStepRules(t *testing.T) {
	limit := 10 * time.Millisecond
	ok := rampStep{tail: tailStat{Value: 9.9}, lastLate: 3 * time.Millisecond}
	if !ok.passes(limit) {
		t.Fatal("a step under the limit with no backlog should pass")
	}
	backlog := ok
	backlog.lastLate = 11 * time.Millisecond
	failed := ok
	failed.failed = 1
	slow := ok
	slow.tail.Value = 10.1
	for name, s := range map[string]rampStep{"backlog": backlog, "failure": failed, "tail": slow} {
		if s.passes(limit) {
			t.Errorf("a step with a %s should miss", name)
		}
	}
	if best, _ := runRamp([]float64{100, 105}, limit, func(float64) rampStep { return slow }); best != 0 {
		t.Errorf("a ramp whose first step misses reports %v, want 0", best)
	}
}

func TestWallClockNeverWakesEarly(t *testing.T) {
	c := wallClock{start: time.Now()}
	for _, d := range []time.Duration{50 * time.Microsecond, 300 * time.Microsecond, 2 * time.Millisecond} {
		due := c.now() + d
		c.sleepUntil(due)
		if now := c.now(); now < due {
			t.Errorf("sleepUntil(%v) returned at %v", due, now)
		}
	}
	// A due time already past returns at once.
	c.sleepUntil(0)
}
