package main

import (
	"math/rand"
	"time"
)

// timing is one open-loop request: when it was due, when it was sent and
// when its reply arrived, all relative to the phase start.
type timing struct {
	due, sent, done time.Duration
}

// latency is measured from the due time, so a stall that delays later
// sends is charged to every request it delayed.
func (t timing) latency() time.Duration { return t.done - t.due }

// late is how long after its due time the request was sent.
func (t timing) late() time.Duration { return t.sent - t.due }

// clock abstracts time for the open loop so tests can drive it.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.start) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// poissonSchedule returns the due times of a Poisson arrival process at
// rate per second over [0, dur).
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return out
		}
		out = append(out, t)
	}
}

// evenSchedule returns evenly spaced due times at rate per second over
// [0, dur).
func evenSchedule(rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	for i := 0; ; i++ {
		t := time.Duration(float64(i) / rate * float64(time.Second))
		if t >= dur {
			return out
		}
		out = append(out, t)
	}
}

// openLoop sends request i at dues[i] on one connection: do(i) blocks until
// the reply, so a request whose due time passes while an earlier one is
// outstanding is sent as soon as that one returns, and its lateness shows.
func openLoop(c clock, dues []time.Duration, do func(i int)) []timing {
	out := make([]timing, len(dues))
	for i, due := range dues {
		c.sleepUntil(due)
		sent := c.now()
		do(i)
		out[i] = timing{due: due, sent: sent, done: c.now()}
	}
	return out
}

// rampStep is one step of the throughput ramp.
type rampStep struct {
	rate       float64 // nominal requests per second
	throughput float64 // replies per second actually achieved
	tail       tailStat
	lastLate   time.Duration // lateness of the step's last request
	failed     int
}

// passes reports whether the step met the latency limit with no failures
// and no growing backlog: a backlog shows as the last request of the step
// being sent later than the limit after its due time.
func (s rampStep) passes(limit time.Duration) bool {
	return s.failed == 0 && s.tail.Value <= ms(limit) && s.lastLate <= limit
}

// rampRates is the fixed ramp: geometric steps from start, each factor
// apart, n steps.
func rampRates(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	r := start
	for i := range out {
		out[i] = r
		r *= factor
	}
	return out
}

// runRamp runs steps in order and stops at the first one that misses the
// limit. It returns the achieved throughput of the last passing step
// (0 when the first step already misses) and the steps run.
func runRamp(rates []float64, limit time.Duration, step func(rate float64) rampStep) (float64, []rampStep) {
	var steps []rampStep
	best := 0.0
	for _, r := range rates {
		s := step(r)
		steps = append(steps, s)
		if !s.passes(limit) {
			break
		}
		best = s.throughput
	}
	return best, steps
}
