// Package lineartest holds the wall-clock bound of the linear-time guards
// on the path from formula text to a ready solver. The guards in qbf, core
// and server feed a step an input on which a quadratic version of it takes
// minutes, and fail if it takes longer than Bound.
package lineartest

import (
	"testing"
	"time"
)

// Bound is generous: the guarded steps take well under a second even
// under -race, while a quadratic step on the guards' inputs takes minutes.
const Bound = 10 * time.Second

// Within fails the test if f takes longer than Bound. A timed-out f keeps
// running until the test binary exits.
func Within(t testing.TB, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { //lint:allow L12 a timed-out f runs until the test binary exits
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(Bound):
		t.Fatalf("%s took over %v: not linear", what, Bound)
	}
}
