//go:build qbfnotrace

package core

import "repro/internal/telemetry"

// qbfnotrace strips the telemetry emit helpers to empty bodies the
// compiler erases, giving scripts/check.sh a no-hook baseline to measure
// the nil-check cost of the default build against. Options.Telemetry is
// ignored under this tag.

func (s *Solver) emitEv(telemetry.Kind, int, int64, int64) {}

func (s *Solver) emitConstraintEv(telemetry.Kind, int) {}

func (s *Solver) emitLitsEv(telemetry.Kind, []code, int64) {}
