package telemetry

import (
	"expvar"
	"fmt"
	"sort"
	"sync/atomic"
)

// Metrics is an atomic per-kind event counter registry, safe for
// concurrent tracers that share it. The zero value is ready to use.
type Metrics struct {
	counts [numKinds]atomic.Int64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

func (m *Metrics) inc(k Kind) {
	if int(k) < len(m.counts) {
		m.counts[k].Add(1)
	}
}

// Count returns the number of events of kind k recorded so far.
func (m *Metrics) Count(k Kind) int64 {
	if m == nil || int(k) >= len(m.counts) {
		return 0
	}
	return m.counts[k].Load()
}

// Snapshot returns a point-in-time copy of all counters keyed by kind
// name. Kinds with a zero count are included, so the key set is stable.
func (m *Metrics) Snapshot() map[string]int64 {
	out := make(map[string]int64, numKinds)
	for i := range m.counts {
		out[Kind(i).String()] = m.counts[i].Load()
	}
	return out
}

// Publish registers the registry with the expvar root under the given
// name (e.g. "qbf.events"), making it visible at /debug/vars on any mux
// that mounts expvar.Handler. Publishing the same name twice panics, per
// expvar convention — call once per process.
func (m *Metrics) Publish(name string) {
	expvar.Publish(name, expvar.Func(func() any { return m.Snapshot() }))
}

// String renders the non-zero counters in kind order, for logs and the
// qbfstat trace summary footer.
func (m *Metrics) String() string {
	snap := m.Snapshot()
	keys := make([]string, 0, len(snap))
	for i := 0; i < int(numKinds); i++ {
		k := Kind(i).String()
		if snap[k] != 0 {
			keys = append(keys, k)
		}
	}
	sort.SliceStable(keys, func(a, b int) bool {
		ka, _ := KindFromString(keys[a])
		kb, _ := KindFromString(keys[b])
		return ka < kb
	})
	s := ""
	for _, k := range keys {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", k, snap[k])
	}
	return s
}
