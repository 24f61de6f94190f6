package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// specifiedMetrics are the metric names the benchmark was specified with.
// The workload-specific end-to-end times of the specification (PO and TO
// geomeans, ladder and sweep geomeans, one-shot and session-call p50 and
// tail) are the primary and secondary metrics, which every workload
// reports.
var specifiedMetrics = []string{
	"setup_s", "failed_share", "peak_rss_mb", "primary_ms", "primary_tail_ms",
	"secondary_ms", "secondary_tail_ms", "solve_max_rps",
	"qdimacs.read_ms", "prenex.apply_ms", "core.setup_ms", "core.search_ms",
	"core.props_per_ms", "core.decisions", "core.propagations", "core.conflicts",
	"core.solutions", "core.learned_clauses", "core.learned_cubes", "core.restarts",
	"core.peak_learned_kb", "core.frame_ops_ms", "dia.overhead_ms",
	"core.ladder_decision_ratio", "gate.key_ms", "gate.cache_hit_ratio",
	"gate.hit_p50_ms", "gate.miss_p50_ms", "gate.hedges", "gate.failovers",
	"server.queue_ms", "server.solve_ms", "server.overhead_ms", "server.shed",
	"journal.appends", "journal.bytes", "client.retries", "client.late_ms",
	"runtime.alloc_mb", "runtime.gc_cpu_frac", "bench.trace_overhead",
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	b := loadBenchFile(t)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || len(name) > 64 {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", name)
		}
		if seen[name] {
			t.Errorf("metric %q listed twice", name)
		}
		seen[name] = true
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		check(m.Name)
		if i < len(endToEnd) && (endToEnd[i].Name != m.Name || endToEnd[i].Unit != m.Unit) {
			t.Errorf("end-to-end %d: file %s/%s, benchmark %s/%s", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the benchmark prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		check(m.Name)
		if i < len(perLayer) && perLayer[i] != (metricDef{m.Name, m.Unit}) {
			t.Errorf("per-layer %d: file %s/%s, benchmark %s/%s", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
	for _, n := range specifiedMetrics {
		if !seen[n] {
			t.Errorf("metric %q is missing from BENCHMARK.json", n)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s must be an end-to-end metric")
	}

	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(allWorkloads) {
		t.Fatalf("workloads %v, benchmark runs %v", names, allWorkloads)
	}
	for i := range names {
		if names[i] != allWorkloads[i] {
			t.Errorf("workload %d: file %q, benchmark %q", i, names[i], allWorkloads[i])
		}
	}
}

// TestRunsDeclareEveryMetric checks that an untraced run declares every
// end-to-end metric and a traced run every per-layer one, whatever the
// workload: the result line must carry the whole set.
func TestRunsDeclareEveryMetric(t *testing.T) {
	r := newReport(false)
	for _, d := range endToEnd {
		if r.units[d.Name] != d.Unit {
			t.Errorf("an untraced run does not declare %s in %s", d.Name, d.Unit)
		}
	}
	if len(r.units) != len(endToEnd) {
		t.Errorf("an untraced run declares %d metrics, want the %d end-to-end ones", len(r.units), len(endToEnd))
	}
	r.setOps(1, 2, 3, 4)
	r.set("setup_s", 5)
	r.set("peak_rss_mb", 6)
	r.set("core.search_ms", 7)
	if miss := r.missing(); len(miss) > 0 {
		t.Errorf("end-to-end metrics left unset: %v", miss)
	}
	if _, ok := r.Metrics["core.search_ms"]; ok {
		t.Error("an untraced run printed a per-layer metric")
	}
	r = newReport(true)
	if len(r.Metrics) != len(perLayer) {
		t.Errorf("a traced run presets %d of %d per-layer metrics", len(r.Metrics), len(perLayer))
	}
}
