package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric. The tables below are the single
// list the benchmark prints from; metrics_test.go checks them against
// BENCHMARK.json.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the untraced metrics. Every workload reports every one.
// Each workload times two kinds of operation, its primary and its
// secondary one:
//
//	paper-batch  PO solve of an instance   TO solve of its prenex form
//	dia-ladder   incremental ladder        variant sweep
//	serve-mix    one-shot through the gate  session call
//
// The in-process workloads report the geomean over items of each item's
// fastest repetition, serve-mix the median latency of its quietest
// window. The tails of the same operations are traced metrics: a
// neighbour's load on a shared machine slows whole runs by a fifth and
// queueing multiplies that in a tail, so no bound could hold them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"primary_ms", "ms"},
	{"secondary_ms", "ms"},
}

// setOps reports the typical time of the primary and secondary
// operations (end-to-end) and their tails (traced); a run keeps the ones
// it declares.
func (r *report) setOps(primary, primaryTail, secondary, secondaryTail float64) {
	r.set("primary_ms", primary)
	r.set("primary_tail_ms", primaryTail)
	r.set("secondary_ms", secondary)
	r.set("secondary_tail_ms", secondaryTail)
}

// coreCounts are the search-effort counters taken from Result.Stats,
// Steps[].Stats and response stats.
var coreCounts = []string{
	"decisions", "propagations", "conflicts", "solutions",
	"learned_clauses", "learned_cubes", "restarts",
}

// perLayer lists the traced metrics. Every workload prints all of them; a
// layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"failed_share", "ratio"},
		{"qdimacs.read_ms", "ms"},
		{"prenex.apply_ms", "ms"},
		{"core.setup_ms", "ms"},
		{"core.search_ms", "ms"},
		{"core.props_per_ms", "1/ms"},
	}
	for _, suffix := range []string{"", ".po", ".to"} {
		for _, c := range coreCounts {
			defs = append(defs, metricDef{"core." + c + suffix, "count"})
		}
		defs = append(defs, metricDef{"core.peak_learned_kb" + suffix, "KiB"})
	}
	return append(defs, []metricDef{
		{"core.frame_ops_ms", "ms"},
		{"dia.overhead_ms", "ms"},
		{"core.ladder_decision_ratio", "ratio"},
		{"gate.key_ms", "ms"},
		{"gate.cache_hit_ratio", "ratio"},
		{"gate.hit_p50_ms", "ms"},
		{"gate.miss_p50_ms", "ms"},
		{"gate.hedges", "count"},
		{"gate.failovers", "count"},
		{"server.queue_ms", "ms"},
		{"server.solve_ms", "ms"},
		{"server.overhead_ms", "ms"},
		{"server.shed", "count"},
		{"solve_max_rps", "req/s"},
		{"primary_tail_ms", "ms"},
		{"secondary_tail_ms", "ms"},
		{"journal.appends", "count"},
		{"journal.bytes", "bytes"},
		{"client.retries", "count"},
		{"client.late_ms", "ms"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"telemetry.restart", "count"},
		{"telemetry.frame", "count"},
		{"telemetry.cachehit", "count"},
		{"bench.trace_overhead", "ratio"},
		{"bench.reconcile_share", "ratio"},
	}...)
}()

// report collects one run's metrics and its operation counts.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	units map[string]string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newReport prepares the metric set of one run: every end-to-end metric,
// or, traced, every per-layer metric preset to 0.
func newReport(traced bool) *report {
	r := &report{Correct: true, Metrics: map[string]metric{}, units: map[string]string{}}
	if traced {
		for _, d := range perLayer {
			r.units[d.Name] = d.Unit
			r.Metrics[d.Name] = metric{0, d.Unit}
		}
		return r
	}
	for _, d := range endToEnd {
		r.units[d.Name] = d.Unit
	}
	return r
}

// set records a metric the report declares; others are ignored, so the
// workloads can set end-to-end and per-layer values unconditionally and
// each run prints exactly its declared set.
func (r *report) set(name string, v float64) {
	if u, ok := r.units[name]; ok {
		r.Metrics[name] = metric{v, u}
	}
}

// missing lists declared metrics the workload never set.
func (r *report) missing() []string {
	var out []string
	for name := range r.units {
		if _, ok := r.Metrics[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// write prints the metric table for people, then the JSON result as the
// last line of standard output.
func (r *report) write(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-28s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// runtimeSample is a reading of the allocator and GC counters.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// setRuntime reports the allocator and GC work between two readings.
func (r *report) setRuntime(before, after runtimeSample) {
	r.set("runtime.alloc_mb", (after.allocBytes-before.allocBytes)/(1<<20))
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		r.set("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/cpu)
	}
}
