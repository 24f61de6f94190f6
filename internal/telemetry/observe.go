package telemetry

import (
	"errors"
	"fmt"
	"os"
)

// Observability bundles the exporters a CLI wires up behind its -trace,
// -metrics-addr and -profile flags: a JSONL trace sink, an expvar metrics
// registry served with pprof over HTTP, and CPU/heap profile capture. A
// run with none of the flags set gets a nil Tracer — the solver's
// disabled path — at the cost of one nil check per event site.
type Observability struct {
	// Tracer is the tracer to place in core.Options.Telemetry. Nil when
	// no exporter was requested.
	Tracer *Tracer
	// Metrics is the expvar-published counter registry, nil unless a
	// metrics address was requested.
	Metrics *Metrics
	// Addr is the bound address of the debug HTTP server ("" when not
	// serving), useful for telling the user where /debug/ lives when the
	// requested address had port 0.
	Addr string

	sink        *JSONLSink
	stopProfile func() error
	shutdown    func() error
	tracePath   string
}

// Setup wires the exporters selected by the three flag values; empty
// strings disable the corresponding exporter. The caller must invoke
// Finish before exiting — os.Exit skips deferred calls, so CLIs call it
// explicitly — or events buffered in the trace sink are lost.
func Setup(tracePath, metricsAddr, profilePrefix string) (*Observability, error) {
	obs := &Observability{tracePath: tracePath}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		obs.sink = NewJSONLSink(f)
	}
	if metricsAddr != "" {
		obs.Metrics = NewMetrics()
		PublishOnce(obs.Metrics, "qbf.events")
		addr, shutdown, err := ServeDebug(metricsAddr)
		if err != nil {
			obs.closeSink()
			return nil, err
		}
		obs.Addr = addr
		obs.shutdown = shutdown
	}
	if obs.sink != nil || obs.Metrics != nil {
		obs.Tracer = New(obs.sink, obs.Metrics)
	}
	if profilePrefix != "" {
		stop, err := StartProfiles(profilePrefix)
		if err != nil {
			obs.closeSink()
			if obs.shutdown != nil {
				obs.shutdown() //nolint:errcheck // best-effort unwind of partial setup
			}
			return nil, err
		}
		obs.stopProfile = stop
	}
	return obs, nil
}

func (o *Observability) closeSink() {
	if o.sink != nil {
		o.sink.Close() //nolint:errcheck // best-effort unwind of partial setup
		o.sink = nil
	}
}

// Finish flushes the trace, writes the profiles, and shuts the debug
// server down, reporting every failure (joined) so a CLI can surface a
// truncated trace instead of exiting 0 with silent data loss. Safe to
// call on a nil receiver and idempotent per exporter.
func (o *Observability) Finish() error {
	if o == nil {
		return nil
	}
	var errs []error
	if o.sink != nil {
		if err := o.sink.Close(); err != nil {
			errs = append(errs, fmt.Errorf("writing trace %s: %w", o.tracePath, err))
		}
		o.sink = nil
	}
	if o.stopProfile != nil {
		if err := o.stopProfile(); err != nil {
			errs = append(errs, fmt.Errorf("writing profiles: %w", err))
		}
		o.stopProfile = nil
	}
	if o.shutdown != nil {
		o.shutdown() //nolint:errcheck // best-effort teardown at exit
		o.shutdown = nil
	}
	return errors.Join(errs...)
}
