package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// jsonEvent is the wire form of an Event. Every field is always present
// (no omitempty): trace consumers get a fixed schema and zero values stay
// distinguishable from absent ones. ReadEvents ignores fields it does not
// know, so traces with extra fields (older ones carry "w"/"g" worker tags)
// still replay.
type jsonEvent struct {
	T     int64  `json:"t"`
	Ev    string `json:"ev"`
	Level int32  `json:"lvl"`
	Depth int32  `json:"d"`
	A     int64  `json:"a"`
	B     int64  `json:"b"`
}

// JSONLSink writes one JSON object per event to an io.Writer, newline
// delimited. Encoding is hand-rolled into a reused buffer — no
// reflection, no per-event allocation after warm-up — and the sink is
// safe for concurrent emitters (one mutex serializes buffer and writer).
// Call Close (or at least Flush) before reading the output: events are
// buffered.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer // underlying closer, if the writer has one
	buf []byte
	err error
}

// NewJSONLSink wraps w. If w is also an io.Closer, Close closes it after
// flushing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b := s.buf[:0]
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, e.T, 10)
	b = append(b, `,"ev":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","lvl":`...)
	b = strconv.AppendInt(b, int64(e.Level), 10)
	b = append(b, `,"d":`...)
	b = strconv.AppendInt(b, int64(e.Depth), 10)
	b = append(b, `,"a":`...)
	b = strconv.AppendInt(b, e.A, 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, e.B, 10)
	b = append(b, '}', '\n')
	s.buf = b
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
}

// Flush pushes buffered events to the underlying writer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Close flushes and, when the underlying writer is a Closer, closes it.
// The first error wins.
func (s *JSONLSink) Close() error {
	err := s.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ReadEvents replays a JSONL trace, invoking fn for each decoded event in
// file order. Lines that fail to decode or name an unknown kind abort the
// replay with a positioned error, so a truncated or corrupt trace is
// reported rather than silently undercounted.
func ReadEvents(r io.Reader, fn func(Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return fmt.Errorf("trace line %d: %w", line, err)
		}
		k, ok := KindFromString(je.Ev)
		if !ok {
			return fmt.Errorf("trace line %d: unknown event kind %q", line, je.Ev)
		}
		e := Event{T: je.T, Kind: k, Level: je.Level, Depth: je.Depth, A: je.A, B: je.B}
		if err := fn(e); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Summary aggregates a replayed trace: event totals per kind, the
// decision count per prefix depth (the histogram the paper's PO-vs-TO
// comparison needs), and the gate's routing/hedging/cache aggregates when
// the trace carries front-tier events.
type Summary struct {
	Total     int64
	ByKind    map[Kind]int64
	DecDepth  map[int32]int64 // decisions per prefix depth
	LastNanos int64           // timestamp of the last event

	// ByBackend counts gate route events per backend index (KindRoute.A),
	// and Failovers those with a non-zero attempt ordinal.
	ByBackend map[int64]int64
	Failovers int64
	// HedgesResolved / HedgeWins aggregate KindHedge: pairs that resolved
	// and the subset the hedge (not the primary) won.
	HedgesResolved int64
	HedgeWins      int64
	// CacheLookups / CacheHits aggregate KindCacheHit events.
	CacheLookups int64
	CacheHits    int64

	// The Journal* fields aggregate KindJournal: appends recorded,
	// degradations to non-durable mode, sessions recovered at boot,
	// compactions run, and bytes dropped truncating torn tails.
	JournalAppends     int64
	JournalDegrades    int64
	JournalRecovered   int64
	JournalCompactions int64
	JournalTruncated   int64
}

// Summarize replays the trace from r and aggregates it.
func Summarize(r io.Reader) (Summary, error) {
	s := Summary{
		ByKind:    make(map[Kind]int64),
		DecDepth:  make(map[int32]int64),
		ByBackend: make(map[int64]int64),
	}
	err := ReadEvents(r, func(e Event) error {
		s.Total++
		s.ByKind[e.Kind]++
		switch e.Kind {
		case KindDecision:
			s.DecDepth[e.Depth]++
		case KindRoute:
			s.ByBackend[e.A]++
			if e.B > 0 {
				s.Failovers++
			}
		case KindHedge:
			s.HedgesResolved++
			if e.A == 1 {
				s.HedgeWins++
			}
		case KindCacheHit:
			s.CacheLookups++
			if e.A == 1 {
				s.CacheHits++
			}
		case KindJournal:
			switch e.A {
			case 0:
				s.JournalAppends++
			case 1:
				s.JournalDegrades++
			case 2:
				s.JournalRecovered += e.B
			case 3:
				s.JournalCompactions++
			case 4:
				s.JournalTruncated += e.B
			}
		}
		if e.T > s.LastNanos {
			s.LastNanos = e.T
		}
		return nil
	})
	return s, err
}

// WriteText renders the summary as the human-readable report `qbfstat
// trace` prints: totals, per-kind counts in kind order, and the
// decision-by-prefix-depth histogram.
func (s Summary) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "events=%d span=%s\n",
		s.Total, fmtNanos(s.LastNanos)); err != nil {
		return err
	}
	for i := 0; i < int(numKinds); i++ {
		k := Kind(i)
		if n := s.ByKind[k]; n != 0 {
			if _, err := fmt.Fprintf(w, "  %-10s %d\n", k, n); err != nil {
				return err
			}
		}
	}
	depths := make([]int32, 0, len(s.DecDepth))
	for d := range s.DecDepth {
		depths = append(depths, d)
	}
	sort.Slice(depths, func(a, b int) bool { return depths[a] < depths[b] })
	for _, d := range depths {
		if _, err := fmt.Fprintf(w, "  decisions@depth%-3d %d\n", d, s.DecDepth[d]); err != nil {
			return err
		}
	}
	backends := make([]int64, 0, len(s.ByBackend))
	for b := range s.ByBackend {
		backends = append(backends, b)
	}
	sort.Slice(backends, func(a, b int) bool { return backends[a] < backends[b] })
	for _, b := range backends {
		if _, err := fmt.Fprintf(w, "  backend %-3d %d\n", b, s.ByBackend[b]); err != nil {
			return err
		}
	}
	if len(s.ByBackend) > 0 && s.Failovers > 0 {
		if _, err := fmt.Fprintf(w, "  failovers  %d\n", s.Failovers); err != nil {
			return err
		}
	}
	if s.HedgesResolved > 0 {
		if _, err := fmt.Fprintf(w, "  hedge-wins %d/%d (%.1f%%)\n",
			s.HedgeWins, s.HedgesResolved, 100*float64(s.HedgeWins)/float64(s.HedgesResolved)); err != nil {
			return err
		}
	}
	if s.CacheLookups > 0 {
		if _, err := fmt.Fprintf(w, "  cache-hits %d/%d (%.1f%%)\n",
			s.CacheHits, s.CacheLookups, 100*float64(s.CacheHits)/float64(s.CacheLookups)); err != nil {
			return err
		}
	}
	if s.JournalAppends > 0 || s.JournalDegrades > 0 || s.JournalRecovered > 0 ||
		s.JournalCompactions > 0 || s.JournalTruncated > 0 {
		if _, err := fmt.Fprintf(w, "  journal    appends=%d recovered=%d compactions=%d truncated=%dB degrades=%d\n",
			s.JournalAppends, s.JournalRecovered, s.JournalCompactions,
			s.JournalTruncated, s.JournalDegrades); err != nil {
			return err
		}
	}
	return nil
}

func fmtNanos(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
