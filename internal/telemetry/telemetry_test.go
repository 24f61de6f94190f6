package telemetry

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(KindDecision, 1, 2, 3, 4) // must not panic
	if New(nil, nil) != nil {
		t.Fatal("New(nil, nil) must return the disabled (nil) tracer")
	}
}

// TestEmitCountsAndTags: concurrent emitters sharing one tracer bump the
// metrics once per event and deliver every event to the sink with its
// level, depth and payload intact.
func TestEmitCountsAndTags(t *testing.T) {
	m := NewMetrics()
	var sink memSink
	tr := New(&sink, m)
	const emitters = 4
	var wg sync.WaitGroup
	for w := 0; w < emitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr.Emit(KindDecision, 3, 2, int64(w), 0)
			tr.Emit(KindLearn, 5, 3, int64(w), 1)
		}(w)
	}
	wg.Wait()

	if got := m.Count(KindDecision); got != emitters {
		t.Fatalf("decision count = %d, want %d", got, emitters)
	}
	if got := m.Count(KindLearn); got != emitters {
		t.Fatalf("learn count = %d, want %d", got, emitters)
	}
	if len(sink.events) != 2*emitters {
		t.Fatalf("sink got %d events, want %d", len(sink.events), 2*emitters)
	}
	seen := map[Kind]map[int64]bool{KindDecision: {}, KindLearn: {}}
	for _, e := range sink.events {
		switch {
		case e.Kind == KindDecision && e.Level == 3 && e.Depth == 2 && e.B == 0:
		case e.Kind == KindLearn && e.Level == 5 && e.Depth == 3 && e.B == 1:
		default:
			t.Fatalf("event = %+v", e)
		}
		seen[e.Kind][e.A] = true
	}
	for k, as := range seen {
		if len(as) != emitters {
			t.Fatalf("%v events carry payloads %v, want one per emitter", k, as)
		}
	}
}

type memSink struct {
	mu     sync.Mutex
	events []Event
}

func (s *memSink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func TestKindStringsRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Errorf("kind %d round-trip failed: %q -> %v ok=%v", k, k.String(), got, ok)
		}
	}
	if _, ok := KindFromString("bogus"); ok {
		t.Error("bogus kind must not resolve")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := New(sink, nil)
	want := []Event{}
	for i, k := range Kinds() {
		tr.Emit(k, i, i+1, int64(i*10), int64(i))
		want = append(want, Event{
			Kind: k, Level: int32(i), Depth: int32(i + 1), A: int64(i * 10), B: int64(i),
		})
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Event
	if err := ReadEvents(bytes.NewReader(buf.Bytes()), func(e Event) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d events, want %d", len(got), len(want))
	}
	for i := range got {
		g := got[i]
		g.T = 0 // timestamps are not asserted
		if g != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, g, want[i])
		}
	}
}

// TestJSONLConcurrentEmit: emitters sharing one tracer and one JSONL sink
// must produce whole, decodable lines, and every emitted event must replay.
func TestJSONLConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := New(sink, NewMetrics())
	const emitters, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < emitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Emit(KindDecision, i, 1, int64(w*per+i), 0)
			}
		}(w)
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool, emitters*per)
	if err := ReadEvents(bytes.NewReader(buf.Bytes()), func(e Event) error {
		if e.Kind != KindDecision || seen[e.A] {
			t.Fatalf("unexpected or duplicated event %+v", e)
		}
		seen[e.A] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != emitters*per {
		t.Fatalf("replayed %d distinct events, want %d", len(seen), emitters*per)
	}
}

func TestSummarizeRejectsCorruptTrace(t *testing.T) {
	if _, err := Summarize(strings.NewReader("{\"t\":1,\"ev\":\"nope\",\"w\":0,\"g\":0,\"lvl\":0,\"d\":0,\"a\":0,\"b\":0}\n")); err == nil {
		t.Fatal("unknown kind must error")
	}
	if _, err := Summarize(strings.NewReader("not json\n")); err == nil {
		t.Fatal("bad json must error")
	}
}

func TestSummaryWriteText(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := New(sink, nil)
	tr.Emit(KindDecision, 1, 2, 5, 0)
	tr.Emit(KindDecision, 2, 2, 6, 0)
	tr.Emit(KindConflict, 2, 1, 0, 3)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := sum.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"events=3", "decision", "conflict", "decisions@depth2"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary text missing %q:\n%s", want, text)
		}
	}
}

func TestMetricsSnapshotAndString(t *testing.T) {
	m := NewMetrics()
	tr := New(discardSink{}, m)
	tr.Emit(KindConflict, 0, 0, 0, 0)
	tr.Emit(KindConflict, 0, 0, 0, 0)
	snap := m.Snapshot()
	if snap["conflict"] != 2 || snap["decision"] != 0 {
		t.Fatalf("snapshot = %v", snap)
	}
	if s := m.String(); s != "conflict=2" {
		t.Fatalf("String() = %q", s)
	}
}

type discardSink struct{}

func (discardSink) Emit(Event) {}

func TestServeDebug(t *testing.T) {
	m := NewMetrics()
	PublishOnce(m, "qbf.test.events")
	m.inc(KindStop)
	addr, shutdown, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "qbf.test.events") {
		t.Fatalf("vars endpoint: status=%d body=%s", resp.StatusCode, body)
	}
	resp2, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("pprof endpoint status=%d", resp2.StatusCode)
	}
	// PublishOnce must tolerate a second registration.
	PublishOnce(m, "qbf.test.events")
}

func TestStartProfiles(t *testing.T) {
	prefix := t.TempDir() + "/prof"
	stop, err := StartProfiles(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".cpu.pprof", ".heap.pprof"} {
		fi, err := os.Stat(prefix + suffix)
		if err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", suffix, err)
		}
	}
}

func BenchmarkEmitDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(KindDecision, 3, 2, int64(i), 0)
	}
}

func BenchmarkEmitJSONL(b *testing.B) {
	sink := NewJSONLSink(io.Discard)
	tr := New(sink, NewMetrics())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(KindDecision, 3, 2, int64(i), 0)
	}
}
