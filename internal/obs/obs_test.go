package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRegistryIsFullyDisabled drives every registry and instrument
// method through a nil receiver — the disabled state the scheduler's hot
// path relies on being free and panic-proof.
func TestNilRegistryIsFullyDisabled(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil {
		t.Fatalf("nil registry handed out a non-nil counter")
	}
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Fatalf("nil counter has a value")
	}
	g := r.Gauge("x")
	g.Set(9)
	if g != nil || g.Value() != 0 {
		t.Fatalf("nil gauge misbehaves")
	}
	h := r.Histogram("x", ExpBuckets(1, 4))
	h.Observe(3)
	if h != nil || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil histogram misbehaves")
	}
	if b, cnt := h.Snapshot(); b != nil || cnt != nil {
		t.Fatalf("nil histogram snapshot non-empty")
	}
	sp := r.StartSpan("phase")
	sp.End()
	if sp != nil || r.Spans() != nil {
		t.Fatalf("nil span misbehaves")
	}
	r.SetManifest("k", "v")
	r.PutExtra("k", 1)
	if r.Manifest() != nil || r.Counters() != nil || r.Gauges() != nil {
		t.Fatalf("nil registry snapshots non-nil")
	}
	e := r.Snapshot()
	if e == nil || len(e.Counters) != 0 {
		t.Fatalf("nil registry snapshot: %+v", e)
	}
	var j *JSONL
	if err := j.Write(1); err != nil {
		t.Fatalf("nil JSONL write: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("nil JSONL close: %v", err)
	}
}

func TestCounterGaugeRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("sched.blocks")
	b := r.Counter("sched.blocks")
	if a != b {
		t.Fatalf("same name registered twice")
	}
	a.Inc()
	b.Add(2)
	if got := r.Counters()["sched.blocks"]; got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	g := r.Gauge("pool.size")
	g.Set(4)
	g.Set(8)
	if got := r.Gauges()["pool.size"]; got != 8 {
		t.Fatalf("gauge = %d, want last value 8", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stalls", []int64{1, 2, 4})
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	bounds, counts := h.Snapshot()
	if want := []int64{1, 2, 4}; !int64sEqual(bounds, want) {
		t.Fatalf("bounds = %v, want %v", bounds, want)
	}
	// 0,1 -> le=1; 2 -> le=2; 3,4 -> le=4; 5,100 -> overflow.
	if want := []int64{2, 1, 2, 2}; !int64sEqual(counts, want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
	if h.Count() != 7 || h.Sum() != 115 {
		t.Fatalf("count=%d sum=%d, want 7/115", h.Count(), h.Sum())
	}
	if r.Snapshot().Histograms["stalls"].Max != 100 {
		t.Fatalf("max = %d, want 100", r.Snapshot().Histograms["stalls"].Max)
	}
	// Re-registration with different bounds keeps the original instrument.
	if h2 := r.Histogram("stalls", []int64{9}); h2 != h {
		t.Fatalf("re-registration replaced the histogram")
	}
}

func TestExpBuckets(t *testing.T) {
	if got, want := ExpBuckets(4, 3), []int64{4, 8, 16}; !int64sEqual(got, want) {
		t.Fatalf("ExpBuckets = %v, want %v", got, want)
	}
}

func TestSpansNestAndRecord(t *testing.T) {
	r := NewRegistry()
	outer := r.StartSpan("outer")
	inner := r.StartSpan("inner")
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Completion order: inner first.
	if spans[0].Name != "inner" || spans[1].Name != "outer" {
		t.Fatalf("span order: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].WallNs <= 0 {
		t.Fatalf("inner wall time %d, want > 0", spans[0].WallNs)
	}
	if spans[1].WallNs < spans[0].WallNs {
		t.Fatalf("outer wall %d shorter than inner %d", spans[1].WallNs, spans[0].WallNs)
	}
}

// TestConcurrentInstruments hammers one counter and one histogram from
// several goroutines; run under -race this is the registry's thread-
// safety test, and the totals check that no update was lost.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits")
			h := r.Histogram("lat", ExpBuckets(1, 8))
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(i % 7))
				r.Gauge("last").Set(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counters()["hits"]; got != workers*per {
		t.Fatalf("lost counter updates: %d, want %d", got, workers*per)
	}
	if got := r.Histogram("lat", nil).Count(); got != workers*per {
		t.Fatalf("lost observations: %d, want %d", got, workers*per)
	}
}

func TestJSONExportShape(t *testing.T) {
	r := NewRegistry()
	r.SetManifest("go", "go-test")
	r.SetManifest("platform", "test/arch")
	r.Counter("sched.blocks").Add(5)
	r.Gauge("cache.len").Set(2)
	r.Histogram("row_millis", []int64{10, 20}).Observe(15)
	r.StartSpan("phase").End()
	r.PutExtra("slowest_rows", []map[string]any{{"name": "130.li", "millis": 1.5}})

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var e Export
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if e.Manifest["go"] != "go-test" || e.Counters["sched.blocks"] != 5 ||
		e.Gauges["cache.len"] != 2 {
		t.Fatalf("export lost data: %+v", e)
	}
	h, ok := e.Histograms["row_millis"]
	if !ok || h.Count != 1 || h.Sum != 15 || h.Max != 15 || len(h.Counts) != len(h.Bounds)+1 {
		t.Fatalf("histogram export wrong: %+v", h)
	}
	if len(e.Spans) != 1 || e.Spans[0].Name != "phase" {
		t.Fatalf("spans export wrong: %+v", e.Spans)
	}
	if _, ok := e.Extras["slowest_rows"]; !ok {
		t.Fatalf("extras export lost slowest_rows")
	}
}

func TestPrometheusExport(t *testing.T) {
	r := NewRegistry()
	r.SetManifest("machine", "ultrasparc")
	r.Counter("sched.stall_cycles.raw").Add(3)
	r.Gauge("sched.cache.len").Set(7)
	h := r.Histogram("bench.row-millis", []int64{1, 2})
	h.Observe(1)
	h.Observe(2)
	h.Observe(9)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"eel_run_info{machine=\"ultrasparc\"} 1",
		"# TYPE sched_stall_cycles_raw counter",
		"sched_stall_cycles_raw 3",
		"sched_cache_len 7",
		"bench_row_millis_bucket{le=\"1\"} 1",
		"bench_row_millis_bucket{le=\"2\"} 2",
		"bench_row_millis_bucket{le=\"+Inf\"} 3",
		"bench_row_millis_sum 12",
		"bench_row_millis_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"sched.stall_cycles.raw": "sched_stall_cycles_raw",
		"bench.row-millis":       "bench_row_millis",
		"130.li":                 "_130_li",
		"a/b c!":                 "a_bc",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	type rec struct {
		N int    `json:"n"`
		S string `json:"s"`
	}
	if err := j.Write(rec{1, "<a>"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Write(rec{2, "b"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var r rec
	if err := json.Unmarshal([]byte(lines[0]), &r); err != nil || r.N != 1 || r.S != "<a>" {
		t.Fatalf("line 1 round trip: %+v %v", r, err)
	}
}

func TestStampRunManifest(t *testing.T) {
	r := NewRegistry()
	r.StampRunManifest()
	m := r.Manifest()
	if m["go"] == "" || m["platform"] == "" {
		t.Fatalf("manifest missing environment facts: %v", m)
	}
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
