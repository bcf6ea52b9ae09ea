package obs

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestHistogramQuantiles checks the interpolated estimates against
// distributions whose true quantiles are known.
func TestHistogramQuantiles(t *testing.T) {
	approx := func(t *testing.T, name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Fatalf("%s = %g, want %g ± %g", name, got, want, tol)
		}
	}

	// Uniform 1..30 observed once each over bounds 10/20/30: the true
	// p50 is 15, p90 is 27; interpolation is exact for uniform data.
	h := HistogramExport{Bounds: []int64{10, 20, 30}, Counts: []int64{10, 10, 10, 0}, Count: 30, Sum: 465, Max: 30}
	approx(t, "uniform p50", h.Quantile(0.50), 15, 1e-9)
	approx(t, "uniform p90", h.Quantile(0.90), 27, 1e-9)
	approx(t, "uniform p99", h.Quantile(0.99), 29.7, 1e-9)

	// All mass in one bucket: estimates stay inside that bucket.
	h = HistogramExport{Bounds: []int64{10, 20, 30}, Counts: []int64{0, 100, 0, 0}, Count: 100, Sum: 1500, Max: 20}
	p50 := h.Quantile(0.50)
	if p50 <= 10 || p50 > 20 {
		t.Fatalf("single-bucket p50 = %g, want in (10, 20]", p50)
	}
	approx(t, "single-bucket p50", p50, 15, 1e-9)

	// Overflow bucket interpolates toward the observed max, never past it.
	h = HistogramExport{Bounds: []int64{10}, Counts: []int64{0, 10}, Count: 10, Sum: 5000, Max: 900}
	p99 := h.Quantile(0.99)
	if p99 <= 10 || p99 > 900 {
		t.Fatalf("overflow p99 = %g, want in (10, 900]", p99)
	}
	approx(t, "overflow p50", h.Quantile(0.50), 10+(900-10)*0.5, 1e-9)

	// Empty histogram.
	h = HistogramExport{Bounds: []int64{10}, Counts: []int64{0, 0}}
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty p50 = %g", h.Quantile(0.5))
	}
}

// TestSnapshotQuantilesAndPrometheusLines: the registry snapshot fills
// p50/p90/p99 and the Prometheus writer emits them as gauge families.
func TestSnapshotQuantilesAndPrometheusLines(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("eeld.request_micros", []int64{10, 20, 30})
	for v := int64(1); v <= 30; v++ {
		h.Observe(v)
	}
	e := r.Snapshot()
	he := e.Histograms["eeld.request_micros"]
	if he.P50 != 15 || he.P90 != 27 {
		t.Fatalf("snapshot quantiles: p50=%g p90=%g", he.P50, he.P90)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE eeld_request_micros histogram\n",
		"# TYPE eeld_request_micros_p50 gauge\neeld_request_micros_p50 15\n",
		"# TYPE eeld_request_micros_p90 gauge\neeld_request_micros_p90 27\n",
		"# TYPE eeld_request_micros_p99 gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus export missing %q:\n%s", want, out)
		}
	}
}

// TestPrometheusLabeledHistograms: a labeled histogram must keep its
// label block, with le merged in — not have the labels mangled into the
// metric name.
func TestPrometheusLabeledHistograms(t *testing.T) {
	r := NewRegistry()
	r.Histogram(LabeledName("eeld.request_micros", "route", "/v1/schedule"), []int64{10, 20}).Observe(15)
	r.Histogram(LabeledName("eeld.request_micros", "route", "/v1/edit"), []int64{10, 20}).Observe(5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`eeld_request_micros_bucket{route="/v1/schedule",le="10"} 0` + "\n",
		`eeld_request_micros_bucket{route="/v1/schedule",le="20"} 1` + "\n",
		`eeld_request_micros_bucket{route="/v1/schedule",le="+Inf"} 1` + "\n",
		`eeld_request_micros_sum{route="/v1/schedule"} 15` + "\n",
		`eeld_request_micros_count{route="/v1/edit"} 1` + "\n",
		`eeld_request_micros_p50{route="/v1/edit"} `,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("labeled histogram export missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE eeld_request_micros histogram"); n != 1 {
		t.Fatalf("family TYPE line emitted %d times:\n%s", n, out)
	}
	if strings.Contains(out, "eeld_request_microsroute") {
		t.Fatalf("labels mangled into metric name:\n%s", out)
	}
}

// TestHistogramExemplars: ObserveTraced keeps the worst observation per
// bucket, exports it in JSON, and renders an OpenMetrics-style exemplar
// on the bucket line.
func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("eeld.request_micros", []int64{10, 100})
	h.ObserveTraced(4, "aaaa")
	h.ObserveTraced(9, "bbbb") // same bucket, worse: replaces aaaa
	h.ObserveTraced(7, "cccc") // same bucket, better: kept out
	h.ObserveTraced(50, "dddd")
	h.ObserveTraced(500, "eeee") // overflow bucket
	h.Observe(800)               // untraced: never an exemplar

	e := r.Snapshot()
	ex := e.Histograms["eeld.request_micros"].Exemplars
	if len(ex) != 3 {
		t.Fatalf("exemplars = %v", ex)
	}
	if ex["10"].TraceID != "bbbb" || ex["10"].Value != 9 {
		t.Fatalf("bucket 10 exemplar = %+v", ex["10"])
	}
	if ex["100"].TraceID != "dddd" || ex["+Inf"].TraceID != "eeee" {
		t.Fatalf("exemplars = %v", ex)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `eeld_request_micros_bucket{le="10"} 3 # {trace_id="bbbb"} 9`+"\n") {
		t.Fatalf("bucket exemplar missing:\n%s", out)
	}
	if !strings.Contains(out, `eeld_request_micros_bucket{le="+Inf"} 6 # {trace_id="eeee"} 500`+"\n") {
		t.Fatalf("overflow exemplar missing:\n%s", out)
	}
}

// TestLabelEscapingRoundTrip: values containing `=`, `,`, quotes,
// backslashes and newlines must round-trip through LabeledName →
// ParseLabeledName unchanged, per the Prometheus text format.
func TestLabelEscapingRoundTrip(t *testing.T) {
	cases := []struct {
		base  string
		pairs []string
	}{
		{"eeld.requests_total", []string{"code", "429"}},
		{"x", []string{"k", `a"b\c`}},
		{"x", []string{"k", "a=b"}},
		{"x", []string{"k", "a,b=c"}},
		{"x", []string{"k", "line1\nline2"}},
		{"x", []string{"k", `q="v",r="w"`}},
		{"x", []string{"a", "1", "b", `x\n,="`}},
		{"eeld.request_micros", []string{"route", "/v1/schedule"}},
	}
	for _, tc := range cases {
		name := LabeledName(tc.base, tc.pairs...)
		fam, pairs, err := ParseLabeledName(name)
		if err != nil {
			t.Fatalf("ParseLabeledName(%q): %v", name, err)
		}
		if fam != tc.base {
			t.Fatalf("family = %q, want %q", fam, tc.base)
		}
		if len(pairs) != len(tc.pairs) {
			t.Fatalf("pairs = %q, want %q", pairs, tc.pairs)
		}
		for i := range pairs {
			if pairs[i] != tc.pairs[i] {
				t.Fatalf("pair %d = %q, want %q (name %q)", i, pairs[i], tc.pairs[i], name)
			}
		}
	}
	if got := LabeledName("x", "k", "line1\nline2"); got != `x{k="line1\nline2"}` {
		t.Fatalf("newline escaping: %q", got)
	}
	for _, bad := range []string{`x{k}`, `x{k="v}`, `x{k="v"extra"}`, `x{k="v\q"}`, `x{`} {
		if _, _, err := ParseLabeledName(bad); err == nil {
			t.Fatalf("ParseLabeledName(%q) accepted malformed input", bad)
		}
	}
	if fam, pairs, err := ParseLabeledName("plain.name"); err != nil || fam != "plain.name" || pairs != nil {
		t.Fatalf("unlabeled parse: %q %v %v", fam, pairs, err)
	}
}

// ParseLabeledName is the inverse of LabeledName: it splits an
// instrument name into its family and its label pairs (key, value, key,
// value...) with escaping undone. Malformed label blocks return an
// error so callers don't silently mis-split values containing `=`, `,`
// or quotes.
func ParseLabeledName(name string) (family string, pairs []string, err error) {
	family, labels := SplitLabels(name)
	if labels == "" {
		return family, nil, nil
	}
	if len(labels) < 2 || labels[0] != '{' || labels[len(labels)-1] != '}' {
		return "", nil, fmt.Errorf("obs: malformed label block %q", labels)
	}
	s := labels[1 : len(labels)-1]
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return "", nil, fmt.Errorf("obs: malformed label pair in %q", labels)
		}
		key := s[:eq]
		rest := s[eq+2:] // inside the opening quote
		var val strings.Builder
		i := 0
		for {
			if i >= len(rest) {
				return "", nil, fmt.Errorf("obs: unterminated label value in %q", labels)
			}
			c := rest[i]
			if c == '"' {
				break
			}
			if c == '\\' {
				if i+1 >= len(rest) {
					return "", nil, fmt.Errorf("obs: dangling escape in %q", labels)
				}
				switch rest[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return "", nil, fmt.Errorf("obs: bad escape \\%c in %q", rest[i+1], labels)
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		pairs = append(pairs, key, val.String())
		s = rest[i+1:]
		if len(s) > 0 {
			if s[0] != ',' {
				return "", nil, fmt.Errorf("obs: expected ',' between labels in %q", labels)
			}
			s = s[1:]
		}
	}
	return family, pairs, nil
}
