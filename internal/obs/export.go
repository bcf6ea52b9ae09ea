package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Export is the JSON shape of a registry snapshot — the document
// cmd/tables -metrics and cmd/eelprof -metrics write, validated in CI
// against schemas/metrics.schema.json by cmd/metricscheck.
type Export struct {
	Manifest   map[string]string          `json:"manifest"`
	Counters   map[string]int64           `json:"counters"`
	Gauges     map[string]int64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramExport `json:"histograms,omitempty"`
	Spans      []SpanRecord               `json:"spans,omitempty"`
	Extras     map[string]json.RawMessage `json:"extras,omitempty"`
}

// HistogramExport is one histogram's JSON shape. P50/P90/P99 are
// estimated by linear interpolation within buckets (see Quantile);
// Exemplars maps a bucket's upper bound (decimal, "+Inf" for overflow)
// to the worst traced observation that landed there.
type HistogramExport struct {
	Bounds    []int64                   `json:"bounds"` // bucket upper bounds; counts has one extra overflow bucket
	Counts    []int64                   `json:"counts"`
	Count     int64                     `json:"count"`
	Sum       int64                     `json:"sum"`
	Max       int64                     `json:"max"`
	P50       float64                   `json:"p50"`
	P90       float64                   `json:"p90"`
	P99       float64                   `json:"p99"`
	Exemplars map[string]ExemplarExport `json:"exemplars,omitempty"`
}

// ExemplarExport is one bucket's worst traced observation.
type ExemplarExport struct {
	TraceID string `json:"trace_id"`
	Value   int64  `json:"value"`
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation within the bucket holding the q*Count-th observation.
// The first bucket interpolates up from zero; the overflow bucket
// interpolates toward the observed maximum. With no observations it
// returns 0.
func (h HistogramExport) Quantile(q float64) float64 {
	if h.Count <= 0 || len(h.Counts) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	cum, lo := 0.0, 0.0
	for i, b := range h.Bounds {
		c := float64(h.Counts[i])
		if c > 0 && cum+c >= rank {
			return lo + (float64(b)-lo)*(rank-cum)/c
		}
		cum += c
		lo = float64(b)
	}
	c := float64(h.Counts[len(h.Counts)-1])
	if c <= 0 {
		return lo
	}
	hi := float64(h.Max)
	if hi < lo {
		hi = lo
	}
	f := (rank - cum) / c
	if f > 1 {
		f = 1
	}
	return lo + (hi-lo)*f
}

// Snapshot assembles the full export document.
func (r *Registry) Snapshot() *Export {
	e := &Export{
		Manifest: map[string]string{},
		Counters: map[string]int64{},
	}
	if r == nil {
		return e
	}
	e.Manifest = r.Manifest()
	e.Counters = r.Counters()
	if g := r.Gauges(); len(g) > 0 {
		e.Gauges = g
	}
	r.mu.Lock()
	if len(r.hists) > 0 {
		e.Histograms = make(map[string]HistogramExport, len(r.hists))
		for name, h := range r.hists {
			bounds, counts := h.Snapshot()
			he := HistogramExport{
				Bounds: bounds,
				Counts: counts,
				Count:  h.Count(),
				Sum:    h.Sum(),
				Max:    h.max.Load(),
			}
			he.P50 = he.Quantile(0.50)
			he.P90 = he.Quantile(0.90)
			he.P99 = he.Quantile(0.99)
			for i := range h.exemplars {
				ex := h.exemplars[i].Load()
				if ex == nil {
					continue
				}
				if he.Exemplars == nil {
					he.Exemplars = make(map[string]ExemplarExport)
				}
				le := "+Inf"
				if i < len(bounds) {
					le = strconv.FormatInt(bounds[i], 10)
				}
				he.Exemplars[le] = ExemplarExport{TraceID: ex.id, Value: ex.val}
			}
			e.Histograms[name] = he
		}
	}
	extras := make(map[string]any, len(r.extras))
	for k, v := range r.extras {
		extras[k] = v
	}
	r.mu.Unlock()
	e.Spans = r.Spans()
	if len(extras) > 0 {
		e.Extras = make(map[string]json.RawMessage, len(extras))
		for k, v := range extras {
			raw, err := json.Marshal(v)
			if err != nil {
				raw, _ = json.Marshal(fmt.Sprintf("unmarshalable: %v", err))
			}
			e.Extras[k] = raw
		}
	}
	return e
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format. Dotted instrument names become underscore-separated metric
// names; the manifest is exported as an info-style gauge with one label
// per entry. Spans and extras have no Prometheus shape and are skipped.
func (r *Registry) WritePrometheus(w io.Writer) error {
	e := r.Snapshot()
	var b strings.Builder
	if len(e.Manifest) > 0 {
		b.WriteString("# TYPE eel_run_info gauge\n")
		b.WriteString("eel_run_info{")
		for i, k := range sortedKeys(e.Manifest) {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%q", promName(k), e.Manifest[k])
		}
		b.WriteString("} 1\n")
	}
	writeFamilies(&b, "counter", e.Counters)
	writeFamilies(&b, "gauge", e.Gauges)
	writeHistograms(&b, e.Histograms)
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistograms renders histograms grouped by family, merging the
// bucket's le label into any label block the instrument already carries
// (so eeld.request_micros{route="/v1/schedule"} becomes
// eeld_request_micros_bucket{route="/v1/schedule",le="..."}). Bucket
// lines carry OpenMetrics-style exemplars linking to trace IDs, and
// each family is followed by _p50/_p90/_p99 gauge families with the
// interpolated quantile estimates.
func writeHistograms(b *strings.Builder, hists map[string]HistogramExport) {
	byFamily := make(map[string][]string)
	for name := range hists {
		fam, _ := SplitLabels(name)
		byFamily[promName(fam)] = append(byFamily[promName(fam)], name)
	}
	for _, fam := range sortedKeys(byFamily) {
		names := byFamily[fam]
		sort.Strings(names)
		fmt.Fprintf(b, "# TYPE %s histogram\n", fam)
		for _, name := range names {
			h := hists[name]
			_, labels := SplitLabels(name)
			withLe := func(le string) string {
				if labels == "" {
					return `{le="` + le + `"}`
				}
				return labels[:len(labels)-1] + `,le="` + le + `"}`
			}
			writeBucket := func(le string, cum int64) {
				fmt.Fprintf(b, "%s_bucket%s %d", fam, withLe(le), cum)
				if ex, ok := h.Exemplars[le]; ok {
					fmt.Fprintf(b, " # {trace_id=\"%s\"} %d", escapeLabelValue(ex.TraceID), ex.Value)
				}
				b.WriteByte('\n')
			}
			cum := int64(0)
			for i, bound := range h.Bounds {
				cum += h.Counts[i]
				writeBucket(strconv.FormatInt(bound, 10), cum)
			}
			writeBucket("+Inf", h.Count)
			fmt.Fprintf(b, "%s_sum%s %d\n%s_count%s %d\n", fam, labels, h.Sum, fam, labels, h.Count)
		}
		for _, q := range []struct {
			suffix string
			v      func(HistogramExport) float64
		}{
			{"_p50", func(h HistogramExport) float64 { return h.P50 }},
			{"_p90", func(h HistogramExport) float64 { return h.P90 }},
			{"_p99", func(h HistogramExport) float64 { return h.P99 }},
		} {
			fmt.Fprintf(b, "# TYPE %s%s gauge\n", fam, q.suffix)
			for _, name := range names {
				_, labels := SplitLabels(name)
				fmt.Fprintf(b, "%s%s%s %g\n", fam, q.suffix, labels, q.v(hists[name]))
			}
		}
	}
}

// WriteFile writes the snapshot to path, picking the format from the
// extension: Prometheus text for .prom, indented JSON otherwise. This is
// what the CLIs' -metrics flags call.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".prom") {
		err = r.WritePrometheus(f)
	} else {
		err = r.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFamilies renders counters or gauges grouped by metric family, so
// labeled instruments (see LabeledName) share one # TYPE line: the
// family is the name up to the label block, and every series of a
// family is emitted under it in sorted order.
func writeFamilies(b *strings.Builder, typ string, series map[string]int64) {
	byFamily := make(map[string][]string)
	for name := range series {
		fam, _ := SplitLabels(name)
		byFamily[promName(fam)] = append(byFamily[promName(fam)], name)
	}
	for _, fam := range sortedKeys(byFamily) {
		fmt.Fprintf(b, "# TYPE %s %s\n", fam, typ)
		names := byFamily[fam]
		sort.Strings(names)
		for _, name := range names {
			_, labels := SplitLabels(name)
			fmt.Fprintf(b, "%s%s %d\n", fam, labels, series[name])
		}
	}
}

// LabeledName builds an instrument name carrying a Prometheus-style
// label block: LabeledName("eeld.requests_total", "code", "429") is
// `eeld.requests_total{code="429"}`. The JSON exporter keeps the name
// verbatim; the Prometheus exporter splits it back into one series per
// label set under a single family. Pairs are key, value, key, value...;
// label values are escaped per the Prometheus text format (backslash,
// quote, newline), so values containing `=`, `,` or quotes round-trip
// through ParseLabeledName.
func LabeledName(base string, pairs ...string) string {
	if len(pairs) == 0 || len(pairs)%2 != 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promName(pairs[i]))
		b.WriteString("=\"")
		b.WriteString(escapeLabelValue(pairs[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double quote, and line feed.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// SplitLabels splits an instrument name into its family and its label
// block ("" when unlabeled, `{k="v"}` verbatim otherwise).
func SplitLabels(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// promName rewrites a dotted instrument name into a Prometheus metric
// name: dots and dashes become underscores, anything else non-alphanumeric
// is dropped.
func promName(name string) string {
	var b strings.Builder
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		case c == '.' || c == '-' || c == '/':
			b.WriteByte('_')
		}
	}
	return b.String()
}
