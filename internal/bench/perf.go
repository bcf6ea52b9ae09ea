package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// This file is the perf-trajectory plumbing: a parser for `go test
// -bench` text output, a JSON container for committed baselines
// (BENCH_sched.json at the repo root), and the comparison the CI
// bench-smoke job prints advisorily via cmd/benchdiff.

// PerfResult is one benchmark line.
type PerfResult struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// PerfFile is a committed benchmark baseline. Series keeps named runs
// side by side — e.g. a PR's predecessor numbers under one key and its
// own under another — so speedup claims in the docs stay auditable.
// Manifests carries a run-manifest block per series (go version,
// platform, git revision, CPU, operator-supplied facts such as a note),
// stamped by `benchdiff -update` and preserved verbatim for every other
// series, so each recorded series keeps saying where it came from.
type PerfFile struct {
	Series    map[string][]PerfResult      `json:"series"`
	Manifests map[string]map[string]string `json:"manifests,omitempty"`
}

// SetSeriesManifest records a series' manifest block, replacing any
// previous block for that series only.
func (f *PerfFile) SetSeriesManifest(series string, manifest map[string]string) {
	if len(manifest) == 0 {
		return
	}
	if f.Manifests == nil {
		f.Manifests = make(map[string]map[string]string)
	}
	f.Manifests[series] = manifest
}

// ParseGoBenchManifest is ParseGoBench plus the run-manifest comment
// lines load generators emit alongside their bench lines:
//
//	# manifest: key=value
//
// Go's bench harness never prints such lines, so they pass through a
// pipeline untouched; tools that produce bench-format output (eelload)
// use them to record facts about the measured system — most importantly
// its core count, which gates whether a recorded series is comparable.
func ParseGoBenchManifest(r io.Reader) (results []PerfResult, cpu string, manifest map[string]string, err error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# manifest:"); ok {
			if k, v, ok := strings.Cut(strings.TrimSpace(rest), "="); ok && k != "" {
				if manifest == nil {
					manifest = make(map[string]string)
				}
				manifest[strings.TrimSpace(k)] = strings.TrimSpace(v)
			}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		res := PerfResult{Name: normalizeBenchName(f[0])}
		res.Iters, err = strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, "", nil, fmt.Errorf("bench: bad iteration count in %q: %w", line, err)
		}
		// The remainder is value/unit pairs.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, "", nil, fmt.Errorf("bench: bad value in %q: %w", line, err)
			}
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = int64(v)
			case "allocs/op":
				res.AllocsPerOp = int64(v)
			}
		}
		results = append(results, res)
	}
	return results, cpu, manifest, sc.Err()
}

// coreCountKeys are the manifest keys that record how many cores the
// measured system had. Parallel benchmarks scale with them, so a hard
// regression gate across differing values compares machines, not code.
var coreCountKeys = []string{"numcpu", "gomaxprocs", "eeld_numcpu", "eeld_workers"}

// CoreCountMismatch reports the first core-count manifest key recorded
// on both sides with differing values. A key missing from either side
// is not a mismatch — old baselines without core-count stamps keep
// whatever gate the operator asked for.
func CoreCountMismatch(base, cur map[string]string) (key, baseVal, curVal string, mismatch bool) {
	for _, k := range coreCountKeys {
		bv, okb := base[k]
		cv, okc := cur[k]
		if okb && okc && bv != cv {
			return k, bv, cv, true
		}
	}
	return "", "", "", false
}

// normalizeBenchName strips the trailing -GOMAXPROCS that `go test`
// appends, so names compare across runners with different core counts.
func normalizeBenchName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	if i+1 == len(name) {
		return name
	}
	return name[:i]
}

// ReadPerfFile loads a committed baseline.
func ReadPerfFile(path string) (*PerfFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f PerfFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &f, nil
}

// Write renders the file as indented JSON with a trailing newline, the
// format BENCH_sched.json is committed in.
func (f *PerfFile) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Delta is one benchmark's old-versus-new comparison.
type Delta struct {
	Name     string
	Old, New float64 // ns/op
	// Pct is the signed change in ns/op: negative is faster.
	Pct float64
}

// Compare matches current results against a baseline series by name and
// returns the per-benchmark ns/op deltas, baseline order preserved.
// Results with no baseline counterpart are omitted — CI runners add and
// remove benchmarks routinely, and the comparison is advisory.
func Compare(baseline, current []PerfResult) []Delta {
	byName := make(map[string]PerfResult, len(current))
	for _, r := range current {
		byName[r.Name] = r
	}
	var out []Delta
	for _, b := range baseline {
		c, ok := byName[b.Name]
		if !ok || b.NsPerOp == 0 {
			continue
		}
		out = append(out, Delta{
			Name: b.Name,
			Old:  b.NsPerOp,
			New:  c.NsPerOp,
			Pct:  100 * (c.NsPerOp - b.NsPerOp) / b.NsPerOp,
		})
	}
	return out
}

// FormatDeltas renders a Compare result as an aligned advisory table.
func FormatDeltas(deltas []Delta) string {
	if len(deltas) == 0 {
		return "no overlapping benchmarks\n"
	}
	width := 0
	for _, d := range deltas {
		if len(d.Name) > width {
			width = len(d.Name)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-*s %14s %14s %8s\n", width, "benchmark", "old ns/op", "new ns/op", "delta")
	for _, d := range deltas {
		fmt.Fprintf(&sb, "%-*s %14.0f %14.0f %+7.1f%%\n", width, d.Name, d.Old, d.New, d.Pct)
	}
	return sb.String()
}

// SortResults orders results by name for stable committed files.
func SortResults(rs []PerfResult) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
}

// MedianByName collapses repeated benchmark lines (a -count N run) to
// one result per name, keeping the line with the median ns/op. Medians
// resist the one-off outliers shared CI runners produce. The result is
// name-sorted.
func MedianByName(rs []PerfResult) []PerfResult {
	groups := make(map[string][]PerfResult)
	for _, r := range rs {
		groups[r.Name] = append(groups[r.Name], r)
	}
	out := make([]PerfResult, 0, len(groups))
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i].NsPerOp < g[j].NsPerOp })
		out = append(out, g[(len(g)-1)/2])
	}
	SortResults(out)
	return out
}
