package bench

import (
	"bytes"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: eel/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkScheduleBlocks/oracle=fast/workers=1         	      51	  23681594 ns/op	 3256653 B/op	   57158 allocs/op
BenchmarkScheduleBlocks/oracle=fast/workers=2-8       	      52	  23035667 ns/op	 3257617 B/op	   57170 allocs/op
BenchmarkScheduleBlocksCached                         	    1998	    611570 ns/op	  420448 B/op	    2001 allocs/op
PASS
ok  	eel/internal/core	11.188s
`

func TestParseGoBench(t *testing.T) {
	results, cpu, err := ParseGoBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if want := "Intel(R) Xeon(R) Processor @ 2.10GHz"; cpu != want {
		t.Errorf("cpu = %q, want %q", cpu, want)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(results), results)
	}
	r := results[0]
	if r.Name != "BenchmarkScheduleBlocks/oracle=fast/workers=1" ||
		r.Iters != 51 || r.NsPerOp != 23681594 || r.BytesPerOp != 3256653 || r.AllocsPerOp != 57158 {
		t.Errorf("first result mismatched: %+v", r)
	}
	// The -GOMAXPROCS suffix must be stripped; the workers=2 subtest name
	// itself must survive.
	if got, want := results[1].Name, "BenchmarkScheduleBlocks/oracle=fast/workers=2"; got != want {
		t.Errorf("normalized name = %q, want %q", got, want)
	}
}

func TestNormalizeBenchName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":             "BenchmarkFoo",
		"BenchmarkFoo":               "BenchmarkFoo",
		"BenchmarkFoo/workers=2-16":  "BenchmarkFoo/workers=2",
		"BenchmarkFoo/oracle=fast-x": "BenchmarkFoo/oracle=fast-x",
		"BenchmarkFoo-":              "BenchmarkFoo-",
	}
	for in, want := range cases {
		if got := normalizeBenchName(in); got != want {
			t.Errorf("normalizeBenchName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPerfFileRoundTrip(t *testing.T) {
	results, cpu, err := ParseGoBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	f := &PerfFile{
		Series:    map[string][]PerfResult{"current": results},
		Manifests: map[string]map[string]string{"current": {"cpu": cpu, "note": "test"}},
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/perf.json"
	if err := os.WriteFile(dir, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := ReadPerfFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m := g.Manifests["current"]; m["note"] != "test" || m["cpu"] != cpu || len(g.Series["current"]) != len(results) {
		t.Fatalf("round trip mismatch: %+v", g)
	}
	for i, r := range g.Series["current"] {
		if r != results[i] {
			t.Errorf("result %d: %+v != %+v", i, r, results[i])
		}
	}
}

func TestMedianByName(t *testing.T) {
	rs := []PerfResult{
		{Name: "B", NsPerOp: 7},
		{Name: "A", NsPerOp: 30},
		{Name: "A", NsPerOp: 10},
		{Name: "A", NsPerOp: 20},
	}
	got := MedianByName(rs)
	if len(got) != 2 || got[0].Name != "A" || got[0].NsPerOp != 20 || got[1].Name != "B" || got[1].NsPerOp != 7 {
		t.Fatalf("MedianByName = %+v", got)
	}
	// Even group size keeps the lower middle: deterministic, slightly
	// optimistic, fine for an advisory trajectory.
	if got := MedianByName([]PerfResult{{Name: "C", NsPerOp: 1}, {Name: "C", NsPerOp: 2}}); got[0].NsPerOp != 1 {
		t.Fatalf("even-sized median = %+v", got)
	}
}

func TestCompare(t *testing.T) {
	baseline := []PerfResult{
		{Name: "A", NsPerOp: 1000},
		{Name: "B", NsPerOp: 2000},
		{Name: "Gone", NsPerOp: 10},
	}
	current := []PerfResult{
		{Name: "B", NsPerOp: 1000},
		{Name: "A", NsPerOp: 1500},
		{Name: "New", NsPerOp: 5},
	}
	deltas := Compare(baseline, current)
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2: %+v", len(deltas), deltas)
	}
	if deltas[0].Name != "A" || math.Abs(deltas[0].Pct-50) > 1e-9 {
		t.Errorf("delta A wrong: %+v", deltas[0])
	}
	if deltas[1].Name != "B" || math.Abs(deltas[1].Pct+50) > 1e-9 {
		t.Errorf("delta B wrong: %+v", deltas[1])
	}
	out := FormatDeltas(deltas)
	if !strings.Contains(out, "+50.0%") || !strings.Contains(out, "-50.0%") {
		t.Errorf("formatted table missing deltas:\n%s", out)
	}
}

func TestParseGoBenchManifest(t *testing.T) {
	in := `# manifest: eeld_numcpu=8
# manifest: eeld_workers = 4
# manifest: malformed-no-equals
cpu: Fake CPU
BenchmarkLoad 10 100 ns/op
`
	results, cpu, manifest, err := ParseGoBenchManifest(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if cpu != "Fake CPU" || len(results) != 1 {
		t.Fatalf("cpu=%q results=%+v", cpu, results)
	}
	want := map[string]string{"eeld_numcpu": "8", "eeld_workers": "4"}
	if len(manifest) != len(want) {
		t.Fatalf("manifest = %v, want %v", manifest, want)
	}
	for k, v := range want {
		if manifest[k] != v {
			t.Errorf("manifest[%q] = %q, want %q", k, manifest[k], v)
		}
	}
	// Plain bench output yields a nil manifest.
	_, _, manifest, err = ParseGoBenchManifest(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if manifest != nil {
		t.Errorf("manifest on plain input = %v, want nil", manifest)
	}
}

func TestCoreCountMismatch(t *testing.T) {
	base := map[string]string{"numcpu": "8", "go": "go1.22"}
	cur := map[string]string{"numcpu": "1", "go": "go1.23"}
	key, bv, cv, mismatch := CoreCountMismatch(base, cur)
	if !mismatch || key != "numcpu" || bv != "8" || cv != "1" {
		t.Errorf("got (%q,%q,%q,%v), want numcpu 8 vs 1", key, bv, cv, mismatch)
	}
	// Equal values, or a key missing from either side, is not a mismatch.
	for _, cur := range []map[string]string{
		{"numcpu": "8"},
		{"go": "go1.23"},
		nil,
	} {
		if _, _, _, m := CoreCountMismatch(base, cur); m {
			t.Errorf("CoreCountMismatch(%v, %v) = true, want false", base, cur)
		}
	}
	// Daemon-side core counts gate eeld-load series the same way.
	if _, _, _, m := CoreCountMismatch(
		map[string]string{"eeld_numcpu": "8"},
		map[string]string{"eeld_numcpu": "2"}); !m {
		t.Error("eeld_numcpu mismatch not detected")
	}
}

// ParseGoBench parses `go test -bench` text output. The returned cpu is
// the runner's self-description (the "cpu:" header line), for flagging
// cross-machine comparisons. Names are normalized by stripping the
// -GOMAXPROCS suffix Go appends on multi-core runners.
func ParseGoBench(r io.Reader) (results []PerfResult, cpu string, err error) {
	results, cpu, _, err = ParseGoBenchManifest(r)
	return results, cpu, err
}
