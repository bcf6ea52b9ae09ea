// Command benchdiff compares `go test -bench` output against a committed
// baseline (BENCH_sched.json), or records a new series into one. The
// stock benchstat tool is deliberately not a dependency: the comparison
// CI needs is one ns/op delta table, and the repo builds with the
// standard library alone.
//
//	go test -bench ScheduleBlocks ./internal/core | benchdiff
//	    advisory comparison against the "current" series
//	benchdiff -series pr2-baseline bench.txt
//	    compare against another recorded series
//	go test -bench ScheduleBlocks -count 5 ./internal/core | benchdiff -update
//	    record the per-benchmark medians as the new "current" series
//	benchdiff -update -manifest runner=ci -manifest suite=smoke bench.txt
//	    same, attaching operator facts to the series' run manifest
//	benchdiff -fail-over 30 bench.txt
//	    exit nonzero if any benchmark regressed more than 30%
//
// -update stamps a run manifest (Go version, platform, git revision,
// GOMAXPROCS and core count, the input's `cpu:` line, any
// `# manifest: k=v` lines in the bench input, plus any -manifest k=v
// pairs such as note=...) alongside the recorded series; manifests of
// other series in the baseline file are carried forward untouched, so
// the committed file says where every number came from.
//
// Comparison is advisory by default (always exit 0): shared CI runners
// are noisy enough that a hard gate on ns/op would flake. -fail-over
// opts into a threshold for local use — and is itself downgraded back
// to advisory (with a warning) when the baseline's manifest records a
// different core count than the current run, because parallel
// benchmarks scale with cores and such a delta compares machines, not
// code.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"eel/internal/bench"
	"eel/internal/obs"
)

// manifestFlag collects repeated -manifest k=v pairs.
type manifestFlag map[string]string

func (m manifestFlag) String() string { return "" }

func (m manifestFlag) Set(v string) error {
	k, val, ok := strings.Cut(v, "=")
	if !ok || k == "" {
		return fmt.Errorf("want key=value, got %q", v)
	}
	m[k] = val
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		baseline = flag.String("baseline", "BENCH_sched.json", "committed baseline file")
		series   = flag.String("series", "current", "series name to compare against or record")
		update   = flag.Bool("update", false, "record the input as the named series instead of comparing")
		failOver = flag.Float64("fail-over", 0, "exit nonzero if any benchmark regresses more than this percent (0 = advisory)")
	)
	manifest := make(manifestFlag)
	flag.Var(manifest, "manifest", "with -update: attach key=value to the series' run manifest (repeatable)")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		return fmt.Errorf("at most one input file (default stdin)")
	}

	results, cpu, inManifest, err := bench.ParseGoBenchManifest(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines in input")
	}
	results = bench.MedianByName(results)
	runManifest := seriesManifest(cpu, inManifest, manifest)

	if *update {
		pf, err := bench.ReadPerfFile(*baseline)
		if os.IsNotExist(err) {
			pf, err = &bench.PerfFile{}, nil
		}
		if err != nil {
			return err
		}
		if pf.Series == nil {
			pf.Series = make(map[string][]bench.PerfResult)
		}
		pf.Series[*series] = results
		pf.SetSeriesManifest(*series, runManifest)
		f, err := os.Create(*baseline)
		if err != nil {
			return err
		}
		if err := pf.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchdiff: recorded %d benchmarks as series %q in %s\n",
			len(results), *series, *baseline)
		return nil
	}

	pf, err := bench.ReadPerfFile(*baseline)
	if err != nil {
		return err
	}
	base, ok := pf.Series[*series]
	if !ok {
		return fmt.Errorf("%s has no series %q", *baseline, *series)
	}
	if baseCPU := pf.Manifests[*series]["cpu"]; baseCPU != "" && cpu != "" && baseCPU != cpu {
		fmt.Printf("note: baseline recorded on %q, this run on %q — deltas compare machines, not code\n", baseCPU, cpu)
	}
	deltas := bench.Compare(base, results)
	fmt.Print(bench.FormatDeltas(deltas))
	if *failOver > 0 {
		// A hard gate is only meaningful when both runs had the same
		// parallelism available: parallel benchmarks scale with core
		// count, so a 1-core runner "regresses" a 8-core baseline by
		// construction. Manifests without core stamps keep the gate.
		if key, bv, cv, mismatch := bench.CoreCountMismatch(pf.Manifests[*series], runManifest); mismatch {
			fmt.Fprintf(os.Stderr,
				"benchdiff: baseline series %q recorded with %s=%s but this run has %s=%s — core counts differ, downgrading -fail-over to advisory\n",
				*series, key, bv, key, cv)
			*failOver = 0
		}
	}
	if *failOver > 0 {
		for _, d := range deltas {
			if d.Pct > *failOver {
				return fmt.Errorf("%s regressed %.1f%% (> %.1f%%)", d.Name, d.Pct, *failOver)
			}
		}
	}
	return nil
}

// seriesManifest builds the run manifest recorded with -update: the
// environment facts first (including the runner's core count, which
// gates future hard comparisons, and the input's cpu line), then
// `# manifest:` pairs from the bench input, then operator -manifest
// pairs. Later sources win on key collision — an explicit -manifest is a
// deliberate override.
func seriesManifest(cpu string, input, extra map[string]string) map[string]string {
	m := map[string]string{
		"go":         runtime.Version(),
		"platform":   runtime.GOOS + "/" + runtime.GOARCH,
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"numcpu":     strconv.Itoa(runtime.NumCPU()),
	}
	if rev := obs.GitRev(); rev != "" {
		m["git_rev"] = rev
	}
	if cpu != "" {
		m["cpu"] = cpu
	}
	for k, v := range input {
		m[k] = v
	}
	for k, v := range extra {
		m[k] = v
	}
	return m
}
