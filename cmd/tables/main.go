// Command tables regenerates the paper's evaluation tables:
//
//	tables -table 1      Table 1: slow profiling on the UltraSPARC
//	tables -table 2      Table 2: same, with a rescheduled baseline
//	tables -table 3      Table 3: slow profiling on the SuperSPARC
//	tables -summary      the per-suite averages quoted in §1 and §5
//	tables -table 1 -benchmarks 130.li,102.swim   (subset)
//
// -insts scales each benchmark's dynamic length (default 600k); larger
// runs are slower but less noisy. -workers sizes the scheduling worker
// pool, -tableworkers the benchmark-row pool (0 = GOMAXPROCS for both),
// and -oracle/-engine select the stall oracle and scheduling engine; all
// four change wall-clock time only, never a table. -json emits the table
// as JSON instead of the paper's format.
//
// -metrics writes the run's telemetry (per-hazard stall attribution,
// per-row wall time with a slowest_rows top-5, simulator totals, row
// and simulator-run spans, a run manifest) as JSON, or Prometheus text
// when the path ends in .prom; telemetry never changes a table. -trace writes per-block
// scheduling decision traces into a directory for cmd/schedtrace, and
// -pprof serves net/http/pprof for the life of the run.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"

	"eel/internal/bench"
	"eel/internal/core"
	"eel/internal/obs"
	"eel/internal/spawn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

// run isolates every error path so main can turn each one into a
// non-zero exit code (CI depends on that).
func run() error {
	var (
		table      = flag.Int("table", 0, "table to regenerate (1, 2 or 3)")
		summary    = flag.Bool("summary", false, "print the per-suite averages for all three tables")
		insts      = flag.Uint64("insts", 600_000, "approximate dynamic instructions per run")
		seed       = flag.Int64("seed", 0, "workload generation seed")
		benchmarks = flag.String("benchmarks", "", "comma-separated benchmark subset")
		validate   = flag.Bool("validate", false, "cross-check profile counts between runs")
		workers    = flag.Int("workers", 0, "scheduling worker pool size (0 = GOMAXPROCS)")
		tworkers   = flag.Int("tableworkers", 0, "benchmark-row worker pool size (0 = GOMAXPROCS)")
		oracleName = flag.String("oracle", "fast", "stall oracle: fast (compiled tables) or reference (map-based ground truth)")
		engineName = flag.String("engine", "fast", "scheduling engine: fast (arena/priority-queue), reference (pairwise rescan), or optimal (branch-and-bound exact)")
		jsonOut    = flag.Bool("json", false, "emit the table as JSON instead of the paper's text format")
		metricsOut = flag.String("metrics", "", "write telemetry to this file (JSON, or Prometheus text for .prom)")
		traceDir   = flag.String("trace", "", "write per-block scheduling decision traces into this directory")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	)
	flag.Parse()
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "tables: pprof:", err)
			}
		}()
	}

	oracle, err := core.ParseOracle(*oracleName)
	if err != nil {
		return err
	}
	engine, err := core.ParseEngine(*engineName)
	if err != nil {
		return err
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		reg.SetManifest("tool", "tables")
	}
	var trace core.TraceSink
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
		j, err := obs.CreateJSONL(filepath.Join(*traceDir, "sched.jsonl"))
		if err != nil {
			return err
		}
		defer j.Close()
		trace = core.NewJSONLTraceSink(j)
	}

	// Unknown names are rejected by bench.RunTable itself, which lists
	// every unknown benchmark in one error.
	subset := bench.SplitList(*benchmarks)
	mk := func(machine spawn.Machine, resched bool) bench.TableConfig {
		cfg := bench.TableConfig{
			Machine:            machine,
			RescheduleBaseline: resched,
			DynamicInsts:       *insts,
			Seed:               *seed,
			Benchmarks:         subset,
			ValidateCounts:     *validate,
			TableWorkers:       *tworkers,
			Obs:                reg,
		}
		cfg.Sched = core.Options{Workers: *workers, Oracle: oracle, Engine: engine, Trace: trace}
		return cfg
	}
	configs := map[int]bench.TableConfig{
		1: mk(spawn.UltraSPARC, false),
		2: mk(spawn.UltraSPARC, true),
		3: mk(spawn.SuperSPARC, false),
	}

	if *summary {
		for _, n := range []int{1, 2, 3} {
			t, err := bench.RunTable(configs[n])
			if err != nil {
				return err
			}
			ii, is, ih, _ := t.Averages(false)
			fi, fs, fh, _ := t.Averages(true)
			fmt.Printf("Table %d (%s%s):\n", n, t.Config.Machine, rescheduleNote(t.Config))
			fmt.Printf("  CINT95: inst %.2fx  sched %.2fx  hidden %.1f%%\n", ii, is, ih)
			fmt.Printf("  CFP95:  inst %.2fx  sched %.2fx  hidden %.1f%%\n", fi, fs, fh)
		}
		return writeMetrics(reg, *metricsOut)
	}

	cfg, ok := configs[*table]
	if !ok {
		fmt.Fprintln(os.Stderr, "tables: pass -table 1, 2 or 3, or -summary")
		os.Exit(2)
	}
	t, err := bench.RunTable(cfg)
	if err != nil {
		return err
	}
	if err := writeMetrics(reg, *metricsOut); err != nil {
		return err
	}
	if *jsonOut {
		return t.WriteJSON(os.Stdout)
	}
	fmt.Printf("Table %d: %s", *table, t.String())
	return nil
}

// writeMetrics exports the telemetry registry, if one was requested.
func writeMetrics(reg *obs.Registry, path string) error {
	if reg == nil || path == "" {
		return nil
	}
	return reg.WriteFile(path)
}

func rescheduleNote(c bench.TableConfig) string {
	if c.RescheduleBaseline {
		return ", rescheduled baseline"
	}
	return ""
}
