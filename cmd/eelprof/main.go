// Command eelprof instruments an executable with QPT2 slow profiling, in
// the manner of the paper's Figure 3:
//
//	eelprof -machine ultrasparc -o prog.prof prog.exe      # instrument + schedule
//	eelprof -noschedule -o prog.prof prog.exe              # instrument only
//	eelprof -reschedule -o prog.sched prog.exe             # reschedule only
//	eelprof -run prog.exe                                  # run and report
//	eelprof -workers 8 -o prog.prof prog.exe               # 8 scheduling workers
//	eelprof -engine optimal -reschedule -o p.opt prog.exe  # exact B&B schedules
//	eelprof -metrics run.json -o prog.prof prog.exe        # telemetry export
//	eelprof -trace traces/ -o prog.prof prog.exe           # decision traces
//	eelprof -pprof :6060 -o prog.prof prog.exe             # live profiling
//	eelprof -gen 130.li -reschedule -o p.sched             # synthetic input
//
// -gen replaces the executable argument with a deterministic synthetic
// workload image (the same generator eelload's edit mode uses), so CI
// jobs can byte-diff schedules — e.g. across worker counts — without a
// binary corpus checked into the repo.
//
// With -run the tool executes the (possibly instrumented) program on the
// functional simulator with the machine's hardware timing model and prints
// cycles, instructions and, for instrumented binaries produced in the same
// invocation, the hottest basic blocks.
//
// -metrics writes the run's telemetry registry (stall attribution by
// hazard, the optimal engine's counters, and the edit's phase trace as
// the edit_trace extra) as JSON, or Prometheus text when the path ends
// in .prom. -trace writes one JSON line per scheduled block into
// <dir>/sched.jsonl for cmd/schedtrace. -pprof serves net/http/pprof on
// the given address for the life of the process.
//
// eelprof opens its input with eel.Open, which schedules without a
// cache: a single edit meets each block once. Repeated editing with a
// shared, inspectable schedule cache goes through eel.OpenShared (as
// cmd/eeld does).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"eel/internal/core"
	"eel/internal/eel"
	"eel/internal/exe"
	"eel/internal/obs"
	"eel/internal/qpt"
	"eel/internal/sim"
	"eel/internal/spawn"
	"eel/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "eelprof:", err)
		os.Exit(1)
	}
}

// run isolates every error path so main can turn each one into a
// non-zero exit code (CI depends on that).
func run() error {
	var (
		machine    = flag.String("machine", "ultrasparc", "scheduling/timing model")
		out        = flag.String("o", "", "output executable path")
		noSchedule = flag.Bool("noschedule", false, "insert instrumentation without scheduling")
		reschedule = flag.Bool("reschedule", false, "reschedule only; no instrumentation")
		doRun      = flag.Bool("run", false, "execute the result and report")
		maxSteps   = flag.Uint64("maxsteps", 1<<30, "execution step limit with -run")
		workers    = flag.Int("workers", 0, "scheduling worker pool size (0 = GOMAXPROCS)")
		oracleName = flag.String("oracle", "fast", "stall oracle: fast (compiled tables) or reference (map-based ground truth)")
		engineName = flag.String("engine", "fast", "scheduling engine: fast (arena/priority-queue), reference (pairwise rescan), or optimal (branch-and-bound exact)")
		metricsOut = flag.String("metrics", "", "write telemetry to this file (JSON, or Prometheus text for .prom)")
		traceDir   = flag.String("trace", "", "write per-block scheduling decision traces into this directory")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
		gen        = flag.String("gen", "", "synthesize the input from this workload (e.g. 130.li) instead of reading an executable")
		genInsts   = flag.Uint64("gen-dyninsts", 1<<13, "with -gen: dynamic instructions in the generated image")
		genSeed    = flag.Int64("gen-seed", 1, "with -gen: workload generator seed")
	)
	flag.Parse()
	if (*gen == "" && flag.NArg() != 1) || (*gen != "" && flag.NArg() != 0) {
		fmt.Fprintln(os.Stderr, "usage: eelprof [flags] executable\n       eelprof -gen workload [flags]")
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "eelprof: pprof:", err)
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
		reg.StampRunManifest()
		reg.SetManifest("tool", "eelprof")
		reg.SetManifest("machine", *machine)
		reg.SetManifest("oracle", oracle.String())
		reg.SetManifest("engine", engine.String())
		reg.SetManifest("workers", strconv.Itoa(*workers))
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
	model, err := spawn.Load(spawn.Machine(*machine))
	if err != nil {
		return err
	}
	var x *exe.Exe
	if *gen != "" {
		b, ok := workload.ByName(*gen, spawn.Machine(*machine))
		if !ok {
			return fmt.Errorf("unknown -gen workload %q", *gen)
		}
		x, err = workload.Generate(b, workload.Config{
			Machine:         spawn.Machine(*machine),
			DynamicInsts:    *genInsts,
			Seed:            *genSeed,
			SkipCalibration: true,
		})
	} else {
		x, err = exe.ReadFile(flag.Arg(0))
	}
	if err != nil {
		return err
	}
	ed, err := eel.Open(x)
	if err != nil {
		return err
	}

	var (
		prof *qpt.SlowProfiler
		tool eel.Instrumenter
		opts eel.Options
	)
	if !*reschedule {
		prof = &qpt.SlowProfiler{}
		tool = prof
	}
	if *reschedule || !*noSchedule {
		opts = eel.Options{Machine: model, Schedule: true, Sched: core.Options{
			Workers: *workers, Oracle: oracle, Engine: engine, Obs: reg, Trace: trace}}
	}
	// With -metrics the edit runs under a trace, so its eel.* phases and
	// the scheduler's sched.* phases under eel.schedule land in the
	// export as the edit_trace extra: the same span model eeld's request
	// traces use.
	ctx := context.Background()
	var tr *obs.Trace
	if *metricsOut != "" {
		tr = obs.NewTrace("edit")
		ctx = obs.WithTrace(ctx, tr)
	}
	result, err := ed.EditCtx(ctx, tool, opts)
	if tr != nil {
		tr.Finish()
		reg.PutExtra("edit_trace", tr.Export())
	}
	if err != nil {
		// A failed edit still leaves observable state behind: the blocks
		// scheduled before the failure sit in the registry. Export it,
		// marked incomplete, and keep the error — and the non-zero exit —
		// intact.
		if reg != nil {
			reg.SetManifest("incomplete", "true")
			if werr := reg.WriteFile(*metricsOut); werr != nil {
				fmt.Fprintln(os.Stderr, "eelprof: metrics:", werr)
			}
		}
		return err
	}

	if reg != nil {
		if err := reg.WriteFile(*metricsOut); err != nil {
			return err
		}
	}

	if *out != "" {
		if err := result.WriteFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "eelprof: wrote %s (%d -> %d instructions)\n",
			*out, len(x.Text), len(result.Text))
	}

	if !*doRun {
		return nil
	}
	in, tm, res, err := sim.RunMeasured(result, model, sim.DefaultTiming(spawn.Machine(*machine)), *maxSteps)
	if err != nil {
		return err
	}
	fmt.Printf("halted=%v instructions=%d cycles=%d seconds=%.6f icache-miss=%.4f\n",
		res.Halted, tm.Instructions(), tm.Cycles(), tm.Seconds(), tm.ICache().MissRate())
	if prof != nil {
		counts, err := prof.Counts(in.Mem().Read32)
		if err != nil {
			return err
		}
		fmt.Println("hottest blocks:")
		for _, h := range hottest(counts, 10) {
			fmt.Printf("  block %4d: %12d executions\n", h.block, h.n)
		}
	}
	if !res.Halted {
		return fmt.Errorf("run did not halt within %d steps", *maxSteps)
	}
	return nil
}

// blockCount is one block's execution count.
type blockCount struct {
	block int
	n     uint64
}

// hottest returns at most k blocks by descending execution count, ties
// broken by ascending block index, so the report does not depend on map
// iteration order.
func hottest(counts map[int]uint64, k int) []blockCount {
	hot := make([]blockCount, 0, len(counts))
	for b, n := range counts {
		hot = append(hot, blockCount{b, n})
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].n != hot[j].n {
			return hot[i].n > hot[j].n
		}
		return hot[i].block < hot[j].block
	})
	if len(hot) > k {
		hot = hot[:k]
	}
	return hot
}
