// Command schedloop measures software pipelining over the workload
// suite: every benchmark is block-scheduled (the production baseline),
// its hot innermost loops are modulo-scheduled and spliced through the
// executable editor under the whole-program never-worse guard, and both
// executables are simulated on the machine's timing model. The report
// shows, per benchmark x machine: loops found, candidates, accepted
// rewrites, the achieved II against its MII lower bound, steady-state
// cycles per iteration before and after, and whole-program simulated
// cycles.
//
//	schedloop                                  # all machines, full suite
//	schedloop -machines ultrasparc -json       # one machine, JSON report
//	schedloop -benchmarks 102.swim,101.tomcatv # subset of the suite
//	schedloop -check                           # fail on any regression
//	schedloop -dump out/                       # write pipelined images
//	schedloop -bench | benchdiff -update -series swp
//	                                           # record the cycle numbers
//
// Rows run in parallel, one benchmark per GOMAXPROCS worker
// (bench.Sweep). The report is deterministic for a fixed flag set:
// program generation is seeded, the pipelining pass is
// worker-count-independent and rows land in suite order, so CI
// diffs the -json output of a small configuration against a committed
// golden (testdata/ci/schedloop_smoke.json) and byte-compares -dump
// output across worker counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"eel/internal/bench"
	"eel/internal/core"
	"eel/internal/eel"
	"eel/internal/exe"
	"eel/internal/sim"
	"eel/internal/spawn"
	"eel/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "schedloop:", err)
		os.Exit(1)
	}
}

// Row is one benchmark's pipelining measurement on one machine. TOTAL
// rows aggregate a machine's suite (cycles and counts summed,
// percentages recomputed).
type Row struct {
	Machine     string `json:"machine"`
	Benchmark   string `json:"benchmark"`
	Loops       int    `json:"loops"`
	Irreducible int    `json:"irreducible"`
	Candidates  int    `json:"candidates"`
	Accepted    int    `json:"accepted"`
	// II and MII of the hottest accepted loop (0 when none accepted).
	II  int `json:"ii"`
	MII int `json:"mii"`
	// Steady-state cycles per iteration aggregated over the accepted
	// loops' text ranges, before (block-scheduled) and after.
	IterCyclesBefore float64 `json:"iter_cycles_before"`
	IterCyclesAfter  float64 `json:"iter_cycles_after"`
	// Whole-program simulated cycles: the block-scheduled baseline and
	// the pipelined result (equal when nothing was accepted).
	BaseCycles int64   `json:"base_cycles"`
	SWPCycles  int64   `json:"swp_cycles"`
	SavedPct   float64 `json:"saved_pct"`
}

// Report is the full -json document, flag values embedded so a golden
// diff cannot silently compare runs of different configurations.
type Report struct {
	Insts  uint64 `json:"insts"`
	Seed   int64  `json:"seed"`
	Rows   []Row  `json:"rows"`
	Totals []Row  `json:"totals"`
}

// run parses args and writes the report to w; main turns its error
// into a non-zero exit.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("schedloop", flag.ExitOnError)
	var (
		machinesFlag = fs.String("machines", "", "comma-separated machine models (default: all)")
		benchFlag    = fs.String("benchmarks", "", "comma-separated benchmark subset (default: full suite)")
		insts        = fs.Uint64("insts", 200_000, "approximate dynamic instructions per generated benchmark")
		seed         = fs.Int64("seed", 1, "workload generation seed")
		workers      = fs.Int("workers", 0, "scheduling worker pool size (0 = GOMAXPROCS)")
		maxSteps     = fs.Uint64("maxsteps", 1<<30, "simulator step limit per run")
		check        = fs.Bool("check", false, "exit nonzero if any benchmark regressed (never-worse violation)")
		dumpDir      = fs.String("dump", "", "write each pipelined executable to this directory")
		jsonOut      = fs.Bool("json", false, "emit the report as JSON")
		benchOut     = fs.Bool("bench", false, "emit go-bench lines (cycles) for benchdiff")
	)
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: schedloop [flags]")
		os.Exit(2)
	}

	machines, err := bench.Machines(*machinesFlag)
	if err != nil {
		return err
	}
	if *dumpDir != "" {
		if err := os.MkdirAll(*dumpDir, 0o755); err != nil {
			return err
		}
	}

	cfg := config{*insts, *seed, *workers, *maxSteps, *dumpDir}
	report := Report{Insts: *insts, Seed: *seed}
	for _, machine := range machines {
		rows, err := bench.Sweep(machine, bench.SplitList(*benchFlag), 0, nil, cfg.measure)
		if err != nil {
			return err
		}
		total := Row{Machine: string(machine), Benchmark: "TOTAL"}
		for _, row := range rows {
			report.Rows = append(report.Rows, row)
			total.Loops += row.Loops
			total.Irreducible += row.Irreducible
			total.Candidates += row.Candidates
			total.Accepted += row.Accepted
			total.BaseCycles += row.BaseCycles
			total.SWPCycles += row.SWPCycles
		}
		total.SavedPct = bench.Pct(total.BaseCycles-total.SWPCycles, total.BaseCycles)
		report.Totals = append(report.Totals, total)
	}

	if *check {
		for i := range report.Rows {
			r := &report.Rows[i]
			if r.SWPCycles > r.BaseCycles {
				return fmt.Errorf("never-worse violated: %s/%s pipelined to %d cycles from %d",
					r.Machine, r.Benchmark, r.SWPCycles, r.BaseCycles)
			}
		}
	}

	switch {
	case *benchOut:
		writeBench(w, &report)
	case *jsonOut:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&report)
	default:
		writeTable(w, &report)
	}
	return nil
}

// config is the flag values every row reads.
type config struct {
	insts    uint64
	seed     int64
	workers  int
	maxSteps uint64
	dumpDir  string
}

// measure generates one benchmark, block-schedules it, pipelines its hot
// loops under the never-worse guard, and attributes cycles to the
// rewritten loops on the timing model.
func (cfg config) measure(b workload.Benchmark, model *spawn.Model, meas *sim.Measurer) (row Row, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%s/%s: %w", model.Machine, b.Name, err)
		}
	}()
	machine := model.Machine
	row = Row{Machine: string(machine), Benchmark: b.Name}
	x, err := workload.Generate(b, workload.Config{
		Machine:         machine,
		DynamicInsts:    cfg.insts,
		Seed:            cfg.seed,
		SkipCalibration: true,
	})
	if err != nil {
		return row, err
	}

	ed, err := eel.Open(x)
	if err != nil {
		return row, err
	}
	scheduled, err := ed.Reschedule(model, core.Options{Workers: cfg.workers})
	if err != nil {
		return row, err
	}

	// The pipelining pass prices every candidate by whole-program
	// simulated cycles on the worker's measurer, which recycles simulator
	// state across those runs.
	sed, err := eel.Open(scheduled)
	if err != nil {
		return row, err
	}
	res, err := sed.PipelineLoops(eel.PipelineOptions{
		Machine: model,
		Sched:   core.Options{Workers: cfg.workers},
		Price: func(y *exe.Exe) (int64, error) {
			return bench.Cycles(meas, y, cfg.maxSteps)
		},
	})
	if err != nil {
		return row, err
	}

	row.Loops = res.LoopsFound
	row.Irreducible = res.Irreducible
	row.Candidates = res.Candidates
	row.Accepted = res.Accepted
	row.BaseCycles = res.BaseCost
	row.SWPCycles = res.Cost
	row.SavedPct = bench.Pct(row.BaseCycles-row.SWPCycles, row.BaseCycles)

	// Hottest accepted loop's II vs MII, and cycle-per-iteration
	// attribution over every accepted loop's text range.
	var before, after [][2]int
	var trips []int64
	hot := -1
	for i := range res.Loops {
		l := &res.Loops[i]
		if !l.Accepted {
			continue
		}
		if hot < 0 || l.Depth > res.Loops[hot].Depth ||
			(l.Depth == res.Loops[hot].Depth && l.Body > res.Loops[hot].Body) {
			hot = i
		}
		before = append(before, [2]int{l.OldStart, l.OldStart + l.OldLen})
		after = append(after, [2]int{l.NewStart, l.NewStart + l.NewLen})
		trips = append(trips, int64(l.Trip))
	}
	if hot >= 0 {
		row.II, row.MII = res.Loops[hot].II, res.Loops[hot].MII
		row.IterCyclesBefore, err = iterCycles(scheduled, model, cfg.maxSteps, before, trips)
		if err != nil {
			return row, err
		}
		row.IterCyclesAfter, err = iterCycles(res.Exe, model, cfg.maxSteps, after, trips)
		if err != nil {
			return row, err
		}
	}

	if cfg.dumpDir != "" {
		name := fmt.Sprintf("%s_%s.exe", machine, strings.ReplaceAll(b.Name, "/", "_"))
		if err := res.Exe.WriteFile(filepath.Join(cfg.dumpDir, name)); err != nil {
			return row, err
		}
	}
	return row, nil
}

// iterCycles simulates x once and returns the aggregate steady-state
// cycles per iteration over the given loop ranges: total attributed
// cycles divided by total iterations (range entries x trip count).
func iterCycles(x *exe.Exe, model *spawn.Model, maxSteps uint64, ranges [][2]int, trips []int64) (float64, error) {
	in, err := sim.NewInterp(x)
	if err != nil {
		return 0, err
	}
	tm := sim.NewProgramTiming(model, sim.DefaultTiming(model.Machine), x.TextBase, len(x.Text))
	m := sim.NewRangeMeter(tm, ranges)
	res, err := in.Run(maxSteps, m.Observe)
	if err != nil {
		return 0, err
	}
	if !res.Halted {
		return 0, fmt.Errorf("simulation did not halt within %d steps", maxSteps)
	}
	var cycles, iters int64
	for r := range ranges {
		cycles += m.Cycles(r)
		iters += m.Visits(r) * trips[r]
	}
	if iters == 0 {
		return 0, nil
	}
	return math.Round(1e4*float64(cycles)/float64(iters)) / 1e4, nil
}

// writeTable renders the human report: one aligned row per benchmark,
// one TOTAL row per machine.
func writeTable(w io.Writer, rep *Report) {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "machine\tbenchmark\tloops\tcand\taccepted\tII\tMII\tcyc/iter-before\tcyc/iter-after\tbase-cycles\tswp-cycles\tsaved%")
	emit := func(r *Row) {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%.2f\t%.2f\t%d\t%d\t%.4f\n",
			r.Machine, r.Benchmark, r.Loops, r.Candidates, r.Accepted, r.II, r.MII,
			r.IterCyclesBefore, r.IterCyclesAfter, r.BaseCycles, r.SWPCycles, r.SavedPct)
	}
	for i := range rep.Rows {
		emit(&rep.Rows[i])
	}
	for i := range rep.Totals {
		emit(&rep.Totals[i])
	}
	tw.Flush()
}

// writeBench emits the cycle counts in go-bench syntax so benchdiff can
// record them as the swp series in BENCH_sched.json (the value is
// simulated cycles, not nanoseconds; the unit is required by the format).
func writeBench(w io.Writer, rep *Report) {
	for i := range rep.Rows {
		r := &rep.Rows[i]
		fmt.Fprintf(w, "BenchmarkSWP/machine=%s/bench=%s/base 1 %d ns/op\n", r.Machine, r.Benchmark, r.BaseCycles)
		fmt.Fprintf(w, "BenchmarkSWP/machine=%s/bench=%s/swp 1 %d ns/op\n", r.Machine, r.Benchmark, r.SWPCycles)
	}
	for i := range rep.Totals {
		r := &rep.Totals[i]
		fmt.Fprintf(w, "BenchmarkSWP/machine=%s/total/base 1 %d ns/op\n", r.Machine, r.BaseCycles)
		fmt.Fprintf(w, "BenchmarkSWP/machine=%s/total/swp 1 %d ns/op\n", r.Machine, r.SWPCycles)
	}
}
