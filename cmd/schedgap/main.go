// Command schedgap measures the greedy list scheduler's optimality gap:
// it reschedules every benchmark in the workload suite twice — once with
// the production greedy engine, once with the branch-and-bound exact
// engine (core.EngineOptimal) — simulates both executables on the
// machine's timing model, and reports, per benchmark, the simulated
// cycles of each schedule, the fraction of blocks the search proved
// optimal, and how many searches the node budget stopped.
//
//	schedgap                                   # all machines, full suite
//	schedgap -machines ultrasparc -json        # one machine, JSON report
//	schedgap -benchmarks 130.li,102.swim       # subset of the suite
//	schedgap -budget 20000 -insts 20000        # smaller search + programs
//	schedgap -bench | benchdiff -update -series schedgap
//	                                           # record the cycle numbers
//
// Rows run in parallel, one benchmark per GOMAXPROCS worker
// (bench.Sweep). The report is deterministic for a fixed flag set:
// program generation is seeded, scheduling is worker-count-independent,
// rows land in suite order, and the search budget counts nodes, not
// wall time. CI diffs the -json output of a
// small configuration against a committed golden
// (testdata/ci/schedgap_smoke.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"eel/internal/bench"
	"eel/internal/core"
	"eel/internal/eel"
	"eel/internal/obs"
	"eel/internal/sim"
	"eel/internal/spawn"
	"eel/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "schedgap:", err)
		os.Exit(1)
	}
}

// Row is one benchmark's gap measurement on one machine. TOTAL rows
// aggregate a machine's suite (cycles summed, percentages recomputed).
type Row struct {
	Machine         string  `json:"machine"`
	Benchmark       string  `json:"benchmark"`
	GreedyCycles    int64   `json:"greedy_cycles"`
	OptimalCycles   int64   `json:"optimal_cycles"`
	GapPct          float64 `json:"gap_pct"`
	Blocks          int64   `json:"blocks"`
	Proven          int64   `json:"proven"`
	ProvenPct       float64 `json:"proven_pct"`
	SmallBlocks     int64   `json:"small_blocks"`
	SmallProven     int64   `json:"small_proven"`
	SmallProvenPct  float64 `json:"small_proven_pct"`
	BudgetExhausted int64   `json:"budget_exhausted"`
	Oversized       int64   `json:"oversized"`
	Improved        int64   `json:"improved"`
	CyclesSaved     int64   `json:"cycles_saved"`
	Nodes           int64   `json:"nodes"`
}

// Report is the full -json document. Flag values are embedded so a
// golden diff cannot silently compare runs of different configurations.
type Report struct {
	Insts    uint64 `json:"insts"`
	Seed     int64  `json:"seed"`
	Budget   int    `json:"budget"`
	MaxInsts int    `json:"max_insts"`
	Rows     []Row  `json:"rows"`
	Totals   []Row  `json:"totals"`
}

// run parses args and writes the report to w; main turns its error
// into a non-zero exit.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("schedgap", flag.ExitOnError)
	var (
		machinesFlag = fs.String("machines", "", "comma-separated machine models (default: all)")
		benchFlag    = fs.String("benchmarks", "", "comma-separated benchmark subset (default: full suite)")
		insts        = fs.Uint64("insts", 200_000, "approximate dynamic instructions per generated benchmark")
		seed         = fs.Int64("seed", 1, "workload generation seed")
		budget       = fs.Int("budget", 0, "exact-search node budget per block (0 = default, negative disables)")
		maxInsts     = fs.Int("maxinsts", 0, "largest body size the exact search attempts (0 = default)")
		workers      = fs.Int("workers", 0, "scheduling worker pool size (0 = GOMAXPROCS)")
		maxSteps     = fs.Uint64("maxsteps", 1<<30, "simulator step limit per run")
		jsonOut      = fs.Bool("json", false, "emit the report as JSON")
		benchOut     = fs.Bool("bench", false, "emit go-bench lines (cycles) for benchdiff")
	)
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: schedgap [flags]")
		os.Exit(2)
	}

	machines, err := bench.Machines(*machinesFlag)
	if err != nil {
		return err
	}
	cfg := config{*insts, *seed, *budget, *maxInsts, *workers, *maxSteps}
	report := Report{
		Insts:    *insts,
		Seed:     *seed,
		Budget:   *budget,
		MaxInsts: *maxInsts,
	}
	for _, machine := range machines {
		rows, err := bench.Sweep(machine, bench.SplitList(*benchFlag), 0, nil, cfg.measure)
		if err != nil {
			return err
		}
		total := Row{Machine: string(machine), Benchmark: "TOTAL"}
		for _, row := range rows {
			report.Rows = append(report.Rows, row)
			total.GreedyCycles += row.GreedyCycles
			total.OptimalCycles += row.OptimalCycles
			total.Blocks += row.Blocks
			total.Proven += row.Proven
			total.SmallBlocks += row.SmallBlocks
			total.SmallProven += row.SmallProven
			total.BudgetExhausted += row.BudgetExhausted
			total.Oversized += row.Oversized
			total.Improved += row.Improved
			total.CyclesSaved += row.CyclesSaved
			total.Nodes += row.Nodes
		}
		fillPercentages(&total)
		report.Totals = append(report.Totals, total)
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
	insts            uint64
	seed             int64
	budget, maxInsts int
	workers          int
	maxSteps         uint64
}

// measure generates one benchmark, reschedules it under both engines,
// and simulates both results on the machine's timing model.
func (cfg config) measure(b workload.Benchmark, model *spawn.Model, meas *sim.Measurer) (row Row, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%s/%s: %w", model.Machine, b.Name, err)
		}
	}()
	row = Row{Machine: string(model.Machine), Benchmark: b.Name}
	x, err := workload.Generate(b, workload.Config{
		Machine:         model.Machine,
		DynamicInsts:    cfg.insts,
		Seed:            cfg.seed,
		SkipCalibration: true,
	})
	if err != nil {
		return row, err
	}

	greedyEd, err := eel.Open(x)
	if err != nil {
		return row, err
	}
	greedyExe, err := greedyEd.Reschedule(model, core.Options{Workers: cfg.workers})
	if err != nil {
		return row, err
	}
	row.GreedyCycles, err = bench.Cycles(meas, greedyExe, cfg.maxSteps)
	if err != nil {
		return row, err
	}

	optEd, err := eel.Open(x)
	if err != nil {
		return row, err
	}
	reg := obs.NewRegistry()
	optExe, err := optEd.Reschedule(model, core.Options{
		Workers:         cfg.workers,
		Engine:          core.EngineOptimal,
		OptimalBudget:   cfg.budget,
		OptimalMaxInsts: cfg.maxInsts,
		Obs:             reg,
	})
	if err != nil {
		return row, err
	}
	row.OptimalCycles, err = bench.Cycles(meas, optExe, cfg.maxSteps)
	if err != nil {
		return row, err
	}

	c := reg.Counters()
	row.Blocks = c["core.optimal_blocks_total"]
	row.Proven = c["core.optimal_proven_total"]
	row.SmallBlocks = c["core.optimal_small_blocks_total"]
	row.SmallProven = c["core.optimal_small_proven_total"]
	row.BudgetExhausted = c["core.optimal_budget_exhausted"]
	row.Oversized = c["core.optimal_oversized_total"]
	row.Improved = c["core.optimal_improved_total"]
	row.CyclesSaved = c["core.optimal_cycles_saved_total"]
	row.Nodes = c["core.optimal_nodes_total"]
	fillPercentages(&row)
	return row, nil
}

// fillPercentages derives the ratio columns, rounded to 4 decimals so
// the JSON golden stays readable and stable.
func fillPercentages(r *Row) {
	r.GapPct = bench.Pct(r.GreedyCycles-r.OptimalCycles, r.GreedyCycles)
	r.ProvenPct = bench.Pct(r.Proven, r.Blocks)
	r.SmallProvenPct = bench.Pct(r.SmallProven, r.SmallBlocks)
}

// writeTable renders the human report: one aligned row per benchmark,
// one TOTAL row per machine.
func writeTable(w io.Writer, rep *Report) {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "machine\tbenchmark\tgreedy-cycles\toptimal-cycles\tgap%\tproven\tsmall-proven\texhausted\timproved\tsaved")
	emit := func(r *Row) {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.4f\t%d/%d (%.1f%%)\t%d/%d (%.1f%%)\t%d\t%d\t%d\n",
			r.Machine, r.Benchmark, r.GreedyCycles, r.OptimalCycles, r.GapPct,
			r.Proven, r.Blocks, r.ProvenPct,
			r.SmallProven, r.SmallBlocks, r.SmallProvenPct,
			r.BudgetExhausted, r.Improved, r.CyclesSaved)
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
// record them as a series in BENCH_sched.json (the value is simulated
// cycles, not nanoseconds; the unit is required by the format).
func writeBench(w io.Writer, rep *Report) {
	for i := range rep.Rows {
		r := &rep.Rows[i]
		fmt.Fprintf(w, "BenchmarkSchedGap/machine=%s/bench=%s/greedy 1 %d ns/op\n", r.Machine, r.Benchmark, r.GreedyCycles)
		fmt.Fprintf(w, "BenchmarkSchedGap/machine=%s/bench=%s/optimal 1 %d ns/op\n", r.Machine, r.Benchmark, r.OptimalCycles)
	}
	for i := range rep.Totals {
		r := &rep.Totals[i]
		fmt.Fprintf(w, "BenchmarkSchedGap/machine=%s/total/greedy 1 %d ns/op\n", r.Machine, r.GreedyCycles)
		fmt.Fprintf(w, "BenchmarkSchedGap/machine=%s/total/optimal 1 %d ns/op\n", r.Machine, r.OptimalCycles)
	}
}
