// Package bench reproduces the paper's evaluation (§4.2): for each SPEC95
// stand-in it measures the uninstrumented, instrumented-unscheduled and
// instrumented-scheduled executables on the machine's hardware timing
// model, and renders Tables 1–3 (times, slowdown ratios, and the fraction
// of instrumentation overhead hidden by scheduling).
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"eel/internal/core"
	"eel/internal/eel"
	"eel/internal/exe"
	"eel/internal/obs"
	"eel/internal/qpt"
	"eel/internal/sim"
	"eel/internal/spawn"
	"eel/internal/workload"
)

// TableConfig selects one experiment.
type TableConfig struct {
	Machine spawn.Machine
	// RescheduleBaseline reproduces Table 2: EEL reschedules the original
	// program first, and instrumentation is applied to that binary.
	RescheduleBaseline bool
	// DynamicInsts approximately sizes each benchmark's run.
	DynamicInsts uint64
	Seed         int64
	// Sched tunes the scheduler (ablations, worker count, oracle,
	// engine); zero value is the paper's. Sched.Workers and Sched.Oracle
	// never change a table, only editing wall-clock time.
	Sched core.Options
	// DisablePlacementOpt instruments every block (ablation).
	DisablePlacementOpt bool
	// ValidateCounts cross-checks profile counters between the scheduled
	// and unscheduled instrumented runs.
	ValidateCounts bool
	// Benchmarks restricts the run to the named subset (nil = all 18).
	Benchmarks []string
	// TableWorkers bounds the benchmark-row worker pool in RunTable
	// (0 = GOMAXPROCS). Like Sched.Workers it never changes a table —
	// rows are independent experiments and land in suite order
	// regardless — so it is excluded from the archived JSON.
	TableWorkers int `json:"-"`
	// Obs, when non-nil, collects the run's telemetry: scheduler stall
	// attribution (propagated into Sched.Obs), simulator run totals,
	// per-row wall-time spans and the slowest_rows extra. Excluded from
	// JSON — telemetry never changes a table, and archived tables must
	// stay byte-identical with and without it.
	Obs *obs.Registry `json:"-"`
}

func (c TableConfig) withDefaults() TableConfig {
	if c.Machine == "" {
		c.Machine = spawn.UltraSPARC
	}
	if c.DynamicInsts == 0 {
		c.DynamicInsts = 600_000
	}
	if c.Obs != nil && c.Sched.Obs == nil {
		c.Sched.Obs = c.Obs
	}
	return c
}

// stampManifest records the experiment's identity in the registry's
// run-manifest block, layered over the environment facts.
func (c TableConfig) stampManifest() {
	r := c.Obs
	if r == nil {
		return
	}
	r.StampRunManifest()
	r.SetManifest("machine", string(c.Machine))
	r.SetManifest("engine", c.Sched.Engine.String())
	r.SetManifest("oracle", c.Sched.Oracle.String())
	r.SetManifest("workers", strconv.Itoa(c.Sched.Workers))
	r.SetManifest("tableworkers", strconv.Itoa(c.TableWorkers))
	r.SetManifest("dynamic_insts", strconv.FormatUint(c.DynamicInsts, 10))
	r.SetManifest("reschedule_baseline", strconv.FormatBool(c.RescheduleBaseline))
}

// Row is one table line.
type Row struct {
	Name  string
	FP    bool
	AvgBB float64

	UninstCycles int64 // original binary (Tables 1/3) — always measured
	BaseCycles   int64 // baseline for the experiment (= Uninst, or rescheduled)
	InstCycles   int64
	SchedCycles  int64

	UninstSec, BaseSec, InstSec, SchedSec float64

	// RescheduleRatio = BaseCycles/UninstCycles (the paper's Table 2
	// Uninst column parenthetical).
	RescheduleRatio float64
	InstRatio       float64 // InstCycles / UninstCycles
	SchedRatio      float64 // SchedCycles / UninstCycles
	PctHidden       float64 // 100 * (Inst-Sched)/(Inst-Base)
}

// Table is a complete experiment result.
type Table struct {
	Config TableConfig
	Rows   []Row
}

// measure runs x under the measurer and returns (cycles, seconds) plus
// the finished interpreter, which the caller must pass back to
// meas.Release (the timing observer is recycled here).
func measure(meas *sim.Measurer, x *exe.Exe, maxSteps uint64) (int64, float64, *sim.Interp, error) {
	in, tm, res, err := meas.Run(x, maxSteps)
	if err != nil {
		return 0, 0, nil, err
	}
	if !res.Halted {
		meas.Release(in, tm)
		return 0, 0, nil, fmt.Errorf("bench: run did not halt")
	}
	cycles, sec := tm.Cycles(), tm.Seconds()
	meas.Release(nil, tm)
	return cycles, sec, in, nil
}

// runBenchmark measures one benchmark row under a configuration, on the
// model and measurer of the Sweep worker that claimed it. cfg must
// already have defaults applied.
//
// The measurement legs are independent experiments on immutable inputs —
// the generated original and the opened baseline editor — so they run
// concurrently: the editor never mutates its executable, edits go through
// the mutex-sharded scheduling cache, and each simulation owns its
// interpreter and timing state. Results are deterministic because each
// leg writes distinct fields and errors are checked in a fixed order
// after the join.
func runBenchmark(b workload.Benchmark, cfg TableConfig, model *spawn.Model, meas *sim.Measurer) (Row, error) {
	maxSteps := 40*cfg.DynamicInsts + 1_000_000

	orig, err := workload.Generate(b, workload.Config{
		Machine:      cfg.Machine,
		DynamicInsts: cfg.DynamicInsts,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return Row{}, fmt.Errorf("bench: %s: %w", b.Name, err)
	}
	row := Row{Name: b.Name, FP: b.FP}

	// The baseline binary is the one input every instrumented leg shares,
	// so rescheduling (Table 2) stays on the serial spine.
	base := orig
	if cfg.RescheduleBaseline {
		ed, err := eel.Open(orig)
		if err != nil {
			return Row{}, err
		}
		base, err = ed.Reschedule(model, cfg.Sched)
		if err != nil {
			return Row{}, fmt.Errorf("bench: %s reschedule: %w", b.Name, err)
		}
	}
	ed, err := eel.Open(base)
	if err != nil {
		return Row{}, err
	}

	profInst := &qpt.SlowProfiler{DisablePlacementOpt: cfg.DisablePlacementOpt}
	profSched := &qpt.SlowProfiler{DisablePlacementOpt: cfg.DisablePlacementOpt}
	var instRun, schedRun *sim.Interp
	var errAvg, errUninst, errBase, errInst, errSched error

	var wg sync.WaitGroup
	leg := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	leg(func() {
		row.AvgBB, errAvg = workload.MeasureAvgBlockSize(orig, 300_000)
	})
	leg(func() {
		var in *sim.Interp
		var err error
		row.UninstCycles, row.UninstSec, in, err = measure(meas, orig, maxSteps)
		if err != nil {
			errUninst = fmt.Errorf("bench: %s uninstrumented: %w", b.Name, err)
			return
		}
		meas.Release(in, nil)
	})
	if cfg.RescheduleBaseline {
		leg(func() {
			var in *sim.Interp
			var err error
			row.BaseCycles, row.BaseSec, in, err = measure(meas, base, maxSteps)
			if err != nil {
				errBase = fmt.Errorf("bench: %s rescheduled: %w", b.Name, err)
				return
			}
			meas.Release(in, nil)
		})
	}
	leg(func() {
		// Instrumented, unscheduled.
		instExe, err := ed.Edit(profInst, eel.Options{})
		if err != nil {
			errInst = fmt.Errorf("bench: %s instrument: %w", b.Name, err)
			return
		}
		row.InstCycles, row.InstSec, instRun, err = measure(meas, instExe, maxSteps)
		if err != nil {
			errInst = fmt.Errorf("bench: %s instrumented: %w", b.Name, err)
		}
	})
	leg(func() {
		// Instrumented and scheduled together.
		schedExe, err := ed.Edit(profSched, eel.Options{
			Machine:  model,
			Schedule: true,
			Sched:    cfg.Sched,
		})
		if err != nil {
			errSched = fmt.Errorf("bench: %s schedule: %w", b.Name, err)
			return
		}
		row.SchedCycles, row.SchedSec, schedRun, err = measure(meas, schedExe, maxSteps)
		if err != nil {
			errSched = fmt.Errorf("bench: %s scheduled: %w", b.Name, err)
		}
	})
	wg.Wait()

	release := func() {
		meas.Release(instRun, nil)
		meas.Release(schedRun, nil)
	}
	for _, err := range []error{errAvg, errUninst, errBase, errInst, errSched} {
		if err != nil {
			release()
			return Row{}, err
		}
	}
	if !cfg.RescheduleBaseline {
		row.BaseCycles, row.BaseSec = row.UninstCycles, row.UninstSec
	}

	if cfg.ValidateCounts {
		a, err := profInst.Counts(instRun.Mem().Read32)
		if err != nil {
			release()
			return Row{}, err
		}
		bc, err := profSched.Counts(schedRun.Mem().Read32)
		if err != nil {
			release()
			return Row{}, err
		}
		for blk, av := range a {
			if bc[blk] != av {
				release()
				return Row{}, fmt.Errorf("bench: %s: block %d counts diverge: %d vs %d",
					b.Name, blk, av, bc[blk])
			}
		}
	}
	release()

	row.RescheduleRatio = ratio(row.BaseCycles, row.UninstCycles)
	row.InstRatio = ratio(row.InstCycles, row.UninstCycles)
	row.SchedRatio = ratio(row.SchedCycles, row.UninstCycles)
	overhead := row.InstCycles - row.BaseCycles
	if overhead != 0 {
		row.PctHidden = 100 * float64(row.InstCycles-row.SchedCycles) / float64(overhead)
	}
	return row, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// RunTable runs a full experiment over the suite. Benchmark rows are
// fanned out by Sweep over cfg.TableWorkers goroutines (0 = GOMAXPROCS);
// the table is byte-identical for any worker count. Unknown names in
// cfg.Benchmarks are an error.
func RunTable(cfg TableConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	cfg.stampManifest()
	rows, err := Sweep(cfg.Machine, cfg.Benchmarks, cfg.TableWorkers, cfg.Obs,
		func(b workload.Benchmark, model *spawn.Model, meas *sim.Measurer) (Row, error) {
			return runBenchmark(b, cfg, model, meas)
		})
	if err != nil {
		return nil, err
	}
	return &Table{Config: cfg, Rows: rows}, nil
}

// Averages returns (mean inst ratio, mean sched ratio, mean % hidden) for
// a suite half (fp or integer), following the paper's arithmetic means.
func (t *Table) Averages(fp bool) (instRatio, schedRatio, pctHidden float64, n int) {
	for _, r := range t.Rows {
		if r.FP != fp {
			continue
		}
		instRatio += r.InstRatio
		schedRatio += r.SchedRatio
		pctHidden += r.PctHidden
		n++
	}
	if n > 0 {
		instRatio /= float64(n)
		schedRatio /= float64(n)
		pctHidden /= float64(n)
	}
	return instRatio, schedRatio, pctHidden, n
}

// WriteJSON renders the table as indented JSON — the machine-readable
// counterpart of String, for archiving experiment runs next to the
// BENCH_* perf trajectory.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// titleCase upper-cases the first letter of an ASCII word — the machine
// names are single lowercase words, so this matches what the deprecated
// strings.Title produced for them.
func titleCase(s string) string {
	if s == "" || !('a' <= s[0] && s[0] <= 'z') {
		return s
	}
	return string(s[0]-'a'+'A') + s[1:]
}

// String renders the table in the paper's format.
func (t *Table) String() string {
	var b strings.Builder
	title := "Slow profiling instrumentation on the " + titleCase(string(t.Config.Machine))
	if t.Config.RescheduleBaseline {
		title += ", with original instructions first rescheduled by EEL"
	}
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s %8s %10s %16s %16s %9s\n",
		"Benchmark", "Avg.BB", "Uninst.", "Inst.", "Sched.", "%Hidden")
	writeRows := func(fp bool, label string) {
		for _, r := range t.Rows {
			if r.FP != fp {
				continue
			}
			uninst := fmt.Sprintf("%.1f", r.UninstSec*1000)
			if t.Config.RescheduleBaseline {
				uninst = fmt.Sprintf("%.1f (%.2f)", r.BaseSec*1000, r.RescheduleRatio)
			}
			fmt.Fprintf(&b, "%-14s %8.1f %10s %9.1f (%.2f) %9.1f (%.2f) %8.1f%%\n",
				r.Name, r.AvgBB, uninst,
				r.InstSec*1000, r.InstRatio,
				r.SchedSec*1000, r.SchedRatio,
				r.PctHidden)
		}
		ir, sr, ph, n := t.Averages(fp)
		if n > 0 {
			fmt.Fprintf(&b, "%-14s %8s %10s %16.2f %16.2f %8.1f%%\n",
				label+" Average", "", "", ir, sr, ph)
		}
	}
	writeRows(false, "CINT95")
	writeRows(true, "CFP95")
	b.WriteString("(times in simulated milliseconds at the paper's clock rates)\n")
	return b.String()
}
