package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"eel/internal/bench"
	"eel/internal/eel"
	"eel/internal/exe"
	"eel/internal/obs"
	"eel/internal/qpt"
	"eel/internal/sim"
	"eel/internal/spawn"
	"eel/internal/workload"
)

// The table path: regenerating the paper's Tables 1-3. One sweep is
// bench.RunTable for Table 1 (UltraSPARC), Table 2 (UltraSPARC with a
// rescheduled baseline) and Table 3 (SuperSPARC) over the full suite,
// 54 rows. Each sweep draws its generator seed from the run's seed.

// tableDynInsts sizes every row's runs.
const tableDynInsts = 200_000

var tables = []bench.TableConfig{
	{Machine: spawn.UltraSPARC},
	{Machine: spawn.UltraSPARC, RescheduleBaseline: true},
	{Machine: spawn.SuperSPARC},
}

func tableConfig(t bench.TableConfig, seed int64) bench.TableConfig {
	t.DynamicInsts = tableDynInsts
	t.Seed = seed
	t.ValidateCounts = true
	t.TableWorkers = runtime.NumCPU()
	return t
}

// sweepSeed is the generator seed of a run's k-th sweep.
func sweepSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

type tableResult struct {
	sweepSec, sweepCPU []float64
	rows               int
	alloc              uint64
	// Per-sweep suite-half means over the three tables.
	hiddenInt, hiddenFP, ratioInt, ratioFP []float64
}

// runTable makes sweeps until budget is spent (at least one).
func runTable(seed int64, budget time.Duration) (*tableResult, error) {
	r := &tableResult{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(budget)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		var hi, hf, ri, rf float64
		start, cpu := time.Now(), processCPU()
		for _, t := range tables {
			tab, err := bench.RunTable(tableConfig(t, sweepSeed(seed, k)))
			if err != nil {
				return nil, err
			}
			if len(tab.Rows) != len(workload.Suite(t.Machine)) {
				return nil, fmt.Errorf("table for %s: %d rows", t.Machine, len(tab.Rows))
			}
			r.rows += len(tab.Rows)
			_, sInt, hInt, _ := tab.Averages(false)
			_, sFP, hFP, _ := tab.Averages(true)
			hi, hf, ri, rf = hi+hInt/3, hf+hFP/3, ri+sInt/3, rf+sFP/3
		}
		r.sweepSec = append(r.sweepSec, time.Since(start).Seconds())
		r.sweepCPU = append(r.sweepCPU, (processCPU() - cpu).Seconds())
		r.hiddenInt = append(r.hiddenInt, hi)
		r.hiddenFP = append(r.hiddenFP, hf)
		r.ratioInt = append(r.ratioInt, ri)
		r.ratioFP = append(r.ratioFP, rf)
	}
	runtime.ReadMemStats(&after)
	r.alloc = after.TotalAlloc - before.TotalAlloc
	fmt.Fprintf(os.Stderr, "perfbench: table sweeps: wall %.3f s, cpu %.3f s\n", r.sweepSec, r.sweepCPU)
	return r, nil
}

func (r *tableResult) metrics(m metrics) {
	m.set("pct_hidden_int", mean(r.hiddenInt))
	m.set("pct_hidden_fp", mean(r.hiddenFP))
	m.set("sched_ratio_int", mean(r.ratioInt))
	m.set("sched_ratio_fp", mean(r.ratioFP))
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rowLayers is one row's traced decomposition.
type rowLayers struct {
	table, name                  string
	workload, eel, simTimed, qpt time.Duration
	steps                        uint64
}

func (r rowLayers) total() time.Duration { return r.workload + r.eel + r.simTimed + r.qpt }

type tableLayers struct {
	rows        []rowLayers
	rowMs       []float64 // bench.row.* span walls of the registry-traced sweep
	tracedSweep time.Duration
	generate    time.Duration // workload.Generate alone, part of rows' workload time
	funcTime    time.Duration
	funcSteps   uint64
}

// traceTable re-runs the run's first sweep two ways. First as
// bench.RunTable with an obs.Registry attached, whose per-row spans give
// the row times. Then row by row, one call at a time, as timed calls
// into the layers a row crosses: workload (Generate,
// MeasureAvgBlockSize), eel (Open, Reschedule and the two Edits,
// scheduling included), timed sim (Measurer.Run per measured leg) and
// qpt (counter read-back). A plain functional sim.Interp run of each
// original, outside the row, gives the functional simulator's speed.
func traceTable(seed int64) (*tableLayers, error) {
	l := &tableLayers{}
	reg := obs.NewRegistry()
	start := time.Now()
	for _, t := range tables {
		c := tableConfig(t, sweepSeed(seed, 0))
		c.Obs = reg
		if _, err := bench.RunTable(c); err != nil {
			return nil, err
		}
	}
	l.tracedSweep = time.Since(start)
	for _, sp := range reg.Spans() {
		if strings.HasPrefix(sp.Name, "bench.row.") {
			l.rowMs = append(l.rowMs, float64(sp.WallNs)/1e6)
		}
	}
	for ti, t := range tables {
		c := tableConfig(t, sweepSeed(seed, 0))
		model, err := spawn.Load(c.Machine)
		if err != nil {
			return nil, err
		}
		meas := sim.NewMeasurer(model, sim.DefaultTiming(c.Machine))
		for _, b := range workload.Suite(c.Machine) {
			row, err := l.traceRow(c, b, model, meas)
			if err != nil {
				return nil, fmt.Errorf("traced row %s: %w", b.Name, err)
			}
			row.table = fmt.Sprint(ti + 1)
			l.rows = append(l.rows, row)
		}
	}
	return l, nil
}

func (l *tableLayers) traceRow(c bench.TableConfig, b workload.Benchmark, model *spawn.Model, meas *sim.Measurer) (rowLayers, error) {
	row := rowLayers{name: b.Name}
	maxSteps := 40*c.DynamicInsts + 1_000_000
	t := time.Now()
	orig, err := workload.Generate(b, workload.Config{Machine: c.Machine, DynamicInsts: c.DynamicInsts, Seed: c.Seed})
	l.generate += time.Since(t)
	if err != nil {
		return row, err
	}
	if _, err := workload.MeasureAvgBlockSize(orig, 300_000); err != nil {
		return row, err
	}
	row.workload = time.Since(t)

	t = time.Now()
	in, err := sim.NewInterp(orig)
	if err != nil {
		return row, err
	}
	res, err := in.Run(maxSteps, nil)
	l.funcTime += time.Since(t)
	l.funcSteps += res.Steps
	if err != nil {
		return row, err
	}

	t = time.Now()
	base := orig
	if c.RescheduleBaseline {
		ed, err := eel.Open(orig)
		if err != nil {
			return row, err
		}
		base, err = ed.Reschedule(model, c.Sched)
		ed.Close()
		if err != nil {
			return row, err
		}
	}
	ed, err := eel.Open(base)
	if err != nil {
		return row, err
	}
	defer ed.Close()
	profInst, profSched := &qpt.SlowProfiler{}, &qpt.SlowProfiler{}
	instExe, err := ed.Edit(profInst, eel.Options{})
	if err != nil {
		return row, err
	}
	schedExe, err := ed.Edit(profSched, eel.Options{Machine: model, Schedule: true, Sched: c.Sched})
	if err != nil {
		return row, err
	}
	row.eel = time.Since(t)

	legs := []*exe.Exe{orig, instExe, schedExe}
	if c.RescheduleBaseline {
		legs = append(legs, base)
	}
	runs := make([]*sim.Interp, len(legs))
	defer func() {
		for _, in := range runs {
			meas.Release(in, nil)
		}
	}()
	for i, x := range legs {
		t = time.Now()
		in, tm, res, err := meas.Run(x, maxSteps)
		row.simTimed += time.Since(t)
		if err != nil {
			return row, err
		}
		meas.Release(nil, tm)
		runs[i] = in
		if !res.Halted {
			return row, fmt.Errorf("%s run did not halt", b.Name)
		}
		row.steps += res.Steps
	}

	t = time.Now()
	a, err := profInst.Counts(runs[1].Mem().Read32)
	if err != nil {
		return row, err
	}
	bc, err := profSched.Counts(runs[2].Mem().Read32)
	if err != nil {
		return row, err
	}
	row.qpt = time.Since(t)
	for blk, v := range a {
		if bc[blk] != v {
			return row, fmt.Errorf("block %d counts diverge: %d vs %d", blk, v, bc[blk])
		}
	}
	return row, nil
}

// metrics reports the per-layer figures. The untraced operation is a
// sweep, which runs rows and legs in parallel, so the traced rows' serial
// layer self-times are compared with its CPU time rather than its wall.
func (l *tableLayers) metrics(m metrics, r *tableResult) {
	var work, simT, total time.Duration
	var steps uint64
	for _, row := range l.rows {
		work += row.workload
		simT += row.simTimed
		total += row.total()
		steps += row.steps
	}
	m.set("workload.generate_ms", ms(l.generate)/float64(len(l.rows)))
	m.set("workload.share", ratio(work.Seconds(), total.Seconds()))
	m.set("sim.timed_minst_per_s", float64(steps)/simT.Seconds()/1e6)
	m.set("sim.func_minst_per_s", float64(l.funcSteps)/l.funcTime.Seconds()/1e6)
	m.set("sim.share", ratio(simT.Seconds(), total.Seconds()))
	m.set("bench.row_ms_p50", quantile(l.rowMs, 0.5))
	m.set("bench.row_ms_max", quantile(l.rowMs, 1))
	m.set("rows_per_s", float64(r.rows)/float64(len(r.sweepSec))/median(r.sweepSec))
	m.set("table.unattributed_ms", 1e3*median(r.sweepCPU)-ms(total))
	m.set("table.trace_overhead_ms", ms(l.tracedSweep)-1e3*median(r.sweepSec))
}

// printRows writes the per-row breakdown, slowest first, to stderr.
func (l *tableLayers) printRows() {
	rows := append([]rowLayers(nil), l.rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].total() > rows[j].total() })
	fmt.Fprintf(os.Stderr, "%-5s %-13s %9s %9s %9s %9s %9s\n",
		"table", "row", "total_ms", "sim_ms", "wkld_ms", "eel_ms", "qpt_ms")
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "%-5s %-13s %9.2f %9.2f %9.2f %9.2f %9.3f\n",
			r.table, r.name, ms(r.total()), ms(r.simTimed), ms(r.workload), ms(r.eel), ms(r.qpt))
	}
}
