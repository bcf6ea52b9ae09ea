package bench

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eel/internal/exe"
	"eel/internal/obs"
	"eel/internal/sim"
	"eel/internal/spawn"
	"eel/internal/workload"
)

// Sweep is the evaluation sweep of §4.2 that RunTable, cmd/schedgap and
// cmd/schedloop share: it runs row once per benchmark of machine's suite
// and returns the results in suite order. names restricts the suite (nil
// = all 18); unknown names are one error listing each of them and the
// valid names. Rows fan out over workers goroutines (0 = GOMAXPROCS);
// rows are independent experiments, so the result is identical for any
// worker count. row gets the machine's loaded model and the calling
// worker's measurer, whose pooled simulator state is reused across that
// worker's rows; rows run concurrently, so row must not share mutable
// state between calls. reg, when non-nil, receives a bench.row.<name>
// span per row, the bench.row_millis histogram, the slowest_rows extra
// and the measurers' simulator telemetry.
func Sweep[R any](machine spawn.Machine, names []string, workers int, reg *obs.Registry,
	row func(b workload.Benchmark, model *spawn.Model, meas *sim.Measurer) (R, error)) ([]R, error) {
	list, err := suiteSubset(machine, names)
	if err != nil {
		return nil, err
	}
	model, err := spawn.Load(machine)
	if err != nil {
		return nil, err
	}
	tcfg := sim.DefaultTiming(machine)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(list))

	// Workers claim row indices from an atomic counter, so claims happen
	// in index order. The first error is deterministic: if row i is the
	// lowest-index failure, every lower row succeeds and no higher row can
	// set failed before i is claimed, so errs[i] is always populated and
	// the in-order scan below always returns it. failed only short-
	// circuits *new* claims after an error.
	rows := make([]R, len(list))
	errs := make([]error, len(list))
	rowSecs := make([]float64, len(list)) // wall time per row, for slowest_rows
	rowHist := reg.Histogram("bench.row_millis", obs.ExpBuckets(8, 16))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker measurer: loaded model shared, interpreter and
			// timing state pooled across this worker's rows.
			meas := sim.NewMeasurer(model, tcfg)
			meas.Obs = reg
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					return
				}
				span := reg.StartSpan("bench.row." + list[i].Name)
				start := time.Now()
				r, err := row(list[i], model, meas)
				rowSecs[i] = time.Since(start).Seconds()
				span.End()
				rowHist.Observe(int64(rowSecs[i] * 1000))
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				rows[i] = r
			}
		}()
	}
	wg.Wait()
	recordSlowestRows(reg, list, rowSecs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// suiteSubset resolves names against machine's suite, keeping suite
// order; nil names select the whole suite.
func suiteSubset(machine spawn.Machine, names []string) ([]workload.Benchmark, error) {
	suite := workload.Suite(machine)
	if len(names) == 0 {
		return suite, nil
	}
	valid := make([]string, len(suite))
	for i, b := range suite {
		valid[i] = b.Name
	}
	if err := checkNames("benchmarks", names, valid); err != nil {
		return nil, err
	}
	return slices.DeleteFunc(suite, func(b workload.Benchmark) bool {
		return !slices.Contains(names, b.Name)
	}), nil
}

// Machines resolves a comma-separated -machines flag value, keeping its
// order; "" selects every machine model.
func Machines(flag string) ([]spawn.Machine, error) {
	var valid []string
	for _, m := range spawn.Machines() {
		valid = append(valid, string(m))
	}
	names := SplitList(flag)
	if err := checkNames("machines", names, valid); err != nil {
		return nil, err
	}
	if names == nil {
		names = valid
	}
	machines := make([]spawn.Machine, len(names))
	for i, name := range names {
		machines[i] = spawn.Machine(name)
	}
	return machines, nil
}

// SplitList splits a comma-separated -benchmarks or -machines flag value
// into trimmed names; "" is nil, which selects everything.
func SplitList(flag string) []string {
	if flag == "" {
		return nil
	}
	names := strings.Split(flag, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names
}

// checkNames returns one error naming every entry of names that is not
// in valid, and listing valid.
func checkNames(kind string, names, valid []string) error {
	var unknown []string
	for _, name := range names {
		if !slices.Contains(valid, name) {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	return fmt.Errorf("bench: unknown %s: %s (valid: %s)",
		kind, strings.Join(unknown, ", "), strings.Join(valid, ", "))
}

// Cycles simulates x on meas and returns its cycle count; a run that
// does not halt within maxSteps is an error.
func Cycles(meas *sim.Measurer, x *exe.Exe, maxSteps uint64) (int64, error) {
	in, tm, res, err := meas.Run(x, maxSteps)
	if err != nil {
		return 0, err
	}
	defer meas.Release(in, tm)
	if !res.Halted {
		return 0, fmt.Errorf("simulation did not halt within %d steps", maxSteps)
	}
	return tm.Cycles(), nil
}

// Pct is 100*num/den rounded to 4 decimals (0 when den is 0), so report
// goldens stay readable and stable.
func Pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return math.Round(1e4*100*float64(num)/float64(den)) / 1e4
}

// SlowRow is one entry of the slowest_rows extra: a benchmark row and
// the wall time Sweep spent on it (all measurement legs included).
type SlowRow struct {
	Name   string  `json:"name"`
	Millis float64 `json:"millis"`
}

// recordSlowestRows attaches the top-5 wall-time rows to the registry,
// so a -metrics export answers "what made this run slow" directly.
func recordSlowestRows(reg *obs.Registry, list []workload.Benchmark, rowSecs []float64) {
	if reg == nil {
		return
	}
	slow := make([]SlowRow, 0, len(list))
	for i := range list {
		if rowSecs[i] > 0 {
			slow = append(slow, SlowRow{Name: list[i].Name, Millis: rowSecs[i] * 1000})
		}
	}
	sort.Slice(slow, func(a, b int) bool {
		if slow[a].Millis != slow[b].Millis {
			return slow[a].Millis > slow[b].Millis
		}
		return slow[a].Name < slow[b].Name
	})
	if len(slow) > 5 {
		slow = slow[:5]
	}
	reg.PutExtra("slowest_rows", slow)
}
