// Command perfbench is the repository's benchmark. It runs one workload
// (edit, table or eeld) for --seconds, checks every output it produced
// against a reference that does not come from the code under test, and
// prints one JSON result line: the end-to-end metrics, or with --trace 1
// the per-layer ones. README.md records why each workload exists and
// which per-layer metric should move which end-to-end metric.
//
//	go run . --workload edit --seed 1 --seconds 34 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"eel/internal/spawn"
)

// Every run drives all three paths, so every workload reports every
// metric; the workload names the path that gets primaryShare of the
// measured time, the other two splitting the rest.
const (
	primaryShare = 0.4
	// setupReps is how many times a run sets up, keeping the last;
	// setup_s is their median.
	setupReps = 3
)

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"alloc_kb_per_op", "KiB"},
	{"edit_kinst_per_s", "kinst/s"},
	{"edit_ms_p50", "ms"},
	{"edit_ms_p90", "ms"},
	{"code_growth", "ratio"},
	{"pct_hidden_int", "%"},
	{"pct_hidden_fp", "%"},
	{"sched_ratio_int", "ratio"},
	{"sched_ratio_fp", "ratio"},
	{"sched_req_ms_p50", "ms"},
	{"sched_req_ms_p90", "ms"},
	{"edit_req_ms_p50", "ms"},
	{"edit_req_ms_p90", "ms"},
}

var perLayer = []metricDef{
	{"workload.generate_ms", "ms"},
	{"workload.share", "fraction"},
	{"exe.unmarshal_us", "us"},
	{"exe.marshal_us", "us"},
	{"sparc.decode_minst_per_s", "Minst/s"},
	{"cfg.build_us", "us"},
	{"cfg.blocks", "count"},
	{"qpt.instrumented_ratio", "ratio"},
	{"core.schedule_ms", "ms"},
	{"core.us_per_block", "us"},
	{"core.blocks", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"eel.edit_ms", "ms"},
	{"eel.edit_unscheduled_ms", "ms"},
	{"sim.timed_minst_per_s", "Minst/s"},
	{"sim.func_minst_per_s", "Minst/s"},
	{"sim.share", "fraction"},
	{"bench.row_ms_p50", "ms"},
	{"bench.row_ms_max", "ms"},
	{"rows_per_s", "rows/s"},
	{"daemon.admit_wait_ms", "ms"},
	{"daemon.decode_ms", "ms"},
	{"daemon.batch_queue_ms", "ms"},
	{"daemon.editor_lookup_ms", "ms"},
	{"daemon.eel_edit_ms", "ms"},
	{"daemon.encode_ms", "ms"},
	{"daemon.batch_blocks_mean", "count"},
	{"daemon.cache_hit_ratio", "ratio"},
	{"daemon.editor_hit_ratio", "ratio"},
	{"loadgen.late_ms_p90", "ms"},
	{"loadgen.offered_rps", "1/s"},
	{"loadgen.achieved_rps", "1/s"},
	{"error_rate", "fraction"},
	{"edit.unattributed_ms", "ms"},
	{"edit.trace_overhead_ms", "ms"},
	{"table.unattributed_ms", "ms"},
	{"table.trace_overhead_ms", "ms"},
	{"eeld.unattributed_ms", "ms"},
	{"eeld.trace_overhead_ms", "ms"},
}

var units = func() map[string]string {
	u := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: edit, table or eeld")
	seed := flag.Int64("seed", 1, "seed every generated input is drawn from")
	seconds := flag.Float64("seconds", 34, "measured seconds of the run")
	trace := flag.Int("trace", 0, "1 for a traced run that reports the per-layer metrics")
	flag.Parse()
	res, err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds time.Duration, traced bool) (*result, error) {
	switch workload {
	case "edit", "table", "eeld":
	default:
		return nil, fmt.Errorf("unknown --workload %q (want edit, table or eeld)", workload)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	budget := func(path string) time.Duration {
		share := (1 - primaryShare) / 2
		if path == workload {
			share = primaryShare
		}
		if traced {
			share /= 2 // the other half goes to the traced re-runs
		}
		return time.Duration(share * float64(seconds))
	}
	models := make(map[spawn.Machine]*spawn.Model)
	for _, m := range spawn.Machines() {
		md, err := spawn.Load(m)
		if err != nil {
			return nil, err
		}
		models[m] = md
	}

	// Set-up: generate the inputs, boot the daemon and warm it.
	var setup []float64
	var in *inputs
	var d *daemonHandle
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if in, err = genInputs(seed, budget("eeld")); err != nil {
			return nil, err
		}
		if d, err = startDaemon(nil); err != nil {
			return nil, err
		}
		if err := d.warm(in); err != nil {
			d.stop()
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	fmt.Printf("perfbench: workload=%s seed=%d inputs: %d images, %d requests, sha256 %s\n",
		workload, seed, len(in.corpus), len(in.stream), in.digest())

	res, err := measure(workload, seed, in, d, models, budget, traced)
	if serr := d.stop(); err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	want := perLayer
	if !traced {
		res.Metrics.set("setup_s", median(setup))
		want = endToEnd
	}
	for _, def := range want {
		if _, ok := res.Metrics[def.name]; !ok {
			return nil, fmt.Errorf("metric %s not measured", def.name)
		}
	}
	return res, nil
}

// measure runs the three paths against a set-up run, checks their
// outputs, and in a traced run re-runs each path traced.
func measure(workload string, seed int64, in *inputs, d *daemonHandle, models map[spawn.Machine]*spawn.Model,
	budget func(string) time.Duration, traced bool) (*result, error) {
	er, err := runEeld(d, in, budget("eeld"))
	if err != nil {
		return nil, err
	}
	ed, err := runEdit(in, models, budget("edit"))
	if err != nil {
		return nil, err
	}
	tr, err := runTable(seed, budget("table"))
	if err != nil {
		return nil, err
	}

	res := &result{
		Correct:   true,
		Attempted: len(er.res) + ed.ops + tr.rows,
		Failed:    er.failed(),
		Metrics:   metrics{},
	}
	fail := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		res.Correct = false
	}
	if err := checkEdits(in, ed); err != nil {
		fail("edit check", err)
	}
	if err := er.check(in); err != nil {
		fail("eeld check", err)
	}
	if late, offered, _, valid := er.loadgen(); !valid {
		fail("eeld", fmt.Errorf("run invalid: the load generator fell behind (late p90 %.2f ms, offered %.1f/s of %.0f/s)",
			late, offered, eeldRate))
	}

	m := res.Metrics
	if !traced {
		var alloc float64
		switch workload {
		case "edit":
			alloc = float64(ed.alloc) / float64(ed.ops)
		case "table":
			alloc = float64(tr.alloc) / float64(tr.rows)
		case "eeld":
			alloc = float64(er.alloc) / float64(len(er.res))
		}
		m.set("alloc_kb_per_op", alloc/1024)
		ed.metrics(m, in)
		tr.metrics(m)
		er.metrics(m)
		return res, nil
	}

	el, err := traceEdit(in, models)
	if err != nil {
		return nil, err
	}
	el.metrics(m, mean(ed.imageLatency()))
	tl, err := traceTable(seed)
	if err != nil {
		return nil, err
	}
	tl.metrics(m, tr)
	tl.printRows()
	ter, flight, err := traceEeld(in, budget("eeld"))
	if err != nil {
		return nil, err
	}
	er.layerMetrics(m, ter, flight)
	return res, nil
}
