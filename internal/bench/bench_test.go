package bench

import (
	"bytes"
	"strings"
	"testing"

	"eel/internal/spawn"
)

// small returns a fast configuration for tests.
func small(machine spawn.Machine) TableConfig {
	return TableConfig{
		Machine:        machine,
		DynamicInsts:   120_000,
		ValidateCounts: true,
	}
}

func TestRunBenchmarkInvariants(t *testing.T) {
	cfg := small(spawn.UltraSPARC)
	for _, name := range []string{"130.li", "101.tomcatv"} {
		cfg.Benchmarks = []string{name}
		tab, err := RunTable(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 1 {
			t.Fatalf("rows = %d", len(tab.Rows))
		}
		r := tab.Rows[0]
		if r.UninstCycles <= 0 || r.InstCycles <= 0 || r.SchedCycles <= 0 {
			t.Errorf("%s: non-positive cycles: %+v", name, r)
		}
		// Instrumentation always costs.
		if r.InstCycles <= r.BaseCycles {
			t.Errorf("%s: instrumented not slower than baseline", name)
		}
		// Scheduling must not make the instrumented binary slower by more
		// than noise.
		if float64(r.SchedCycles) > float64(r.InstCycles)*1.05 {
			t.Errorf("%s: scheduling hurt badly: %d -> %d", name, r.InstCycles, r.SchedCycles)
		}
		if r.InstRatio <= 1 {
			t.Errorf("%s: inst ratio %.2f <= 1", name, r.InstRatio)
		}
		if r.AvgBB <= 1 {
			t.Errorf("%s: avg block size %.2f", name, r.AvgBB)
		}
	}
}

func TestRescheduleBaselineMode(t *testing.T) {
	cfg := small(spawn.UltraSPARC)
	cfg.RescheduleBaseline = true
	cfg.Benchmarks = []string{"101.tomcatv"}
	tab, err := RunTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := tab.Rows[0]
	if r.RescheduleRatio <= 0 {
		t.Errorf("reschedule ratio = %f", r.RescheduleRatio)
	}
	// The baseline must be the rescheduled binary, not the original.
	if r.BaseCycles == r.UninstCycles && r.RescheduleRatio == 1.0 {
		t.Log("rescheduling was a no-op on this input (acceptable but unusual)")
	}
}

func TestTableAveragesAndString(t *testing.T) {
	cfg := small(spawn.UltraSPARC)
	cfg.Benchmarks = []string{"130.li", "101.tomcatv"}
	tab, err := RunTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ii, is, _, n := tab.Averages(false)
	if n != 1 || ii <= 1 || is <= 1 {
		t.Errorf("integer averages: %f %f n=%d", ii, is, n)
	}
	_, _, _, fn := tab.Averages(true)
	if fn != 1 {
		t.Errorf("fp count = %d", fn)
	}
	s := tab.String()
	for _, want := range []string{"130.li", "101.tomcatv", "CINT95 Average", "CFP95 Average", "%"} {
		if !strings.Contains(s, want) {
			t.Errorf("table rendering lacks %q:\n%s", want, s)
		}
	}
}

func TestCFPHidesMoreThanCINT(t *testing.T) {
	// The paper's central comparison: scheduling hides more of the
	// overhead in floating-point programs (large blocks) than integer
	// programs (small blocks), and instrumentation slows integer programs
	// down much more.
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := small(spawn.UltraSPARC)
	cfg.Benchmarks = []string{"130.li", "147.vortex", "102.swim", "107.mgrid"}
	tab, err := RunTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	intInst, _, intHid, _ := tab.Averages(false)
	fpInst, _, fpHid, _ := tab.Averages(true)
	if intInst <= fpInst {
		t.Errorf("instrumentation should cost integer programs more: int %.2f vs fp %.2f",
			intInst, fpInst)
	}
	if fpHid <= intHid {
		t.Errorf("scheduling should hide more in fp programs: fp %.1f%% vs int %.1f%%",
			fpHid, intHid)
	}
}

func TestDisablePlacementOptCostsMore(t *testing.T) {
	cfg := small(spawn.UltraSPARC)
	cfg.Benchmarks = []string{"130.li"}
	opt, err := RunTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisablePlacementOpt = true
	noopt, err := RunTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if noopt.Rows[0].InstCycles <= opt.Rows[0].InstCycles {
		t.Errorf("disabling placement optimization should cost cycles: %d vs %d",
			noopt.Rows[0].InstCycles, opt.Rows[0].InstCycles)
	}
}

func TestUnknownBenchmarksAreAnError(t *testing.T) {
	cfg := small(spawn.UltraSPARC)
	cfg.Benchmarks = []string{"130.li", "999.nothere", "000.bogus"}
	_, err := RunTable(cfg)
	if err == nil {
		t.Fatal("unknown benchmark names were silently ignored")
	}
	// The error names exactly the unknown benchmarks, then the valid ones.
	unknown, valid, ok := strings.Cut(err.Error(), " (valid: ")
	if want := "bench: unknown benchmarks: 999.nothere, 000.bogus"; unknown != want {
		t.Errorf("error %q names %q as unknown, want %q", err, unknown, want)
	}
	if !ok || !strings.Contains(valid, "130.li") {
		t.Errorf("error %q does not list the valid benchmarks", err)
	}
}

func TestRunTableDeterministicAcrossWorkers(t *testing.T) {
	cfg := small(spawn.UltraSPARC)
	cfg.DynamicInsts = 60_000
	cfg.Benchmarks = []string{"130.li", "101.tomcatv", "147.vortex"}
	var out [2]bytes.Buffer
	for i, workers := range []int{1, 4} {
		cfg.TableWorkers = workers
		tab, err := RunTable(cfg)
		if err != nil {
			t.Fatalf("tableworkers=%d: %v", workers, err)
		}
		if err := tab.WriteJSON(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Errorf("JSON output differs between tableworkers=1 and 4:\n%s\n---\n%s",
			out[0].String(), out[1].String())
	}
}
