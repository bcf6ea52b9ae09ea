package bench

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"eel/internal/obs"
	"eel/internal/sim"
	"eel/internal/spawn"
	"eel/internal/workload"
)

func suiteNames(machine spawn.Machine) []string {
	var names []string
	for _, b := range workload.Suite(machine) {
		names = append(names, b.Name)
	}
	return names
}

// TestSweepSuiteOrder checks that rows land in suite order at every
// width, even when later rows finish first.
func TestSweepSuiteOrder(t *testing.T) {
	want := suiteNames(spawn.UltraSPARC)
	for _, workers := range []int{1, 2, 4} {
		got, err := Sweep(spawn.UltraSPARC, nil, workers, nil,
			func(b workload.Benchmark, _ *spawn.Model, _ *sim.Measurer) (string, error) {
				if !b.FP {
					time.Sleep(time.Millisecond)
				}
				return b.Name, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("workers=%d: rows %v, want %v", workers, got, want)
		}
	}
}

// TestSweepSubsetOrder checks that a subset comes back in suite order,
// not in the order it was named.
func TestSweepSubsetOrder(t *testing.T) {
	got, err := Sweep(spawn.UltraSPARC, []string{"102.swim", "130.li", "102.swim"}, 2, nil,
		func(b workload.Benchmark, _ *spawn.Model, _ *sim.Measurer) (string, error) {
			return b.Name, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"130.li", "102.swim"}; !slices.Equal(got, want) {
		t.Errorf("rows %v, want %v", got, want)
	}
}

// TestSweepLowestIndexErrorWins fails two rows, the lower one slowly,
// and checks that its error is the one returned at every width.
func TestSweepLowestIndexErrorWins(t *testing.T) {
	names := suiteNames(spawn.UltraSPARC)
	low, high := names[2], names[5]
	for _, workers := range []int{1, 2, 4} {
		_, err := Sweep(spawn.UltraSPARC, nil, workers, nil,
			func(b workload.Benchmark, _ *spawn.Model, _ *sim.Measurer) (int, error) {
				switch b.Name {
				case low:
					time.Sleep(5 * time.Millisecond)
					return 0, fmt.Errorf("row %s failed", b.Name)
				case high:
					return 0, fmt.Errorf("row %s failed", b.Name)
				}
				return 0, nil
			})
		if want := "row " + low + " failed"; err == nil || err.Error() != want {
			t.Errorf("workers=%d: err = %v, want %q", workers, err, want)
		}
	}
}

// TestSweepRegistry checks that a registry receives a span per row and
// reaches the measurers, and that a nil registry records nothing and
// does not panic.
func TestSweepRegistry(t *testing.T) {
	names := []string{"130.li", "102.swim"}
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		_, err := Sweep(spawn.UltraSPARC, names, 2, reg,
			func(b workload.Benchmark, _ *spawn.Model, meas *sim.Measurer) (int, error) {
				if meas.Obs != reg {
					return 0, fmt.Errorf("%s: measurer registry %p, want %p", b.Name, meas.Obs, reg)
				}
				return 0, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if reg == nil {
			continue
		}
		e := reg.Snapshot()
		var spans []string
		for _, sp := range e.Spans {
			spans = append(spans, sp.Name)
		}
		slices.Sort(spans)
		if want := []string{"bench.row.102.swim", "bench.row.130.li"}; !slices.Equal(spans, want) {
			t.Errorf("spans %v, want %v", spans, want)
		}
		if h := e.Histograms["bench.row_millis"]; h.Count != 2 {
			t.Errorf("bench.row_millis count = %d, want 2", h.Count)
		}
		if _, ok := e.Extras["slowest_rows"]; !ok {
			t.Error("no slowest_rows extra")
		}
	}
}

func TestMachines(t *testing.T) {
	got, err := Machines("ultrasparc, hypersparc")
	if err != nil {
		t.Fatal(err)
	}
	if want := []spawn.Machine{spawn.UltraSPARC, spawn.HyperSPARC}; !slices.Equal(got, want) {
		t.Errorf("Machines = %v, want %v", got, want)
	}
	if got, err := Machines(""); err != nil || !slices.Equal(got, spawn.Machines()) {
		t.Errorf(`Machines("") = %v, %v; want every model`, got, err)
	}
	_, err = Machines("ultrasparc,bogus,foo")
	if want := "bench: unknown machines: bogus, foo (valid: hypersparc, supersparc, ultrasparc)"; err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}
