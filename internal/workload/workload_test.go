package workload

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"eel/internal/sim"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

func TestSuiteShape(t *testing.T) {
	s := Suite(spawn.UltraSPARC)
	if len(s) != 18 {
		t.Fatalf("suite has %d benchmarks, want 18", len(s))
	}
	if len(IntSuite(spawn.UltraSPARC)) != 8 || len(FPSuite(spawn.UltraSPARC)) != 10 {
		t.Error("suite split wrong")
	}
	for _, b := range s {
		if b.AvgBlockSize < 1.5 || b.Kernels <= 0 || b.Inner <= 0 {
			t.Errorf("%s: bad descriptor %+v", b.Name, b)
		}
	}
	// The compilations differ: swim's block size is larger on SuperSPARC.
	u, _ := ByName("102.swim", spawn.UltraSPARC)
	sp, _ := ByName("102.swim", spawn.SuperSPARC)
	if u.AvgBlockSize != 49.0 || sp.AvgBlockSize != 66.1 {
		t.Errorf("swim sizes: ultra %.1f super %.1f", u.AvgBlockSize, sp.AvgBlockSize)
	}
	if _, ok := ByName("nope", spawn.UltraSPARC); ok {
		t.Error("ByName(nope) succeeded")
	}
}

func TestGenerateRunsAndHalts(t *testing.T) {
	for _, name := range []string{"130.li", "129.compress", "102.swim", "104.hydro2d"} {
		b, ok := ByName(name, spawn.UltraSPARC)
		if !ok {
			t.Fatal(name)
		}
		x, err := Generate(b, Config{DynamicInsts: 150_000, SkipCalibration: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in, err := sim.NewInterp(x)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := in.Run(3_000_000, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Halted {
			t.Errorf("%s: did not halt", name)
		}
		if res.Steps < 50_000 {
			t.Errorf("%s: suspiciously short run: %d steps", name, res.Steps)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	b, _ := ByName("130.li", spawn.UltraSPARC)
	cfg := Config{DynamicInsts: 100_000, Seed: 5, SkipCalibration: true}
	x1, err := Generate(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := Generate(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x1.Marshal(), x2.Marshal()) {
		t.Error("generation is not deterministic")
	}
	x3, err := Generate(b, Config{DynamicInsts: 100_000, Seed: 6, SkipCalibration: true})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(x1.Marshal(), x3.Marshal()) {
		t.Error("different seeds produced identical programs")
	}
}

func TestCalibratedBlockSizes(t *testing.T) {
	// Calibration must land the measured dynamic block size near the
	// paper's column for a representative mix of benchmarks.
	for _, name := range []string{"130.li", "099.go", "132.ijpeg", "101.tomcatv", "102.swim"} {
		b, ok := ByName(name, spawn.UltraSPARC)
		if !ok {
			t.Fatal(name)
		}
		x, err := Generate(b, Config{DynamicInsts: 300_000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := MeasureAvgBlockSize(x, 250_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tol := 0.15
		if rel := math.Abs(got-b.AvgBlockSize) / b.AvgBlockSize; rel > tol {
			t.Errorf("%s: measured block size %.2f, want %.1f (±%.0f%%)",
				name, got, b.AvgBlockSize, tol*100)
		}
	}
}

func TestFPContent(t *testing.T) {
	b, _ := ByName("102.swim", spawn.UltraSPARC)
	x, err := Generate(b, Config{DynamicInsts: 100_000, SkipCalibration: true})
	if err != nil {
		t.Fatal(err)
	}
	insts, err := sparc.DecodeAll(x.Text)
	if err != nil {
		t.Fatal(err)
	}
	fp, intish := 0, 0
	for _, inst := range insts {
		if inst.Op.IsFP() {
			fp++
		} else {
			intish++
		}
	}
	if fp == 0 || float64(fp)/float64(fp+intish) < 0.3 {
		t.Errorf("fp benchmark has %d fp of %d instructions", fp, fp+intish)
	}

	ib, _ := ByName("130.li", spawn.UltraSPARC)
	ix, err := Generate(ib, Config{DynamicInsts: 100_000, SkipCalibration: true})
	if err != nil {
		t.Fatal(err)
	}
	iinsts, err := sparc.DecodeAll(ix.Text)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range iinsts {
		if inst.Op.IsFP() {
			t.Fatalf("integer benchmark contains fp instruction %v", inst)
		}
	}
}

func TestReservedRegistersUntouched(t *testing.T) {
	// Generated code must never write %g6/%g7 (QPT's scratch registers)
	// or the base registers.
	b, _ := ByName("126.gcc", spawn.UltraSPARC)
	x, err := Generate(b, Config{DynamicInsts: 100_000, SkipCalibration: true})
	if err != nil {
		t.Fatal(err)
	}
	insts, err := sparc.DecodeAll(x.Text)
	if err != nil {
		t.Fatal(err)
	}
	reserved := map[sparc.Reg]bool{
		sparc.G6: true, sparc.G7: true, sparc.SP: true,
	}
	for i, inst := range insts {
		for _, d := range inst.Defs(nil) {
			if reserved[d] {
				t.Fatalf("instruction %d (%v) writes reserved register %s", i, inst, d)
			}
		}
	}
}

func TestPrescheduleAblation(t *testing.T) {
	b, _ := ByName("101.tomcatv", spawn.UltraSPARC)
	raw, err := Generate(b, Config{DynamicInsts: 100_000, SkipCalibration: true, SkipPreschedule: true})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Generate(b, Config{DynamicInsts: 100_000, SkipCalibration: true})
	if err != nil {
		t.Fatal(err)
	}
	model := spawn.MustLoad(spawn.UltraSPARC)
	cfg := sim.DefaultTiming(spawn.UltraSPARC)
	_, rawT, _, err := sim.RunMeasured(raw, model, cfg, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	_, optT, _, err := sim.RunMeasured(opt, model, cfg, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// The compiled (pre-scheduled) version must not be slower per
	// instruction; it usually wins noticeably on FP code.
	rawCPI := float64(rawT.Cycles()) / float64(rawT.Instructions())
	optCPI := float64(optT.Cycles()) / float64(optT.Instructions())
	if optCPI > rawCPI*1.02 {
		t.Errorf("prescheduling hurt: CPI %.3f -> %.3f", rawCPI, optCPI)
	}
}

func TestMeasureAvgBlockSizeErrors(t *testing.T) {
	b, _ := ByName("130.li", spawn.UltraSPARC)
	x, err := Generate(b, Config{DynamicInsts: 50_000, SkipCalibration: true})
	if err != nil {
		t.Fatal(err)
	}
	// A tiny cap still yields a measurement.
	if _, err := MeasureAvgBlockSize(x, 1_000); err != nil {
		t.Errorf("capped measurement failed: %v", err)
	}
}

// TestPricerResetMatchesFresh: the compiler prices every block on one
// pipeline, Reset in between. That must price exactly as a fresh
// pipeline per block does, on every machine, CTIs included (a CTI ends
// a SuperSPARC group, which leaves a fetch floor behind).
func TestPricerResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range spawn.Machines() {
		model := spawn.MustLoad(m)
		rules := sim.MachineRules(m)
		c := newCompilerScheduler(model, rules)
		for i := 0; i < 500; i++ {
			block := RandomBlock(rng, 1+rng.Intn(24), rng.Intn(3) == 0)
			if rng.Intn(2) == 0 {
				block = append(block, sparc.NewBranch(sparc.CondNE, -4), sparc.NewNop())
			}
			got, err := c.cost(block)
			if err != nil {
				t.Fatal(err)
			}
			fresh := sim.NewHWPipeline(model, rules)
			var want int64
			for _, inst := range block {
				if _, want, err = fresh.Issue(inst); err != nil {
					t.Fatal(err)
				}
			}
			if got != want {
				t.Fatalf("%s block %d: reset pipeline prices %d, fresh %d: %v", m, i, got, want, block)
			}
		}
	}
}
