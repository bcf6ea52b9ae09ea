package pipe

import (
	"math/rand"
	"os"
	"testing"

	"eel/internal/sparc"
	"eel/internal/spawn"
	ultra "eel/internal/spawn/gen/ultrasparc"
)

func hyperState() *State { return NewState(spawn.MustLoad(spawn.HyperSPARC)) }
func superState() *State { return NewState(spawn.MustLoad(spawn.SuperSPARC)) }
func ultraState() *State { return NewState(spawn.MustLoad(spawn.UltraSPARC)) }

func issue(t *testing.T, s *State, inst sparc.Inst) (int, int64) {
	t.Helper()
	stalls, cycle, err := s.Issue(inst)
	if err != nil {
		t.Fatalf("Issue(%v): %v", inst, err)
	}
	return stalls, cycle
}

func TestDualIssueIndependent(t *testing.T) {
	// An ALU op and a load are served by different units, so the
	// hyperSPARC dual-issues them.
	s := hyperState()
	_, c1 := issue(t, s, sparc.NewALUImm(sparc.OpAdd, sparc.G1, sparc.G1, 1))
	st2, c2 := issue(t, s, sparc.NewLoad(sparc.OpLd, sparc.G2, sparc.G3, 0))
	if c1 != 0 || c2 != 0 || st2 != 0 {
		t.Errorf("add+load should dual-issue: c1=%d c2=%d stalls2=%d", c1, c2, st2)
	}
	// A third instruction cannot join the 2-wide group.
	st3, c3 := issue(t, s, sparc.NewLoadIdx(sparc.OpLd, sparc.G4, sparc.G5, sparc.G6))
	if c3 == 0 {
		t.Errorf("third instruction issued in cycle 0 (stalls=%d)", st3)
	}
}

func TestHyperSPARCSingleALU(t *testing.T) {
	// Two independent adds contend for the hyperSPARC's single ALU in
	// cycle 1, so the second one issues a cycle later.
	s := hyperState()
	_, c1 := issue(t, s, sparc.NewALU(sparc.OpAdd, sparc.G1, sparc.G2, sparc.G3))
	st2, c2 := issue(t, s, sparc.NewALU(sparc.OpSub, sparc.G4, sparc.G5, sparc.G6))
	if c1 != 0 {
		t.Errorf("first add at cycle %d", c1)
	}
	if c2 != 1 || st2 == 0 {
		t.Errorf("second ALU op should wait for the single ALU: cycle=%d stalls=%d", c2, st2)
	}
}

func TestSuperSPARCDualALU(t *testing.T) {
	s := superState()
	_, c1 := issue(t, s, sparc.NewALU(sparc.OpAdd, sparc.G1, sparc.G2, sparc.G3))
	st2, c2 := issue(t, s, sparc.NewALU(sparc.OpSub, sparc.G4, sparc.G5, sparc.G6))
	if c1 != 0 || c2 != 0 || st2 != 0 {
		t.Errorf("SuperSPARC should dual-issue ALU ops: c1=%d c2=%d stalls=%d", c1, c2, st2)
	}
	st3, c3 := issue(t, s, sparc.NewALU(sparc.OpAnd, sparc.G7, sparc.O0, sparc.O1))
	if c3 != 1 || st3 != 1 {
		t.Errorf("third ALU op: cycle=%d stalls=%d, want 1,1", c3, st3)
	}
}

func TestRAWDependentAdds(t *testing.T) {
	s := ultraState()
	_, c1 := issue(t, s, sparc.NewALUImm(sparc.OpAdd, sparc.G1, sparc.G2, 1))
	st2, c2 := issue(t, s, sparc.NewALUImm(sparc.OpAdd, sparc.G3, sparc.G1, 1))
	if c1 != 0 || c2 != 1 || st2 != 1 {
		t.Errorf("dependent add: c1=%d c2=%d stalls=%d; want 0,1,1", c1, c2, st2)
	}
}

func TestLoadUseLatency(t *testing.T) {
	// UltraSPARC: 2-cycle load-use latency.
	s := ultraState()
	issue(t, s, sparc.NewLoad(sparc.OpLd, sparc.G1, sparc.G2, 0))
	_, c2 := issue(t, s, sparc.NewALUImm(sparc.OpAdd, sparc.G3, sparc.G1, 1))
	if c2 != 2 {
		t.Errorf("UltraSPARC load-use: consumer at cycle %d, want 2", c2)
	}
	// hyperSPARC: 1-cycle load-use latency (paper §4.1).
	h := hyperState()
	issue(t, h, sparc.NewLoad(sparc.OpLd, sparc.G1, sparc.G2, 0))
	_, hc2 := issue(t, h, sparc.NewALUImm(sparc.OpAdd, sparc.G3, sparc.G1, 1))
	if hc2 != 1 {
		t.Errorf("hyperSPARC load-use: consumer at cycle %d, want 1", hc2)
	}
}

func TestSethiSameCycleUse(t *testing.T) {
	// The paper: "the sethi instruction produces a value which is available
	// at the end of cycle 0, and can be used by another instruction issued
	// in the same cycle."
	s := ultraState()
	_, c1 := issue(t, s, sparc.NewSethi(sparc.G1, 0x1000))
	st2, c2 := issue(t, s, sparc.NewALUImm(sparc.OpOr, sparc.G1, sparc.G1, 0x2f0))
	if c1 != 0 || c2 != 0 || st2 != 0 {
		t.Errorf("sethi+or should co-issue: c1=%d c2=%d stalls=%d", c1, c2, st2)
	}
}

func TestCompareBranchPairing(t *testing.T) {
	s := superState()
	_, c1 := issue(t, s, sparc.NewALUImm(sparc.OpSubcc, sparc.G0, sparc.G1, 10))
	st2, c2 := issue(t, s, sparc.NewBranch(sparc.CondNE, -4))
	if c1 != 0 || c2 != 0 || st2 != 0 {
		t.Errorf("cmp+branch should pair: c1=%d c2=%d stalls=%d", c1, c2, st2)
	}
}

func TestQPTSequenceFourCycles(t *testing.T) {
	// The paper §4.2: the 4-instruction profiling sequence (set immediate,
	// load, add, store) "can execute in 4 cycles on both SuperSPARC and
	// UltraSPARC" — issue cycles 0,0,2,3.
	for _, machine := range []spawn.Machine{spawn.SuperSPARC, spawn.UltraSPARC} {
		s := NewState(spawn.MustLoad(machine))
		seq := []sparc.Inst{
			sparc.NewSethi(sparc.G1, 0x10000),
			sparc.NewLoad(sparc.OpLd, sparc.G2, sparc.G1, 0x40),
			sparc.NewALUImm(sparc.OpAdd, sparc.G2, sparc.G2, 1),
			sparc.NewStore(sparc.OpSt, sparc.G2, sparc.G1, 0x40),
		}
		want := []int64{0, 0, 2, 3}
		for i, inst := range seq {
			_, c := issue(t, s, inst)
			if c != want[i] {
				t.Errorf("%s: inst %d (%v) at cycle %d, want %d", machine, i, inst, c, want[i])
			}
		}
	}
}

func TestStoreLSUOccupancy(t *testing.T) {
	// Stores hold the LSU for 2 cycles: a store in cycle 0 blocks a load
	// from issuing its memory cycle until the LSU frees.
	s := hyperState()
	issue(t, s, sparc.NewStore(sparc.OpSt, sparc.G1, sparc.G2, 0))
	_, c2 := issue(t, s, sparc.NewLoad(sparc.OpLd, sparc.G3, sparc.G4, 0))
	if c2 < 2 {
		t.Errorf("load after store issued at cycle %d; LSU busy for 2 cycles", c2)
	}
}

func TestWAWOrdering(t *testing.T) {
	s := ultraState()
	issue(t, s, sparc.NewALUImm(sparc.OpAdd, sparc.G1, sparc.G2, 1))
	st2, c2 := issue(t, s, sparc.NewALUImm(sparc.OpAdd, sparc.G1, sparc.G3, 1))
	if c2 == 0 {
		t.Errorf("WAW adds co-issued (stalls=%d)", st2)
	}
}

func TestWAROrdering(t *testing.T) {
	s := ultraState()
	// add reads g5 in cycle 1; a following write to g5 may not complete
	// at or before that read.
	issue(t, s, sparc.NewALU(sparc.OpAdd, sparc.G1, sparc.G5, sparc.G6))
	_, c2 := issue(t, s, sparc.NewSethi(sparc.G5, 42)) // sethi avail 1
	if c2 < 1 {
		t.Errorf("WAR: sethi overwrote g5 at cycle %d before it was read", c2)
	}
}

func TestStallsDoesNotMutate(t *testing.T) {
	s := ultraState()
	issue(t, s, sparc.NewALUImm(sparc.OpAdd, sparc.G1, sparc.G2, 1))
	dep := sparc.NewALUImm(sparc.OpAdd, sparc.G3, sparc.G1, 1)
	st1, err := s.Stalls(dep)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.Stalls(dep)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Errorf("Stalls mutated state: %d then %d", st1, st2)
	}
	stc, _ := issue(t, s, dep)
	if stc != st1 {
		t.Errorf("Issue stalls (%d) != Stalls (%d)", stc, st1)
	}
}

func TestReset(t *testing.T) {
	s := ultraState()
	issue(t, s, sparc.NewALUImm(sparc.OpAdd, sparc.G1, sparc.G2, 1))
	s.Reset()
	if s.Clock() != 0 {
		t.Errorf("Clock after Reset = %d", s.Clock())
	}
	st, c := issue(t, s, sparc.NewALUImm(sparc.OpAdd, sparc.G3, sparc.G1, 1))
	if st != 0 || c != 0 {
		t.Errorf("dependence survived Reset: stalls=%d cycle=%d", st, c)
	}
}

func TestG0CarriesNoDependence(t *testing.T) {
	s := ultraState()
	issue(t, s, sparc.NewALUImm(sparc.OpSubcc, sparc.G0, sparc.G1, 0)) // writes g0+icc
	st, c := issue(t, s, sparc.NewALU(sparc.OpAdd, sparc.G2, sparc.G0, sparc.G0))
	if st != 0 || c != 0 {
		t.Errorf("g0 created a dependence: stalls=%d cycle=%d", st, c)
	}
}

func TestFPDivSerializes(t *testing.T) {
	s := ultraState()
	issue(t, s, sparc.NewALU(sparc.OpFdivd, sparc.FReg(0), sparc.FReg(2), sparc.FReg(4)))
	_, c2 := issue(t, s, sparc.NewALU(sparc.OpFdivd, sparc.FReg(6), sparc.FReg(8), sparc.FReg(10)))
	if c2 < 20 {
		t.Errorf("second fdivd at cycle %d; divider is unpipelined", c2)
	}
	// An independent integer add can slip in front.
	st3, c3 := issue(t, s, sparc.NewALUImm(sparc.OpAdd, sparc.G1, sparc.G2, 1))
	_ = st3
	if c3 < c2 {
		t.Logf("in-order issue: add at %d after fdiv at %d", c3, c2)
	}
}

func TestDoublewordPairDependence(t *testing.T) {
	s := ultraState()
	issue(t, s, sparc.NewLoad(sparc.OpLdd, sparc.G2, sparc.G1, 0)) // writes g2,g3
	_, c2 := issue(t, s, sparc.NewALUImm(sparc.OpAdd, sparc.G4, sparc.G3, 1))
	if c2 < 2 {
		t.Errorf("odd pair register dependence missed: consumer at %d", c2)
	}
}

func TestSequenceCycles(t *testing.T) {
	m := spawn.MustLoad(spawn.UltraSPARC)
	seq := []sparc.Inst{
		sparc.NewSethi(sparc.G1, 0x10000),
		sparc.NewLoad(sparc.OpLd, sparc.G2, sparc.G1, 0x40),
		sparc.NewALUImm(sparc.OpAdd, sparc.G2, sparc.G2, 1),
		sparc.NewStore(sparc.OpSt, sparc.G2, sparc.G1, 0x40),
	}
	n, err := SequenceCycles(m, seq)
	if err != nil {
		t.Fatal(err)
	}
	if n < 4 || n > 8 {
		t.Errorf("SequenceCycles = %d, want a small value >= 4", n)
	}
	if _, err := SequenceCycles(m, []sparc.Inst{{}}); err == nil {
		t.Error("SequenceCycles accepted an invalid instruction")
	}
}

// TestGeneratedEquivalence drives the interpreted pipeline (pipe.State)
// and the Spawn-generated UltraSPARC tables (gen/ultrasparc) with the same
// random instruction sequences and requires identical stall counts — the
// Appendix A generated-code check.
func TestGeneratedEquivalence(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	r := rand.New(rand.NewSource(42))
	regs := []sparc.Reg{sparc.G1, sparc.G2, sparc.G3, sparc.O0, sparc.O1, sparc.L0}

	randInst := func() sparc.Inst {
		switch r.Intn(6) {
		case 0:
			return sparc.NewALU(sparc.OpAdd, regs[r.Intn(len(regs))], regs[r.Intn(len(regs))], regs[r.Intn(len(regs))])
		case 1:
			return sparc.NewALUImm(sparc.OpSub, regs[r.Intn(len(regs))], regs[r.Intn(len(regs))], int32(r.Intn(100)))
		case 2:
			return sparc.NewLoad(sparc.OpLd, regs[r.Intn(len(regs))], regs[r.Intn(len(regs))], int32(r.Intn(64)*4))
		case 3:
			return sparc.NewStore(sparc.OpSt, regs[r.Intn(len(regs))], regs[r.Intn(len(regs))], int32(r.Intn(64)*4))
		case 4:
			return sparc.NewSethi(regs[r.Intn(len(regs))], int32(r.Intn(1<<20)))
		default:
			return sparc.NewALU(sparc.OpFmuld, sparc.FReg(2*r.Intn(4)), sparc.FReg(8+2*r.Intn(4)), sparc.FReg(16+2*r.Intn(4)))
		}
	}

	for trial := 0; trial < 200; trial++ {
		interp := NewState(model)
		gen := ultra.NewState()
		for i := 0; i < 12; i++ {
			inst := randInst()
			g, err := model.GroupOf(inst)
			if err != nil {
				t.Fatal(err)
			}
			reads, writes := interp.resolver.Resolve(g, inst)
			genReads := make([]ultra.RegTime, len(reads))
			for j, ra := range reads {
				genReads[j] = ultra.RegTime{Reg: int(ra.Reg), Cycle: int(ra.Cycle)}
			}
			genWrites := make([]ultra.RegTime, len(writes))
			for j, wa := range writes {
				genWrites[j] = ultra.RegTime{Reg: int(wa.Reg), Cycle: int(wa.Cycle)}
			}
			variant := "r"
			if inst.UseImm {
				variant = "i"
			}
			gid := ultra.GroupFor(inst.Op.Name(), variant)
			if gid != g.ID {
				t.Fatalf("group id mismatch for %v: interp %d, generated %d", inst, g.ID, gid)
			}
			wantStalls, _, err := interp.Issue(inst)
			if err != nil {
				t.Fatal(err)
			}
			gotStalls := gen.Stalls(gid, genReads, genWrites, true)
			if gotStalls != wantStalls {
				t.Fatalf("trial %d inst %d (%v): interpreted %d stalls, generated %d",
					trial, i, inst, wantStalls, gotStalls)
			}
		}
		if interp.Clock() != gen.Clock() {
			t.Fatalf("trial %d: clocks diverge: %d vs %d", trial, interp.Clock(), gen.Clock())
		}
	}
}

// TestGeneratedFilesFresh regenerates the committed tables and requires
// byte equality, so the descriptions and gen/ packages cannot drift.
func TestGeneratedFilesFresh(t *testing.T) {
	for _, machine := range spawn.Machines() {
		m := spawn.MustLoad(machine)
		want, err := spawn.Generate(m, string(machine))
		if err != nil {
			t.Fatal(err)
		}
		path := "../spawn/gen/" + string(machine) + "/tables.go"
		got, err := readFileString(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with cmd/spawn)", machine, err)
		}
		if got != want {
			t.Errorf("%s: committed tables are stale; regenerate with cmd/spawn", machine)
		}
	}
}

func readFileString(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
