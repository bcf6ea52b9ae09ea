package pipe

import (
	"math/rand"
	"testing"
	"unsafe"

	"eel/internal/sparc"
	"eel/internal/spawn"
)

// TestFastStateMatchesReference drives the compiled FastState and the
// reference State through identical random instruction streams on every
// shipped machine and requires identical probe results, issue placements
// and clocks. The heavier block-shaped differential check lives in
// FuzzStallOracle; this one covers op kinds (divides, fp) the workload
// generator emits rarely or never.
func TestFastStateMatchesReference(t *testing.T) {
	regs := []sparc.Reg{sparc.G1, sparc.G2, sparc.G3, sparc.O0, sparc.O1, sparc.L0}
	for _, machine := range spawn.Machines() {
		model := spawn.MustLoad(machine)
		r := rand.New(rand.NewSource(7))
		for trial := 0; trial < 300; trial++ {
			ref := NewState(model)
			fast := NewFastState(model)
			for i := 0; i < 30; i++ {
				var inst sparc.Inst
				switch r.Intn(8) {
				case 0:
					inst = sparc.NewALU(sparc.OpAdd, regs[r.Intn(len(regs))], regs[r.Intn(len(regs))], regs[r.Intn(len(regs))])
				case 1:
					inst = sparc.NewALUImm(sparc.OpSub, regs[r.Intn(len(regs))], regs[r.Intn(len(regs))], int32(r.Intn(64)))
				case 2:
					inst = sparc.NewLoad(sparc.OpLd, regs[r.Intn(len(regs))], regs[r.Intn(len(regs))], int32(4*r.Intn(32)))
				case 3:
					inst = sparc.NewStore(sparc.OpSt, regs[r.Intn(len(regs))], regs[r.Intn(len(regs))], int32(4*r.Intn(32)))
				case 4:
					inst = sparc.NewALU(sparc.OpFmuld, sparc.FReg(4), sparc.F0, sparc.FReg(2))
				case 5:
					inst = sparc.NewALU(sparc.OpFdivd, sparc.FReg(6), sparc.F0, sparc.FReg(2))
				case 6:
					inst = sparc.NewALU(sparc.OpUdiv, regs[r.Intn(len(regs))], regs[r.Intn(len(regs))], regs[r.Intn(len(regs))])
				default:
					inst = sparc.NewSethi(regs[r.Intn(len(regs))], int32(r.Intn(1<<20)))
				}
				ps, perr := ref.Stalls(inst)
				fs, ferr := fast.Stalls(inst)
				if ps != fs || (perr == nil) != (ferr == nil) {
					t.Fatalf("%s trial %d inst %d: probe (%d,%v) vs (%d,%v) for %v",
						machine, trial, i, ps, perr, fs, ferr, inst)
				}
				is, ii, ierr := ref.Issue(inst)
				js, ji, jerr := fast.Issue(inst)
				if is != js || ii != ji || (ierr == nil) != (jerr == nil) {
					t.Fatalf("%s trial %d inst %d: issue (%d,%d,%v) vs (%d,%d,%v) for %v",
						machine, trial, i, is, ii, ierr, js, ji, jerr, inst)
				}
			}
			if ref.Clock() != fast.Clock() {
				t.Fatalf("%s trial %d: clocks diverge: %d vs %d", machine, trial, ref.Clock(), fast.Clock())
			}
		}
	}
}

// TestFastStateReset checks that a Reset FastState behaves like a fresh
// one — the ring buffer and register history must fully clear.
func TestFastStateReset(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	used := NewFastState(model)
	// Dirty the state with a long-latency chain, then reset.
	used.MustIssue(sparc.NewALU(sparc.OpFdivd, sparc.FReg(4), sparc.F0, sparc.FReg(2)))
	used.MustIssue(sparc.NewALU(sparc.OpFmuld, sparc.FReg(6), sparc.FReg(4), sparc.FReg(4)))
	used.Reset()

	fresh := NewFastState(model)
	insts := []sparc.Inst{
		sparc.NewALU(sparc.OpFmuld, sparc.FReg(4), sparc.F0, sparc.FReg(2)),
		sparc.NewALU(sparc.OpFaddd, sparc.FReg(6), sparc.FReg(4), sparc.FReg(2)),
		sparc.NewLoad(sparc.OpLddf, sparc.F0, sparc.G1, 8),
	}
	for i, inst := range insts {
		us, ui := used.MustIssue(inst)
		fs, fi := fresh.MustIssue(inst)
		if us != fs || ui != fi {
			t.Fatalf("inst %d: reset state issued (%d,%d), fresh state (%d,%d)", i, us, ui, fs, fi)
		}
	}
}

// TestPreparedSize pins the memo footprint: the simulator keeps one
// Prepared per static instruction for every timed run, and twelve
// register accesses make up most of it.
func TestPreparedSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(RegAccess{}); got != 8 {
		t.Errorf("RegAccess is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(Prepared{}); got != 120 {
		t.Errorf("Prepared is %d bytes, want 120", got)
	}
}

// TestHardwareStateSkipsWAR pins the hardware engine's documented rule:
// it reads operands at issue, so an instruction that overwrites a
// register the previous one read may issue in the same cycle, where the
// SADL oracle orders the write after the read.
func TestHardwareStateSkipsWAR(t *testing.T) {
	read := sparc.NewALU(sparc.OpAdd, sparc.G3, sparc.G1, sparc.G2)
	overwrite := sparc.NewSethi(sparc.G1, 5)
	for _, machine := range spawn.Machines() {
		model := spawn.MustLoad(machine)
		sadl, hw := NewFastState(model), NewHardwareState(model, Rules{})
		sadl.MustIssue(read)
		hw.MustIssue(read)
		_, sadlAt := sadl.MustIssue(overwrite)
		_, hwAt := hw.MustIssue(overwrite)
		if hwAt >= sadlAt {
			t.Errorf("%s: overwrite issues at %d on the hardware state, %d on the SADL oracle; want earlier",
				machine, hwAt, sadlAt)
		}
	}
}
