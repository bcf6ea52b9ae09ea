package main

import (
	"fmt"

	"eel/internal/cfg"
	"eel/internal/eel"
	"eel/internal/exe"
	"eel/internal/qpt"
	"eel/internal/sim"
	"eel/internal/sparc"
)

// The correctness checks take their reference from the original image
// run under the functional simulator, never from the editor under test:
// an edited executable must halt in the same architectural state as its
// original, and its QPT counters must equal the block visits an
// independent observer counted on the original run.

// checkMaxSteps bounds every checked run; corpus images halt well below.
const checkMaxSteps = 50_000_000

// profileLayout returns a QPT profiler set up the way an instrumenting
// edit of orig sets it up, so an edited image's counters can be read
// back. Setup only chooses counter slots from the CFG; it runs on a
// private copy because it extends the image's data segment.
func profileLayout(orig *exe.Exe) (*qpt.SlowProfiler, error) {
	cp, err := exe.Unmarshal(orig.Marshal())
	if err != nil {
		return nil, err
	}
	ed, err := eel.Open(cp)
	if err != nil {
		return nil, err
	}
	defer ed.Close()
	prof := &qpt.SlowProfiler{}
	if err := prof.Setup(ed); err != nil {
		return nil, err
	}
	return prof, nil
}

// checkEdit runs orig and edited to completion and compares them: every
// integer register but the instrumentation-reserved %g5-%g7, every FP
// register, and the original initialized data must match, and the
// edited run's counters (read through prof) must equal the visits an
// observer counted at each block leader of the original run.
func checkEdit(orig, edited *exe.Exe, prof *qpt.SlowProfiler) error {
	insts, err := sparc.DecodeAll(orig.Text)
	if err != nil {
		return fmt.Errorf("decoding original: %w", err)
	}
	graph, err := cfg.Build(insts)
	if err != nil {
		return fmt.Errorf("original CFG: %w", err)
	}
	leader := make([]int32, len(insts))
	for i := range leader {
		leader[i] = -1
	}
	for _, b := range graph.Blocks {
		leader[b.Start] = int32(b.Index)
	}
	visits := make([]uint64, len(graph.Blocks))
	ref, err := sim.NewInterp(orig)
	if err != nil {
		return fmt.Errorf("original: %w", err)
	}
	res, err := ref.Run(checkMaxSteps, func(idx int, _ *sparc.Inst) {
		if b := leader[idx]; b >= 0 {
			visits[b]++
		}
	})
	if err != nil || !res.Halted {
		return fmt.Errorf("original did not halt: %v", err)
	}
	got, err := sim.NewInterp(edited)
	if err != nil {
		return fmt.Errorf("edited: %w", err)
	}
	res, err = got.Run(checkMaxSteps, nil)
	if err != nil || !res.Halted {
		return fmt.Errorf("edited did not halt: %v", err)
	}
	for r := sparc.Reg(0); r < 32; r++ {
		if r == sparc.G5 || r == sparc.G6 || r == sparc.G7 {
			continue
		}
		// A register holding a text address (a call's return link) may
		// differ: re-layout moved the code it points into.
		a, b := ref.Reg(r), got.Reg(r)
		if a != b && !(orig.InText(a) && edited.InText(b)) {
			return fmt.Errorf("register %v: original %#x, edited %#x", r, a, b)
		}
	}
	for n := 0; n < 32; n++ {
		if a, b := ref.FReg(n), got.FReg(n); a != b {
			return fmt.Errorf("register %%f%d: original %#x, edited %#x", n, a, b)
		}
	}
	for addr := orig.DataBase; addr < orig.DataEnd(); addr++ {
		if a, b := ref.Mem().Read8(addr), got.Mem().Read8(addr); a != b {
			return fmt.Errorf("data byte %#x: original %#x, edited %#x", addr, a, b)
		}
	}
	counts, err := prof.Counts(got.Mem().Read32)
	if err != nil {
		return err
	}
	for i, v := range visits {
		if counts[i] != v {
			return fmt.Errorf("block %d: counter %d, observed visits %d", i, counts[i], v)
		}
	}
	return nil
}

// checkScheduled checks one /v1/schedule response block against its
// request block: the same multiset of non-nop instructions (a delay-slot
// refill may add or drop one nop), and a request CTI still in the
// penultimate slot.
func checkScheduled(req, resp []uint32) error {
	if d := len(resp) - len(req); d < -1 || d > 1 {
		return fmt.Errorf("length %d, request %d", len(resp), len(req))
	}
	count := make(map[uint32]int)
	for _, w := range req {
		if !isNop(w) {
			count[w]++
		}
	}
	for _, w := range resp {
		if !isNop(w) {
			count[w]--
		}
	}
	for w, n := range count {
		if n != 0 {
			return fmt.Errorf("instruction %#08x: %d more in the request than the response", w, n)
		}
	}
	if cti, ok := terminalCTI(req); ok {
		if got, ok := terminalCTI(resp); !ok || got != cti {
			return fmt.Errorf("CTI %#08x no longer terminal", cti)
		}
	}
	for i, w := range resp {
		if inst, err := sparc.Decode(w); err == nil && inst.IsCTI() && i != len(resp)-2 {
			return fmt.Errorf("CTI %#08x at slot %d of %d", w, i, len(resp))
		}
	}
	return nil
}

func isNop(w uint32) bool {
	inst, err := sparc.Decode(w)
	return err == nil && inst.IsNop()
}

// terminalCTI returns the word in a block's CTI slot (the penultimate
// one, before the delay slot), if it holds a CTI.
func terminalCTI(block []uint32) (uint32, bool) {
	if len(block) < 2 {
		return 0, false
	}
	w := block[len(block)-2]
	inst, err := sparc.Decode(w)
	return w, err == nil && inst.IsCTI()
}
