// Differential fuzzing of the hardware issue engine against the
// simulator's former engine (HWRef, hwref_test.go). This lives in an
// external test package because the block generator (internal/workload)
// imports internal/sim.
package sim_test

import (
	"math/rand"
	"testing"

	"eel/internal/pipe"
	"eel/internal/sim"
	"eel/internal/sparc"
	"eel/internal/spawn"
	"eel/internal/workload"
)

// FuzzHardwareEngine replays random blocks, with control transfers mixed
// in, through pipe.NewHardwareState and HWRef on every machine, under
// the machine's rules and under none. Before each issue every remaining
// instruction is probed, as list scheduling does, and fetch floors
// (Delay) land between issues, as the simulator's redirects and cache
// misses do. Stalls, issue cycles and clocks must match, through both
// the plain and the prepared entry points. Each block runs twice with a
// Reset in between.
func FuzzHardwareEngine(f *testing.F) {
	f.Add(int64(1), 8, false, false)
	f.Add(int64(2), 24, true, true)
	f.Add(int64(3), 40, false, true)
	f.Add(int64(4), 1, true, false)
	f.Add(int64(-6148914691236517206), 47, false, true)
	f.Fuzz(func(t *testing.T, seed int64, n int, fp, prepared bool) {
		size := ((n%48)+48)%48 + 1
		rng := rand.New(rand.NewSource(seed))
		block := workload.RandomBlock(rng, size, fp)
		for i := 0; i < len(block); i++ {
			if rng.Intn(6) == 0 {
				block = append(block[:i+1], block[i:]...)
				block[i] = sparc.NewBranch(sparc.CondNE, -int32(i)-1)
			}
		}
		delays := make([]int64, len(block))
		for i := range delays {
			if rng.Intn(3) == 0 {
				delays[i] = int64(rng.Intn(5))
			}
		}
		for _, m := range spawn.Machines() {
			model := spawn.MustLoad(m)
			for _, rules := range []sim.Rules{sim.MachineRules(m), {}} {
				ref := sim.NewHWRef(model, rules)
				hw := pipe.NewHardwareState(model, rules.Rules)
				prep := make([]pipe.Prepared, len(block))
				for i, inst := range block {
					p, err := hw.Prepare(inst)
					if err != nil {
						t.Fatalf("%s: prepare %v: %v", m, inst, err)
					}
					prep[i] = p
				}
				for round := 0; round < 2; round++ {
					ref.Reset()
					hw.Reset()
					replayHardware(t, m, rules, round, block, delays, prep, prepared, ref, hw)
				}
			}
		}
	})
}

func replayHardware(t *testing.T, m spawn.Machine, rules sim.Rules, round int, block []sparc.Inst, delays []int64, prep []pipe.Prepared, prepared bool, ref *sim.HWRef, hw *pipe.FastState) {
	t.Helper()
	for i, inst := range block {
		if d := delays[i]; d > 0 {
			ref.Delay(ref.Clock() + d)
			hw.Delay(hw.Clock() + d)
		}
		for j := i; j < len(block); j++ {
			rs, rerr := ref.Stalls(block[j])
			var hs int
			var herr error
			if prepared {
				hs, herr = hw.StallsPrepared(&prep[j], block[j])
			} else {
				hs, herr = hw.Stalls(block[j])
			}
			if rs != hs || (rerr == nil) != (herr == nil) {
				t.Fatalf("%s %+v round %d: probe %d after %d issues: (%d,%v) vs (%d,%v) for %v",
					m, rules, round, j, i, rs, rerr, hs, herr, block[j])
			}
		}
		rs, ri, rerr := ref.Issue(inst)
		var hs int
		var hi int64
		var herr error
		if prepared {
			hs, hi, herr = hw.IssuePrepared(&prep[i], inst)
		} else {
			hs, hi, herr = hw.Issue(inst)
		}
		if rs != hs || ri != hi || (rerr == nil) != (herr == nil) {
			t.Fatalf("%s %+v round %d: issue %d: (%d,%d,%v) vs (%d,%d,%v) for %v",
				m, rules, round, i, rs, ri, rerr, hs, hi, herr, inst)
		}
		if ref.Clock() != hw.Clock() {
			t.Fatalf("%s %+v round %d: clocks diverge after %d issues: %d vs %d",
				m, rules, round, i+1, ref.Clock(), hw.Clock())
		}
	}
}
