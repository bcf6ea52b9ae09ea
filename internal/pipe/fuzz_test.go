// Differential fuzzing of the two stall oracles. This lives in an
// external test package because the block generator (internal/workload)
// transitively imports internal/pipe.
package pipe_test

import (
	"math/rand"
	"testing"

	"eel/internal/pipe"
	"eel/internal/sparc"
	"eel/internal/spawn"
	"eel/internal/workload"
)

// FuzzStallOracle generates a random legal straight-line block from the
// workload content generator and replays it list-scheduler-style against
// both oracles on every shipped machine: before each issue, every
// remaining instruction is probed (Stalls), then the next one is issued —
// exactly the query mix core.Scheduler produces. Probe results, issue
// placements, errors and clocks must match instruction for instruction,
// and with attribution sinks attached, the per-hazard stall
// classification must match count for count after every successful
// issue. Each block runs twice through the same pair of states with a
// Reset in between, so state reuse (the scheduler pools oracles) is
// covered too, and a third time with the sinks detached, because an
// unattributed FastState.Issue jumps over RAW stalls instead of stepping
// through them.
func FuzzStallOracle(f *testing.F) {
	f.Add(int64(1), 8, false)
	f.Add(int64(2), 24, false)
	f.Add(int64(3), 24, true)
	f.Add(int64(4), 47, true)
	f.Add(int64(-6148914691236517206), 33, true) // 0xaaaa... bit pattern
	f.Add(int64(7), 1, false)
	f.Fuzz(func(t *testing.T, seed int64, n int, fp bool) {
		size := ((n % 48) + 48) % 48
		size++
		for _, machine := range spawn.Machines() {
			model := spawn.MustLoad(machine)
			block := workload.RandomBlock(rand.New(rand.NewSource(seed)), size, fp)
			ref := pipe.NewState(model)
			fast := pipe.NewFastState(model)
			var refAttr, fastAttr pipe.StallAttr
			ref.SetAttribution(&refAttr)
			fast.SetAttribution(&fastAttr)
			for round := 0; round < 3; round++ {
				if round == 2 {
					ref.SetAttribution(nil)
					fast.SetAttribution(nil)
				}
				ref.Reset()
				fast.Reset()
				refAttr.Reset()
				fastAttr.Reset()
				replayBlock(t, machine, round, block, ref, fast, &refAttr, &fastAttr)
			}
		}
	})
}

func replayBlock(t *testing.T, machine spawn.Machine, round int, block []sparc.Inst, ref *pipe.State, fast *pipe.FastState, refAttr, fastAttr *pipe.StallAttr) {
	t.Helper()
	for i, inst := range block {
		// Probe every not-yet-issued instruction, as list scheduling does.
		for j := i; j < len(block); j++ {
			rs, rerr := ref.Stalls(block[j])
			fs, ferr := fast.Stalls(block[j])
			if rs != fs || (rerr == nil) != (ferr == nil) {
				t.Fatalf("%s round %d: probe %d after %d issues: (%d,%v) vs (%d,%v) for %v",
					machine, round, j, i, rs, rerr, fs, ferr, block[j])
			}
		}
		rs, ri, rerr := ref.Issue(inst)
		fs, fi, ferr := fast.Issue(inst)
		if rs != fs || ri != fi || (rerr == nil) != (ferr == nil) {
			t.Fatalf("%s round %d: issue %d: (%d,%d,%v) vs (%d,%d,%v) for %v",
				machine, round, i, rs, ri, rerr, fs, fi, ferr, inst)
		}
		// Attribution compares only after successful issues: on the
		// (unreachable with shipped descriptions) error paths the
		// reference oracle records the cycles it walked before giving
		// up while the fast oracle may short-circuit.
		if rerr == nil && !refAttr.Equal(fastAttr) {
			t.Fatalf("%s round %d: attribution diverges after issue %d (%v):\n  reference: %s\n  fast:      %s",
				machine, round, i, inst, refAttr.String(), fastAttr.String())
		}
		if ref.Clock() != fast.Clock() {
			t.Fatalf("%s round %d: clocks diverge after %d issues: %d vs %d",
				machine, round, i+1, ref.Clock(), fast.Clock())
		}
	}
}
