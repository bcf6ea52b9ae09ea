package workload

import (
	"context"
	"fmt"

	"eel/internal/core"
	"eel/internal/pipe"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// compilerScheduler stands in for the Sun compilers' "-fast -xO4"
// instruction scheduler: where EEL runs one greedy list-scheduling pass
// against its SADL model, the compiler tries several schedules — both
// priority functions of the greedy scheduler plus the original order —
// evaluates each against the *hardware* engine (pipe.NewHardwareState,
// grouping rules included), and keeps the fastest. The candidates
// schedule against that engine too. EEL's later rescheduling pass, blind
// to the hardware rules and armed with a single heuristic, partially
// undoes this work: the paper's Table 1 de-scheduling effect.
//
// Each candidate schedules a whole batch at a time; the pricer then picks
// the winner block by block.
type compilerScheduler struct {
	candidates []*core.Scheduler
	// pricer measures every priced block, Reset in between; one
	// compilerScheduler serves one Generate call, so it is never shared.
	pricer *pipe.FastState
}

func newCompilerScheduler(model *spawn.Model, rules pipe.Rules) *compilerScheduler {
	return &compilerScheduler{
		candidates: []*core.Scheduler{
			core.NewHardware(model, rules, core.Options{Workers: -1}),
			core.NewHardware(model, rules, core.Options{ChainFirst: true, Workers: -1}),
		},
		pricer: pipe.NewHardwareState(model, rules),
	}
}

// ScheduleBlocksCtx (eel.Scheduler) runs each candidate over the whole
// batch in one ScheduleBlocks call, which sizes the candidate's output
// arena for the batch, and then keeps, per block, the candidate with the
// fewest measured cycles on the hardware model; the original order
// competes too. The candidates run sequentially; ctx is unused.
func (c *compilerScheduler) ScheduleBlocksCtx(_ context.Context, blocks [][]sparc.Inst) ([][]sparc.Inst, error) {
	scheduled := make([][][]sparc.Inst, len(c.candidates))
	for k, sched := range c.candidates {
		out, err := sched.ScheduleBlocks(blocks)
		if err != nil {
			return nil, err
		}
		scheduled[k] = out
	}
	out := make([][]sparc.Inst, len(blocks))
	for i, block := range blocks {
		best := block
		bestCost, err := c.cost(block)
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		for _, cands := range scheduled {
			cand := cands[i]
			cost, err := c.cost(cand)
			if err != nil {
				return nil, fmt.Errorf("block %d: %w", i, err)
			}
			// Prefer shorter blocks on ties (dropped delay-slot nops).
			if cost < bestCost || (cost == bestCost && len(cand) < len(best)) {
				best, bestCost = cand, cost
			}
		}
		out[i] = best
	}
	return out, nil
}

// cost measures a block on a freshly reset hardware engine: the issue
// cycle of the last instruction.
func (c *compilerScheduler) cost(block []sparc.Inst) (int64, error) {
	c.pricer.Reset()
	var last int64
	for _, inst := range block {
		_, t, err := c.pricer.Issue(inst)
		if err != nil {
			return 0, err
		}
		last = t
	}
	return last, nil
}
