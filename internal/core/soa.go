package core

import (
	"eel/internal/pipe"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// This file is the structure-of-arrays block representation shared by
// the scheduler's hot path and the simulator. A BlockSoA holds one flat
// array per per-instruction fact — timing group (latency class),
// hazard-rule flags, register masks, pre-resolved placement inputs
// (pipe.Prepared) — built once per block and then indexed by every
// consumer: the dependence-graph builder (depgraph.go), the ready
// queue's prepared probes (readyq.go), the never-costs-more guard's
// cost replays (sched.go), the exact search (optimal.go), and the
// simulator's per-static-index memo (internal/sim.Timing), which sizes
// only the arrays it needs via ResizePrep. Arrays are grown in place
// and recycled across blocks, so a warmed worker builds a block's SoA
// with zero allocations.

// InstFlags caches the per-instruction predicates the dependence rules
// and the simulator's grouping rules test.
type InstFlags uint8

const (
	FlagLoad InstFlags = 1 << iota
	FlagStore
	FlagInstrumented
	FlagTrap
)

// InstFlagsOf computes an instruction's predicate flags.
func InstFlagsOf(inst sparc.Inst) InstFlags {
	var f InstFlags
	if inst.Op.IsLoad() {
		f |= FlagLoad
	}
	if inst.Op.IsStore() {
		f |= FlagStore
	}
	if inst.Instrumented {
		f |= FlagInstrumented
	}
	if inst.Op == sparc.OpTicc {
		f |= FlagTrap
	}
	return f
}

// BlockSoA is the flat per-instruction view of a block. Insts, Groups
// and Flags always cover the block after Build; Prep is managed by the
// owner (the scheduler fills it before Build when the oracle supports
// preparing, the simulator fills it lazily per static index) and may be
// empty, longer than Insts (CTI pricing slots), or sized independently
// of the other arrays (ResizePrep).
type BlockSoA struct {
	Insts  []sparc.Inst
	Groups []*spawn.Group // timing group = latency class, per instruction
	Flags  []InstFlags
	Prep   []pipe.Prepared

	// Dense register bitsets per instruction, derived with the reference
	// %g0 exclusion. Core-internal: the dependence rules are the only
	// consumer.
	useMask []regMask
	defMask []regMask

	regBuf []sparc.Reg // reusable Uses/Defs spill buffer
}

// grow sizes the eager arrays for n instructions, reusing capacity.
func (b *BlockSoA) grow(n int) {
	if cap(b.Groups) < n {
		b.Groups = make([]*spawn.Group, n)
		b.Flags = make([]InstFlags, n)
		b.useMask = make([]regMask, n)
		b.defMask = make([]regMask, n)
	}
	b.Groups = b.Groups[:n]
	b.Flags = b.Flags[:n]
	b.useMask = b.useMask[:n]
	b.defMask = b.defMask[:n]
}

// Build fills the per-instruction arrays for insts in one pass. With
// usePrep the timing groups come from the already-filled Prep slots
// (the caller's prepare pass resolved them once); otherwise each is
// looked up in the model, failing on the same first bad instruction the
// reference builder would report.
func (b *BlockSoA) Build(model *spawn.Model, insts []sparc.Inst, usePrep bool) error {
	b.Insts = insts
	b.grow(len(insts))
	for i, inst := range insts {
		if usePrep {
			b.Groups[i] = b.Prep[i].Group()
		} else {
			g, err := model.GroupOf(inst)
			if err != nil {
				return err
			}
			b.Groups[i] = g
		}
		var um, dm regMask
		b.regBuf = inst.Uses(b.regBuf[:0])
		for _, r := range b.regBuf {
			um.set(r)
		}
		b.regBuf = inst.Defs(b.regBuf[:0])
		for _, r := range b.regBuf {
			dm.set(r)
		}
		b.useMask[i] = um
		b.defMask[i] = dm
		b.Flags[i] = InstFlagsOf(inst)
	}
	return nil
}

// ResizePrep sizes Prep and Flags for a lazy per-index builder (the
// simulator memoizes one Prepared per static text index and resolves it
// on first execution), reusing capacity and clearing prior contents. A
// cleared Prep slot reports a nil Group, which lazy builders use as the
// not-yet-resolved marker.
func (b *BlockSoA) ResizePrep(n int) {
	if cap(b.Prep) >= n {
		b.Prep = b.Prep[:n]
		clear(b.Prep)
	} else {
		b.Prep = make([]pipe.Prepared, n)
	}
	if cap(b.Flags) >= n {
		b.Flags = b.Flags[:n]
		clear(b.Flags)
	} else {
		b.Flags = make([]InstFlags, n)
	}
}

// arenaChunk is the instruction arena's allocation granularity.
const arenaChunk = 8192

// instArena hands out instruction slices from append-only chunks, so
// the scheduler's per-block output slices cost one bump allocation per
// ~8k instructions instead of one make per block. Chunks are never
// reused — take only ever advances — so returned slices stay valid for
// the life of their referents and an exhausted chunk is dropped for the
// garbage collector once its slices die.
type instArena struct {
	buf []sparc.Inst
}

// prime gives a worker that has never allocated a first chunk of n
// instructions, or of arenaChunk if that is smaller, so a small batch
// on a fresh scheduler does not pay for a whole chunk. Only the batch
// paths (ScheduleBlocks, ScheduleBlocksCtx) prime; a single-block
// ScheduleBlock caller gets an unprimed arena, whose first take
// allocates a whole arenaChunk.
func (a *instArena) prime(n int) {
	if cap(a.buf) == 0 && n > 0 {
		a.buf = make([]sparc.Inst, 0, min(n, arenaChunk))
	}
}

// take reserves room for n instructions and returns it as an empty
// slice with capacity n, ready for the append idiom. Appending beyond n
// falls back to a normal reallocation, leaving the arena intact.
func (a *instArena) take(n int) []sparc.Inst {
	if cap(a.buf)-len(a.buf) < n {
		c := arenaChunk
		if n > c {
			c = n
		}
		a.buf = make([]sparc.Inst, 0, c)
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	return a.buf[off : off : off+n]
}
