// Package qpt implements QPT2's "slow" profiling instrumentation
// (Ball & Larus, TOPLAS '94; paper §4.2): a four-instruction sequence —
// set immediate, load, add, store — that increments a per-block execution
// counter, inserted into almost every basic block. Blocks with a single
// instrumented single-exit predecessor, or a single instrumented
// single-entry successor, are not instrumented; their counts are derived.
package qpt

import (
	"encoding/binary"
	"fmt"

	"eel/internal/cfg"
	"eel/internal/eel"
	"eel/internal/sparc"
)

// Scratch registers for the counter sequence. SPARC ABIs reserve %g6 and
// %g7 for the system; like QPT, the instrumentation claims them, and the
// workload generator leaves them untouched.
const (
	AddrReg = sparc.G6
	ValReg  = sparc.G7
)

// SlowProfiler inserts the 4-instruction counter sequence. The zero value
// is ready to use as an eel.Instrumenter.
type SlowProfiler struct {
	// DisablePlacementOpt instruments every block, ignoring the
	// skip-redundant-blocks optimization (ablation).
	DisablePlacementOpt bool

	counterBase uint32
	// slot[b] resolves block b's count: b's own counter when slot[b] >= 0,
	// otherwise the donor counter ^slot[b] that b's count is derived from.
	// nil until Setup.
	slot        []int32
	numCounters int
}

var _ eel.Instrumenter = (*SlowProfiler)(nil)

// Setup chooses which blocks to instrument and allocates one zeroed
// 32-bit counter per instrumented block at the end of the data segment.
// The control-flow graph is read, never written: every edit of a shared
// editor sees the same graph.
func (p *SlowProfiler) Setup(ed *eel.Editor) error {
	p.place(ed.Graph())

	x := ed.Exe()
	// Counters live past the initialized data, 4-byte aligned.
	base := x.DataEnd()
	if rem := base % 4; rem != 0 {
		pad := 4 - rem
		x.Data = append(x.Data, make([]byte, pad)...)
		base += pad
	}
	p.counterBase = base
	x.Data = append(x.Data, make([]byte, 4*p.numCounters)...)
	x.AddSymbol("__qpt_counters", base, false)
	return nil
}

// place picks the instrumented blocks of g, numbers their counters in
// block order, and resolves every skipped block to the counter its count
// is read from. It runs in time linear in the blocks and edges of g.
func (p *SlowProfiler) place(g *cfg.Graph) {
	n := len(g.Blocks)
	// root[b] == b: b keeps its own counter. root[b] == -1: b's count is
	// derived from donor[b], not yet resolved. Otherwise root[b] is the
	// instrumented block at the end of b's donor chain.
	root := make([]int32, n)
	donor := make([]int32, n)
	for i := range root {
		root[i] = int32(i)
	}
	if !p.DisablePlacementOpt {
		for _, b := range g.Blocks {
			// Edges are deduplicated: a conditional branch whose target is
			// its own fallthrough contributes one logical edge.
			//
			// Single instrumented single-exit predecessor: the
			// predecessor's counter counts this block too.
			if pred := sole(b.Preds); pred != nil && pred != b &&
				sole(pred.Succs) != nil && root[pred.Index] == int32(pred.Index) {
				root[b.Index], donor[b.Index] = -1, int32(pred.Index)
				continue
			}
			// Single instrumented single-entry successor.
			if succ := sole(b.Succs); succ != nil && succ != b &&
				sole(succ.Preds) != nil && root[succ.Index] == int32(succ.Index) {
				root[b.Index], donor[b.Index] = -1, int32(succ.Index)
			}
		}
	}
	resolveDonors(root, donor)

	// Number the counters in block order (donor is free for reuse), then
	// turn root into the slot encoding.
	counter := donor
	p.numCounters = 0
	for b, r := range root {
		if r == int32(b) {
			counter[b] = int32(p.numCounters)
			p.numCounters++
		}
	}
	for b, r := range root {
		if r == int32(b) {
			root[b] = counter[b]
		} else {
			root[b] = ^counter[r]
		}
	}
	p.slot = root
}

// resolveDonors points every derived block (root -1) at the instrumented
// block its donor chain ends on. If a chain ends in a donor cycle
// instead, the first block in block order whose chain enters that cycle
// gets its own counter back. Placement derives a block only from a donor
// that still has its counter and never gives a derived block its counter
// back, so it makes no cycles; the check guards that invariant.
//
// Each chain is walked once. A resolved root is memoised for good, since
// a block that keeps its counter never loses it, and a per-walk stamp
// spots a cycle when a walk meets a block it has already visited.
func resolveDonors(root, donor []int32) {
	seen := make([]int32, len(root)) // b+1 once the walk from block b passed by
	for b := range root {
		if root[b] >= 0 {
			continue
		}
		stamp := int32(b) + 1
		x := int32(b)
		for root[x] < 0 && seen[x] != stamp {
			seen[x] = stamp
			x = donor[x]
		}
		if root[x] < 0 {
			root[b] = int32(b)
			continue
		}
		for y, r := int32(b), root[x]; root[y] < 0; y = donor[y] {
			root[y] = r
		}
	}
}

// CounterBase returns the address of the first counter.
func (p *SlowProfiler) CounterBase() uint32 { return p.counterBase }

// NumCounters returns the number of allocated counters.
func (p *SlowProfiler) NumCounters() int { return p.numCounters }

// Instrumented reports whether block b received a counter.
func (p *SlowProfiler) Instrumented(b int) bool {
	return b >= 0 && b < len(p.slot) && p.slot[b] >= 0
}

// Instrument returns the slow-profiling sequence for a block:
//
//	sethi %hi(counter), %g6
//	ld    [%g6 + %lo(counter)], %g7
//	add   %g7, 1, %g7
//	st    %g7, [%g6 + %lo(counter)]
//
// Every instruction is marked Instrumented so the scheduler applies the
// paper's relaxed memory-aliasing rule.
func (p *SlowProfiler) Instrument(b *cfg.Block) []sparc.Inst {
	slot := p.slot[b.Index]
	if slot < 0 {
		return nil
	}
	addr := p.counterBase + uint32(4*slot)
	hi := int32(addr >> 10)
	lo := int32(addr & 0x3ff)
	seq := []sparc.Inst{
		sparc.NewSethi(AddrReg, hi),
		sparc.NewLoad(sparc.OpLd, ValReg, AddrReg, lo),
		sparc.NewALUImm(sparc.OpAdd, ValReg, ValReg, 1),
		sparc.NewStore(sparc.OpSt, ValReg, AddrReg, lo),
	}
	for i := range seq {
		seq[i].Instrumented = true
	}
	return seq
}

// Counts reconstructs per-block execution counts from the counter memory
// of a finished run. mem must expose the edited executable's data segment
// (read32 returns the word at an absolute address). A skipped block reads
// the counter at the end of its donor chain.
func (p *SlowProfiler) Counts(read32 func(addr uint32) uint32) (map[int]uint64, error) {
	if p.slot == nil {
		return nil, fmt.Errorf("qpt: Counts before Setup")
	}
	out := make(map[int]uint64, len(p.slot))
	for b, slot := range p.slot {
		if slot < 0 {
			slot = ^slot
		}
		out[b] = uint64(read32(p.counterBase + uint32(4*slot)))
	}
	return out, nil
}

// ReadCounterData decodes counter values straight from an executable's
// data segment image.
func ReadCounterData(data []byte, dataBase, counterBase uint32, n int) ([]uint32, error) {
	off := int(counterBase - dataBase)
	if off < 0 || off+4*n > len(data) {
		return nil, fmt.Errorf("qpt: counter area [%d,%d) outside data segment", off, off+4*n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint32(data[off+4*i:])
	}
	return out, nil
}

// sole returns the one distinct block in an edge list, or nil when the
// list is empty or names two blocks. It never writes to the list: the
// graph is shared by concurrent edits.
func sole(bs []*cfg.Block) *cfg.Block {
	if len(bs) == 0 {
		return nil
	}
	for _, b := range bs[1:] {
		if b != bs[0] {
			return nil
		}
	}
	return bs[0]
}
