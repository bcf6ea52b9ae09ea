package sim

import (
	"fmt"

	"eel/internal/pipe"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// HWRef is the simulator's former hardware issue engine, a separate copy
// of the horizon ring kept here as the differential oracle for
// pipe.NewHardwareState (FuzzHardwareEngine). It is the old sim.HW body
// with its HWPipeline adapter folded in; the only edits are a local
// resolve cache in place of pipe.Prepared and core.InstFlags, and the
// removal of the never-set store-load gap.
type HWRef struct {
	model *spawn.Model
	rules Rules
	tab   *spawn.CompiledTables

	resolver pipe.Resolver
	// rcache memoizes placement inputs per exact instruction;
	// direct-mapped, overwrite on collision.
	rcache [hwResolveCacheSize]struct {
		inst   sparc.Inst
		ok     bool
		mem    bool
		cg     *spawn.CompiledGroup
		reads  []pipe.RegAccess
		writes []pipe.RegAccess
	}

	horizon  int64 // window length; no group holds units this long
	mask     int64 // ring rows - 1
	nu       int   // units per row
	ring     []int32
	ready    [sparc.NumRegs]int64
	clock    int64
	fetchMin int64 // earliest issue allowed by fetch (redirects, cache)
}

const hwResolveCacheSize = 64 // power of two

// refInstKey folds an instruction into a resolve-cache index. Only mixing
// quality matters; collisions just evict.
func refInstKey(in sparc.Inst) uint64 {
	k := uint64(in.Op)
	k = k<<8 ^ uint64(in.Rd)
	k = k<<8 ^ uint64(in.Rs1)
	k = k<<8 ^ uint64(in.Rs2)
	k = k<<8 ^ uint64(in.Cond)
	k ^= uint64(uint32(in.Imm)) << 7
	k ^= uint64(uint32(in.Disp)) << 13
	if in.UseImm {
		k ^= 1 << 62
	}
	if in.Annul {
		k ^= 1 << 61
	}
	if in.Instrumented {
		k ^= 1 << 60
	}
	k *= 0x9e3779b97f4a7c15
	return k >> 32
}

// NewHWRef builds a reference issue engine for a model and rules.
func NewHWRef(model *spawn.Model, rules Rules) *HWRef {
	tab := model.Compiled()
	h := &HWRef{
		model:   model,
		rules:   rules,
		tab:     tab,
		horizon: int64(tab.MaxSpan),
		nu:      len(model.Units),
	}
	if h.horizon < 1 {
		h.horizon = 1
	}
	rows := pipe.RingRows(h.horizon)
	h.mask = rows - 1
	h.ring = make([]int32, int(rows)*h.nu)
	h.Reset()
	return h
}

// Reset clears all issue state.
func (h *HWRef) Reset() {
	h.clock = 0
	h.fetchMin = 0
	clear(h.ring)
	for i := range h.ready {
		h.ready[i] = -1
	}
}

// Clock returns the issue cycle of the most recent instruction.
func (h *HWRef) Clock() int64 { return h.clock }

// Delay constrains the next instruction's issue to at least cycle c
// (fetch redirects, cache misses).
func (h *HWRef) Delay(c int64) {
	if c > h.fetchMin {
		h.fetchMin = c
	}
}

// Stalls returns the issue delay inst would incur, without committing.
func (h *HWRef) Stalls(inst sparc.Inst) (int, error) {
	t, err := h.place(&inst, false)
	if err != nil {
		return 0, err
	}
	return int(t - h.clock), nil
}

// Issue commits inst and returns its stall count and issue cycle.
func (h *HWRef) Issue(inst sparc.Inst) (int, int64, error) {
	before := h.clock
	t, err := h.place(&inst, true)
	if err != nil {
		return 0, 0, err
	}
	if h.rules.CTIEndsGroup && inst.IsCTI() {
		h.Delay(t + 1)
	}
	return int(t - before), t, nil
}

// place finds the earliest issue cycle for inst; commit records it.
func (h *HWRef) place(inst *sparc.Inst, commit bool) (int64, error) {
	e := &h.rcache[refInstKey(*inst)&(hwResolveCacheSize-1)]
	if !e.ok || e.inst != *inst {
		g, err := h.model.GroupOf(*inst)
		if err != nil {
			e.ok = false
			return 0, err
		}
		reads, writes := h.resolver.Resolve(g, *inst)
		e.reads = append(e.reads[:0], reads...)
		e.writes = append(e.writes[:0], writes...)
		e.cg = &h.tab.Groups[g.ID]
		e.mem = inst.Op.IsLoad() || inst.Op.IsStore()
		e.inst, e.ok = *inst, true
	}
	return h.placeResolved(e.cg, e.mem, e.reads, e.writes, inst, commit)
}

// placeResolved runs the placement search against the compiled tables.
func (h *HWRef) placeResolved(cg *spawn.CompiledGroup, mem bool, reads, writes []pipe.RegAccess, inst *sparc.Inst, commit bool) (int64, error) {
	if cg.Infeasible {
		return 0, fmt.Errorf("sim: cannot place %v", inst)
	}
	counts := h.tab.UnitCounts
	horizonEnd := h.clock + h.horizon

	t := h.clock
	if h.fetchMin > t {
		t = h.fetchMin
	}
search:
	for ; ; t++ {
		if t-h.clock > 1<<16 {
			return 0, fmt.Errorf("sim: cannot place %v", inst)
		}
		// RAW: start from a lower bound rather than testing cycle by
		// cycle.
		for _, r := range reads {
			if need := h.ready[r.Reg] - int64(r.Cycle); need > t {
				t = need
			}
		}
		// WAW ordering.
		for _, w := range writes {
			if avail := t + int64(w.Cycle); avail <= h.ready[w.Reg] {
				continue search
			}
		}
		// Structural hazards, sparse: only nonzero held entries checked.
		for _, e := range cg.NZ {
			abs := t + int64(e.Cycle)
			if abs >= horizonEnd {
				// No committed usage exists at or beyond the window.
				continue
			}
			if counts[e.Unit]-h.ring[(abs&h.mask)*int64(h.nu)+int64(e.Unit)] < int32(e.Num) {
				continue search
			}
		}
		break
	}

	if commit {
		h.commitAt(mem, cg, t, writes)
	}
	return t, nil
}

// commitAt records the placed instruction's effects. Ring rows whose
// cycles fall behind the new clock are zeroed before the new usage lands,
// because they may alias cycles inside the advanced window.
func (h *HWRef) commitAt(mem bool, cg *spawn.CompiledGroup, t int64, writes []pipe.RegAccess) {
	nu := int64(h.nu)
	if t > h.clock {
		if t-h.clock >= h.horizon {
			clear(h.ring)
		} else {
			for c := h.clock; c < t; c++ {
				row := (c & h.mask) * nu
				clear(h.ring[row : row+nu])
			}
		}
	}
	for _, e := range cg.NZ {
		abs := t + int64(e.Cycle)
		h.ring[(abs&h.mask)*nu+int64(e.Unit)] += int32(e.Num)
	}
	for _, w := range writes {
		if avail := t + int64(w.Cycle); avail > h.ready[w.Reg] {
			h.ready[w.Reg] = avail
		}
	}
	h.clock = t
	if h.fetchMin < t {
		h.fetchMin = t
	}
	if h.rules.MemEndsGroup && mem {
		h.Delay(t + 1)
	}
}
