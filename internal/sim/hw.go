package sim

import (
	"fmt"

	"eel/internal/core"
	"eel/internal/pipe"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// Rules capture grouping behaviors of the real machines that the SADL
// descriptions deliberately do not model (the paper's descriptions "only
// model the execution pipelines themselves"). They are part of the
// hardware substrate, so the scheduler cannot see them — one source of the
// paper's de-scheduling effect.
type Rules struct {
	// MemEndsGroup makes a load or store the last instruction of its
	// issue group: nothing issues with it in the same cycle after it.
	MemEndsGroup bool
	// CTIEndsGroup makes a control-transfer end its group after the delay
	// slot issues.
	CTIEndsGroup bool
	// RedirectPenalty is the fetch bubble (cycles) after any taken
	// control transfer.
	RedirectPenalty int64
	// MispredictPenalty is added when a conditional branch goes against
	// the static prediction.
	MispredictPenalty int64
	// PredictBackwardTaken enables static backward-taken/forward-untaken
	// prediction; without it every taken conditional pays the redirect
	// penalty and untaken ones are free.
	PredictBackwardTaken bool
	// StoreLoadGap forces a load to issue at least this many cycles after
	// the previous store (store-buffer drain). The SADL descriptions do
	// not model it — the compiler (which schedules against these Rules)
	// knows it, EEL's scheduler does not.
	StoreLoadGap int64
}

// MachineRules returns the hardware grouping rules for a machine.
func MachineRules(m spawn.Machine) Rules {
	switch m {
	case spawn.HyperSPARC:
		return Rules{RedirectPenalty: 1}
	case spawn.SuperSPARC:
		return Rules{MemEndsGroup: true, CTIEndsGroup: true, RedirectPenalty: 1}
	case spawn.UltraSPARC:
		return Rules{
			MemEndsGroup:         true,
			RedirectPenalty:      1,
			MispredictPenalty:    3,
			PredictBackwardTaken: true,
		}
	}
	return Rules{RedirectPenalty: 1}
}

// The simulator shares the scheduler's pre-resolved placement
// representation: pipe.Prepared carries an instruction's timing group,
// compiled group and register accesses, and core.InstFlags caches the
// memory/trap predicates the grouping rules test. Timing memoizes one
// of each per static text index (via core.BlockSoA) so a 600k-step run
// resolves each of its few thousand static instructions exactly once.

const hwResolveCacheSize = 64 // power of two

// instKey folds an instruction into a resolve-cache index. Only mixing
// quality matters; collisions just evict.
func instKey(in sparc.Inst) uint64 {
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

// HW is the hardware issue engine: the spawn model's units and latencies
// plus the Rules. It is used two ways: statically (via HWPipeline) as the
// "compiler's" scheduling model when the workload generator pre-schedules
// code, and dynamically (via Timing) to measure execution.
//
// Placement probes the model's compiled tables (spawn.CompiledTables)
// against a ring of flat per-cycle unit counters, mirroring
// pipe.FastState: committed usage always lies in [clock, clock+horizon),
// so cycles at or beyond the window are known-free and rows are recycled
// as the clock advances. The ring has pipe.RingRows(horizon) rows, a
// power of two, and cycle c lives in row c&mask.
type HW struct {
	model *spawn.Model
	rules Rules
	tab   *spawn.CompiledTables

	resolver pipe.Resolver
	// rcache memoizes placement inputs per exact instruction for callers
	// without a per-static-index memo (HWPipeline scheduling probes);
	// direct-mapped, overwrite on collision.
	rcache [hwResolveCacheSize]struct {
		inst  sparc.Inst
		ok    bool
		flags core.InstFlags
		p     pipe.Prepared
	}

	horizon   int64 // window length; no group holds units this long
	mask      int64 // ring rows - 1
	nu        int   // units per row
	ring      []int32
	ready     [sparc.NumRegs]int64
	clock     int64
	fetchMin  int64 // earliest issue allowed by fetch (redirects, cache)
	lastStore int64 // issue cycle of the most recent store
}

// NewHW builds an issue engine for a model and rules.
func NewHW(model *spawn.Model, rules Rules) *HW {
	tab := model.Compiled()
	h := &HW{
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

// Reset clears all issue state (the per-instruction resolve memo is pure
// model data and survives).
func (h *HW) Reset() {
	h.clock = 0
	h.fetchMin = 0
	h.lastStore = -1
	clear(h.ring)
	for i := range h.ready {
		h.ready[i] = -1
	}
}

// Clock returns the issue cycle of the most recent instruction.
func (h *HW) Clock() int64 { return h.clock }

// Delay constrains the next instruction's issue to at least cycle c
// (fetch redirects, cache misses).
func (h *HW) Delay(c int64) {
	if c > h.fetchMin {
		h.fetchMin = c
	}
}

// prepare resolves inst's timing group and register accesses into p
// (shared with the scheduler: see pipe.NewPrepared).
func (h *HW) prepare(p *pipe.Prepared, inst *sparc.Inst) error {
	g, err := h.model.GroupOf(*inst)
	if err != nil {
		return err
	}
	reads, writes := h.resolver.Resolve(g, *inst)
	*p = pipe.NewPrepared(g, &h.tab.Groups[g.ID], reads, writes)
	return nil
}

// place finds the earliest issue cycle for inst; commit records it.
func (h *HW) place(inst *sparc.Inst, commit bool) (int64, error) {
	e := &h.rcache[instKey(*inst)&(hwResolveCacheSize-1)]
	if !e.ok || e.inst != *inst {
		if err := h.prepare(&e.p, inst); err != nil {
			e.ok = false
			return 0, err
		}
		e.flags = core.InstFlagsOf(*inst)
		e.inst, e.ok = *inst, true
	}
	return h.placePrepared(&e.p, e.flags, inst, commit)
}

// placePrepared is place with the resolution work already done. inst must
// be the instruction p was prepared from.
func (h *HW) placePrepared(p *pipe.Prepared, flags core.InstFlags, inst *sparc.Inst, commit bool) (int64, error) {
	if p.Spilled() {
		// Accesses exceed the inline arrays; re-resolve into the shared
		// scratch buffers (rare: no shipped description produces >6).
		g, err := h.model.GroupOf(*inst)
		if err != nil {
			return 0, err
		}
		reads, writes := h.resolver.Resolve(g, *inst)
		return h.placeResolved(p.Compiled(), flags, reads, writes, inst, commit)
	}
	reads, writes := p.Accesses()
	return h.placeResolved(p.Compiled(), flags, reads, writes, inst, commit)
}

// placeResolved runs the placement search against the compiled tables.
func (h *HW) placeResolved(cg *spawn.CompiledGroup, flags core.InstFlags, reads, writes []pipe.RegAccess, inst *sparc.Inst, commit bool) (int64, error) {
	if cg.Infeasible {
		return 0, fmt.Errorf("sim: cannot place %v", inst)
	}
	counts := h.tab.UnitCounts
	horizonEnd := h.clock + h.horizon

	t := h.clock
	if h.fetchMin > t {
		t = h.fetchMin
	}
	if h.rules.StoreLoadGap > 0 && flags&core.FlagLoad != 0 && h.lastStore >= 0 {
		if min := h.lastStore + h.rules.StoreLoadGap; min > t {
			t = min
		}
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
		h.commitAt(flags, cg, t, writes)
	}
	return t, nil
}

// commitAt records the placed instruction's effects. Ring rows whose
// cycles fall behind the new clock are zeroed before the new usage lands,
// because they may alias cycles inside the advanced window.
func (h *HW) commitAt(flags core.InstFlags, cg *spawn.CompiledGroup, t int64, writes []pipe.RegAccess) {
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
	if h.rules.MemEndsGroup && flags&(core.FlagLoad|core.FlagStore) != 0 {
		h.Delay(t + 1)
	}
	if flags&core.FlagStore != 0 {
		h.lastStore = t
	}
}

// HWPipeline adapts HW to the scheduler's Pipeline interface, so the
// workload generator can pre-schedule code the way the vendors' compilers
// did: against the real machine's grouping rules. An HWPipeline is not
// safe for concurrent use.
type HWPipeline struct {
	hw *HW
}

// NewHWPipeline returns a schedulable view of the hardware model.
func NewHWPipeline(model *spawn.Model, rules Rules) *HWPipeline {
	return &HWPipeline{hw: NewHW(model, rules)}
}

// Reset clears the pipeline state.
func (p *HWPipeline) Reset() { p.hw.Reset() }

// Stalls returns the issue delay inst would incur, without committing.
func (p *HWPipeline) Stalls(inst sparc.Inst) (int, error) {
	t, err := p.hw.place(&inst, false)
	if err != nil {
		return 0, err
	}
	return int(t - p.hw.clock), nil
}

// Issue commits inst and returns its stall count and issue cycle.
func (p *HWPipeline) Issue(inst sparc.Inst) (int, int64, error) {
	before := p.hw.clock
	t, err := p.hw.place(&inst, true)
	if err != nil {
		return 0, 0, err
	}
	if p.hw.rules.CTIEndsGroup && inst.IsCTI() {
		p.hw.Delay(t + 1)
	}
	return int(t - before), t, nil
}
