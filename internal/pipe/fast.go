package pipe

import (
	"fmt"

	"eel/internal/sparc"
	"eel/internal/spawn"
)

// FastState is the compiled, table-driven pipeline_stalls oracle: the
// Go analogue of the specialized function Spawn emits (paper §3.2,
// Appendix A). It answers the same queries as State — which remains the
// reference oracle differential tests check it against — but probes the
// model's precomputed tables (spawn.CompiledTables) against a fixed-size
// ring buffer of per-cycle unit-usage rows instead of interpreting event
// lists through an absolute-cycle map, and performs no allocation per
// probe. Committed usage always lies in the window
// [clock, clock+MaxHorizon), so a ring of at least MaxHorizon rows
// suffices and cycles at or beyond the window are known-free. The row
// count is rounded up to a power of two (RingRows) so a cycle finds its
// row with a mask instead of a division.
//
// Like State, a FastState is not safe for concurrent use.
type FastState struct {
	model *spawn.Model
	tab   *spawn.CompiledTables
	// clock is the earliest absolute cycle at which the next instruction
	// may issue; the ring row of absolute cycle c (clock <= c <
	// clock+horizon) starts at (c&mask)*nu. Rows of cycles outside that
	// window are zero.
	clock   int64
	horizon int64
	mask    int64 // RingRows(horizon) - 1
	nu      int
	ring    []int32
	writeCy [sparc.NumRegs]int64
	readCy  [sparc.NumRegs]int64

	resolver Resolver
	// attr, when non-nil, receives per-cycle hazard classification of
	// every committed placement's stalls (see attr.go); probes never
	// attribute. Classification rides the probe loop's own failure
	// branches, so the disabled path costs one nil test per rejected
	// cycle and the zero-alloc probe guarantee is untouched.
	attr *StallAttr
	// rcache memoizes register-access resolution and the group lookup per
	// exact instruction (direct-mapped, overwrite on collision). A block's
	// instructions are each resolved several times — scheduling probes,
	// the issue, and the scheduler's cost replays — and resolution walks
	// string-keyed field accesses, so the memo removes most of the probe
	// setup cost. Keying on the full Inst value makes hits exact.
	rcache [resolveCacheSize]resolveEntry
}

const resolveCacheSize = 64 // power of two, covers typical block sizes

type resolveEntry struct {
	inst   sparc.Inst
	g      *spawn.Group
	ok     bool
	nr, nw int8
	reads  [6]RegAccess
	writes [6]RegAccess
}

// instKey folds an instruction into a cache index. Only mixing quality
// matters here; collisions just evict.
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

// resolve returns inst's timing group and resolved register accesses,
// through the memo. The returned slices are read-only and valid until
// the next resolve call that misses on the same cache slot.
func (s *FastState) resolve(inst sparc.Inst) (*spawn.Group, []RegAccess, []RegAccess, *spawn.CompiledGroup, error) {
	e := &s.rcache[instKey(inst)&(resolveCacheSize-1)]
	if e.ok && e.inst == inst {
		return e.g, e.reads[:e.nr], e.writes[:e.nw], &s.tab.Groups[e.g.ID], nil
	}
	g, err := s.model.GroupOf(inst)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	cg := &s.tab.Groups[g.ID]
	reads, writes := s.resolver.resolveWith(g, inst, cg.DefaultRead, cg.DefaultWrite)
	if len(reads) <= len(e.reads) && len(writes) <= len(e.writes) {
		e.inst, e.g, e.ok = inst, g, true
		e.nr = int8(copy(e.reads[:], reads))
		e.nw = int8(copy(e.writes[:], writes))
		return g, e.reads[:e.nr], e.writes[:e.nw], cg, nil
	}
	e.ok = false
	return g, reads, writes, cg, nil
}

// Prepared carries one instruction's pre-resolved placement inputs:
// its compiled group and register accesses, copied into caller-owned
// storage. A scheduler probes and issues the same instruction several
// times per block; preparing once removes the resolution work from every
// subsequent probe. Prepared values are position-independent and stay
// valid for the lifetime of the FastState that produced them.
type Prepared struct {
	g      *spawn.Group
	cg     *spawn.CompiledGroup
	big    bool // accesses exceed the inline arrays; fall back to resolve
	nr, nw int8
	reads  [6]RegAccess
	writes [6]RegAccess
}

// Group returns the prepared instruction's timing group.
func (p *Prepared) Group() *spawn.Group { return p.g }

// Accesses returns the prepared instruction's resolved register reads
// and writes — the exact constraints placeResolved enforces, which is
// what makes latencies derived from them sound lower bounds on oracle
// behavior (the scheduler's exact search builds its critical-path bound
// from these). Both slices are nil when the accesses spilled the inline
// arrays (see big); callers must treat that as "unknown", never "none".
func (p *Prepared) Accesses() (reads, writes []RegAccess) {
	if p.big {
		return nil, nil
	}
	return p.reads[:p.nr], p.writes[:p.nw]
}

// Spilled reports whether the accesses exceeded the inline arrays, so
// probes against this Prepared fall back to full resolution.
func (p *Prepared) Spilled() bool { return p.big }

// Compiled returns the prepared instruction's compiled group.
func (p *Prepared) Compiled() *spawn.CompiledGroup { return p.cg }

// NewPrepared assembles a Prepared from already-resolved placement
// inputs, for callers that run their own resolution (the simulator
// keeps a per-static-instruction memo and shares this representation
// with the scheduler). Accesses beyond the inline capacity mark the
// value spilled, exactly as Prepare would.
func NewPrepared(g *spawn.Group, cg *spawn.CompiledGroup, reads, writes []RegAccess) Prepared {
	p := Prepared{g: g, cg: cg}
	if len(reads) > len(p.reads) || len(writes) > len(p.writes) {
		p.big = true
		return p
	}
	p.nr = int8(copy(p.reads[:], reads))
	p.nw = int8(copy(p.writes[:], writes))
	return p
}

// Prepare resolves inst once for repeated prepared probes.
func (s *FastState) Prepare(inst sparc.Inst) (Prepared, error) {
	var p Prepared
	g, reads, writes, cg, err := s.resolve(inst)
	if err != nil {
		return p, err
	}
	p.g, p.cg = g, cg
	if len(reads) > len(p.reads) || len(writes) > len(p.writes) {
		p.big = true
		return p, nil
	}
	p.nr = int8(copy(p.reads[:], reads))
	p.nw = int8(copy(p.writes[:], writes))
	return p, nil
}

// StallsPrepared is Stalls against pre-resolved placement inputs. The
// inst must be the one p was prepared from.
func (s *FastState) StallsPrepared(p *Prepared, inst sparc.Inst) (int, error) {
	if p.big {
		return s.Stalls(inst)
	}
	st, _, err := s.placeResolved(p.cg, inst, p.reads[:p.nr], p.writes[:p.nw], false)
	return st, err
}

// IssuePrepared is Issue against pre-resolved placement inputs.
func (s *FastState) IssuePrepared(p *Prepared, inst sparc.Inst) (int, int64, error) {
	if p.big {
		return s.Issue(inst)
	}
	return s.placeResolved(p.cg, inst, p.reads[:p.nr], p.writes[:p.nw], true)
}

// NewFastState returns an empty fast pipeline state for a machine model.
func NewFastState(m *spawn.Model) *FastState {
	t := m.Compiled()
	s := &FastState{model: m, tab: t, horizon: int64(t.MaxSpan), nu: len(m.Units)}
	if s.horizon < 1 {
		s.horizon = 1
	}
	rows := RingRows(s.horizon)
	s.mask = rows - 1
	s.ring = make([]int32, int(rows)*s.nu)
	s.Reset()
	return s
}

// RingRows is the row count of a unit-usage ring for a window of horizon
// cycles: horizon rounded up to a power of two. Any row count of at least
// horizon keeps the window's cycles on distinct rows; a power of two lets
// both hazard engines (FastState and the simulator's sim.HW) index a
// cycle's row as cycle&(rows-1).
func RingRows(horizon int64) int64 {
	rows := int64(1)
	for rows < horizon {
		rows <<= 1
	}
	return rows
}

// Model returns the machine model the state was built for.
func (s *FastState) Model() *spawn.Model { return s.model }

// SetAttribution attaches (or with nil detaches) a stall-attribution
// sink: every subsequent Issue classifies each stalled cycle by hazard
// kind into a, identically to the reference oracle's classification.
func (s *FastState) SetAttribution(a *StallAttr) {
	if a != nil {
		a.sizeUnits(s.nu)
	}
	s.attr = a
}

// Reset clears the state, e.g. at a basic-block boundary.
func (s *FastState) Reset() {
	s.clock = 0
	clear(s.ring)
	for i := range s.writeCy {
		// -1 sentinels: cycle 0 writes and reads must not self-conflict.
		s.writeCy[i] = -1
		s.readCy[i] = -1
	}
}

// Clock returns the earliest issue cycle for the next instruction.
func (s *FastState) Clock() int64 { return s.clock }

// Stalls computes how many cycles inst must wait before issuing, without
// modifying the state.
func (s *FastState) Stalls(inst sparc.Inst) (int, error) {
	st, _, err := s.place(inst, false)
	return st, err
}

// Issue places inst into the pipeline, committing its resource usage and
// register timing, and returns its stall count and absolute issue cycle.
func (s *FastState) Issue(inst sparc.Inst) (stalls int, issueCycle int64, err error) {
	return s.place(inst, true)
}

// place mirrors (*State).place cycle for cycle: retry the issue one cycle
// later until every held-unit entry finds enough free copies and every
// register access satisfies the RAW, WAR and WAW rules.
func (s *FastState) place(inst sparc.Inst, commit bool) (stalls int, issueCycle int64, err error) {
	_, reads, writes, cg, err := s.resolve(inst)
	if err != nil {
		return 0, 0, err
	}
	return s.placeResolved(cg, inst, reads, writes, commit)
}

// placeResolved is place with the group and register accesses already
// resolved (by resolve or a Prepared).
func (s *FastState) placeResolved(cg *spawn.CompiledGroup, inst sparc.Inst, reads, writes []RegAccess, commit bool) (stalls int, issueCycle int64, err error) {
	const maxStall = 1 << 16 // mirrors State's bound
	if cg.Infeasible {
		// The reference oracle would probe maxStall cycles and then give
		// up; the demand can never fit, so fail the same way immediately.
		return 0, 0, fmt.Errorf("pipe: cannot place %v within %d cycles", inst, maxStall)
	}
	counts := s.tab.UnitCounts
	horizonEnd := s.clock + s.horizon
probe:
	for t := s.clock; ; t++ {
		if t-s.clock > maxStall {
			return 0, 0, fmt.Errorf("pipe: cannot place %v within %d cycles", inst, maxStall)
		}
		// Structural hazards, sparse: only nonzero held entries checked.
		for _, e := range cg.NZ {
			abs := t + int64(e.Cycle)
			if abs >= horizonEnd {
				// No committed usage exists at or beyond the window.
				continue
			}
			if counts[e.Unit]-s.ring[(abs&s.mask)*int64(s.nu)+int64(e.Unit)] < int32(e.Num) {
				if commit && s.attr != nil {
					s.attr.structural(e.Unit)
				}
				continue probe
			}
		}
		// RAW: a read must not precede the value's availability.
		for _, r := range reads {
			if t+int64(r.Cycle) < s.writeCy[r.Reg] {
				if commit && s.attr != nil {
					s.attr.data(HazardRAW, r.Reg)
				}
				continue probe
			}
		}
		// WAW and WAR: the new value must become available strictly after
		// the previous value's availability and after its last read. The
		// availability rule is tested first, so an attributed cycle that
		// violates both counts as WAW — the same tie the reference
		// classifier breaks the same way.
		for _, w := range writes {
			avail := t + int64(w.Cycle)
			if avail <= s.writeCy[w.Reg] {
				if commit && s.attr != nil {
					s.attr.data(HazardWAW, w.Reg)
				}
				continue probe
			}
			if avail <= s.readCy[w.Reg] {
				if commit && s.attr != nil {
					s.attr.data(HazardWAR, w.Reg)
				}
				continue probe
			}
		}
		stalls = int(t - s.clock)
		if commit {
			s.commit(cg, t, reads, writes)
		}
		return stalls, t, nil
	}
}

// commit records the placed instruction's effects. Ring rows whose cycles
// fall behind the new clock are zeroed before the new usage lands, because
// they may alias cycles inside the advanced window. Rows of cycles past
// the old window are already zero, so after the commit only rows of
// [issue, issue+horizon) can hold usage.
func (s *FastState) commit(cg *spawn.CompiledGroup, issue int64, reads, writes []RegAccess) {
	nu := int64(s.nu)
	if issue > s.clock {
		if issue-s.clock >= s.horizon {
			clear(s.ring)
		} else {
			for c := s.clock; c < issue; c++ {
				row := (c & s.mask) * nu
				clear(s.ring[row : row+nu])
			}
		}
		s.clock = issue
	}
	for _, e := range cg.NZ {
		abs := issue + int64(e.Cycle)
		s.ring[(abs&s.mask)*nu+int64(e.Unit)] += int32(e.Num)
	}
	for _, r := range reads {
		if abs := issue + int64(r.Cycle); abs > s.readCy[r.Reg] {
			s.readCy[r.Reg] = abs
		}
	}
	for _, w := range writes {
		if abs := issue + int64(w.Cycle); abs > s.writeCy[w.Reg] {
			s.writeCy[w.Reg] = abs
		}
	}
}

// String renders a compact description of the state for debugging.
func (s *FastState) String() string {
	return fmt.Sprintf("pipe.FastState{clock=%d, horizon=%d}", s.clock, s.horizon)
}
