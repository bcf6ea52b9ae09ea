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
// The same engine is the hardware issue model (NewHardwareState): the
// simulator's timing and the workload generator's compiler run it with
// the machine's Rules, a fetch floor (Delay) and no WAR tracking.
//
// Like State, a FastState is not safe for concurrent use.
type FastState struct {
	model *spawn.Model
	tab   *spawn.CompiledTables
	// clock is the issue cycle of the most recent instruction and the
	// earliest cycle the next one may issue at; the ring row of absolute
	// cycle c (clock <= c < clock+horizon) starts at (c&mask)*nu. Rows of
	// cycles outside that window are zero.
	clock   int64
	horizon int64
	mask    int64 // RingRows(horizon) - 1
	nu      int
	ring    []int32
	writeCy [sparc.NumRegs]int64
	readCy  [sparc.NumRegs]int64
	// floor is the fetch floor: no instruction issues before it. Delay
	// and the group-ending rules raise it; SADL oracles never do.
	floor int64

	// hardware marks a NewHardwareState engine: rules apply and WAR is
	// not tracked (readCy stays at its Reset sentinel).
	hardware bool
	rules    Rules

	resolver Resolver
	// attr, when non-nil, receives per-cycle hazard classification of
	// every committed placement's stalls (see attr.go); probes never
	// attribute. Classification rides the probe loop's own failure
	// branches, so the disabled path costs one nil test per rejected
	// cycle and the zero-alloc probe guarantee is untouched.
	attr *StallAttr
	// rcache memoizes placement inputs per exact instruction
	// (direct-mapped, overwrite on collision). A block's instructions
	// are each resolved several times — scheduling probes, the issue,
	// and the scheduler's cost replays — and resolution walks
	// string-keyed field accesses, so the memo removes most of the probe
	// setup cost. Keying on the full Inst value makes hits exact.
	rcache [resolveCacheSize]resolveEntry
}

// Rules are issue rules of the real machines that the SADL descriptions
// deliberately do not model (the paper's descriptions "only model the
// execution pipelines themselves"). Only a hardware state
// (NewHardwareState) applies them, so EEL's scheduler cannot see them —
// one source of the paper's de-scheduling effect.
type Rules struct {
	// MemEndsGroup makes a load or store the last instruction of its
	// issue group: nothing issues with it in the same cycle after it.
	MemEndsGroup bool
	// CTIEndsGroup makes a control transfer the last instruction of its
	// issue group.
	CTIEndsGroup bool
}

const resolveCacheSize = 64 // power of two, covers typical block sizes

type resolveEntry struct {
	inst sparc.Inst
	ok   bool
	p    Prepared
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

// resolve returns inst's placement inputs through the memo. The result
// is read-only and valid until the next resolve that misses on the same
// cache slot.
func (s *FastState) resolve(inst sparc.Inst) (*Prepared, error) {
	e := &s.rcache[instKey(inst)&(resolveCacheSize-1)]
	if e.ok && e.inst == inst {
		return &e.p, nil
	}
	e.ok = false
	g, err := s.model.GroupOf(inst)
	if err != nil {
		return nil, err
	}
	cg := &s.tab.Groups[g.ID]
	reads, writes := s.resolver.resolveWith(g, inst, cg.DefaultRead, cg.DefaultWrite)
	e.p = Prepared{g: g, cg: cg, kind: kindOf(inst)}
	if len(reads) > len(e.p.reads) || len(writes) > len(e.p.writes) {
		e.p.big = true
	} else {
		e.p.nr = int8(copy(e.p.reads[:], reads))
		e.p.nw = int8(copy(e.p.writes[:], writes))
	}
	e.inst, e.ok = inst, true
	return &e.p, nil
}

// Instruction kinds the hardware rules test, cached in Prepared.kind.
const (
	kindMem uint8 = 1 << iota // load or store
	kindCTI                   // control transfer
)

func kindOf(inst sparc.Inst) uint8 {
	switch {
	case inst.Op.IsLoad() || inst.Op.IsStore():
		return kindMem
	case inst.IsCTI():
		return kindCTI
	}
	return 0
}

// Prepared carries one instruction's pre-resolved placement inputs:
// its compiled group, its kind and its register accesses, copied into
// caller-owned storage. A scheduler probes and issues the same
// instruction several times per block, and the simulator executes the
// same static instruction many times; preparing once removes the
// resolution work from every later probe. Prepared values are
// position-independent and stay valid for the lifetime of the FastState
// that produced them; the zero value (nil Group) is "not prepared".
type Prepared struct {
	g      *spawn.Group
	cg     *spawn.CompiledGroup
	big    bool  // accesses exceed the inline arrays; re-resolve per probe
	kind   uint8 // kindMem/kindCTI, for the hardware rules
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

// Prepare resolves inst once for repeated prepared probes.
func (s *FastState) Prepare(inst sparc.Inst) (Prepared, error) {
	p, err := s.resolve(inst)
	if err != nil {
		return Prepared{}, err
	}
	return *p, nil
}

// StallsPrepared is Stalls against pre-resolved placement inputs. The
// inst must be the one p was prepared from.
func (s *FastState) StallsPrepared(p *Prepared, inst sparc.Inst) (int, error) {
	st, _, err := s.placeResolved(p, &inst, false)
	return st, err
}

// IssuePrepared is Issue against pre-resolved placement inputs.
func (s *FastState) IssuePrepared(p *Prepared, inst sparc.Inst) (int, int64, error) {
	return s.placeResolved(p, &inst, true)
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

// NewHardwareState returns the hardware issue engine for a machine
// model: a FastState that applies rules and the fetch floor, and does
// not track WAR hazards because the hardware reads an instruction's
// operands when it issues, so a later write cannot overtake the read.
// The simulator times execution on it, and the workload generator's
// compiler schedules and prices code against it.
func NewHardwareState(m *spawn.Model, rules Rules) *FastState {
	s := NewFastState(m)
	s.hardware, s.rules = true, rules
	return s
}

// RingRows is the row count of a unit-usage ring for a window of horizon
// cycles: horizon rounded up to a power of two. Any row count of at least
// horizon keeps the window's cycles on distinct rows; a power of two lets
// FastState index a cycle's row as cycle&(rows-1).
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
	s.floor = 0
	clear(s.ring)
	for i := range s.writeCy {
		// -1 sentinels: cycle 0 writes and reads must not self-conflict.
		s.writeCy[i] = -1
		s.readCy[i] = -1
	}
}

// Clock returns the issue cycle of the most recent instruction.
func (s *FastState) Clock() int64 { return s.clock }

// Delay raises the fetch floor: the next instruction issues at cycle c
// or later (fetch redirects and cache misses in the simulator).
func (s *FastState) Delay(c int64) {
	if c > s.floor {
		s.floor = c
	}
}

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

// place mirrors (*State).place: it finds the earliest cycle at which
// every held-unit entry finds enough free copies and every register
// access satisfies the RAW, WAR and WAW rules.
func (s *FastState) place(inst sparc.Inst, commit bool) (stalls int, issueCycle int64, err error) {
	p, err := s.resolve(inst)
	if err != nil {
		return 0, 0, err
	}
	return s.placeResolved(p, &inst, commit)
}

// placeResolved places inst, whose prepared inputs are p, at the
// earliest issue cycle at or after the clock and the fetch floor. Cycles
// the floor skips are fetch stalls, not hazards, so an attribution sink
// does not see them. Spilled accesses are re-resolved into the
// resolver's scratch (rare: no shipped description produces more than
// six).
func (s *FastState) placeResolved(p *Prepared, inst *sparc.Inst, commit bool) (stalls int, issueCycle int64, err error) {
	const maxStall = 1 << 16 // mirrors State's bound
	cg := p.cg
	reads, writes := p.reads[:p.nr], p.writes[:p.nw]
	if p.big {
		reads, writes = s.resolver.resolveWith(p.g, *inst, cg.DefaultRead, cg.DefaultWrite)
	}
	if cg.Infeasible {
		// The reference oracle would probe maxStall cycles and then give
		// up; the demand can never fit, so fail the same way immediately.
		return 0, 0, fmt.Errorf("pipe: cannot place %v within %d cycles", *inst, maxStall)
	}
	attr := s.attr
	if !commit {
		attr = nil
	}
	t := max(s.clock, s.floor)
	if attr == nil {
		// Every cycle before a read's operand is ready fails the RAW test
		// below, so start there instead of stepping through them. The
		// attributed path steps, because it classifies each cycle.
		for _, r := range reads {
			if need := s.writeCy[r.Reg] - int64(r.Cycle); need > t {
				t = need
			}
		}
	}
	counts := s.tab.UnitCounts
	horizonEnd := s.clock + s.horizon
probe:
	for ; ; t++ {
		if t-s.clock > maxStall {
			return 0, 0, fmt.Errorf("pipe: cannot place %v within %d cycles", *inst, maxStall)
		}
		// Structural hazards, sparse: only nonzero held entries checked.
		for _, e := range cg.NZ {
			abs := t + int64(e.Cycle)
			if abs >= horizonEnd {
				// No committed usage exists at or beyond the window.
				continue
			}
			if counts[e.Unit]-s.ring[(abs&s.mask)*int64(s.nu)+int64(e.Unit)] < int32(e.Num) {
				if attr != nil {
					attr.structural(e.Unit)
				}
				continue probe
			}
		}
		// RAW: a read must not precede the value's availability.
		for _, r := range reads {
			if t+int64(r.Cycle) < s.writeCy[r.Reg] {
				if attr != nil {
					attr.data(HazardRAW, r.Reg)
				}
				continue probe
			}
		}
		// WAW and WAR: the new value must become available strictly after
		// the previous value's availability and after its last read. The
		// availability rule is tested first, so an attributed cycle that
		// violates both counts as WAW — the same tie the reference
		// classifier breaks the same way. A hardware state never records
		// a read, so its WAR test always passes.
		for _, w := range writes {
			avail := t + int64(w.Cycle)
			if avail <= s.writeCy[w.Reg] {
				if attr != nil {
					attr.data(HazardWAW, w.Reg)
				}
				continue probe
			}
			if avail <= s.readCy[w.Reg] {
				if attr != nil {
					attr.data(HazardWAR, w.Reg)
				}
				continue probe
			}
		}
		stalls = int(t - s.clock)
		if commit {
			s.commit(p, t, reads, writes)
		}
		return stalls, t, nil
	}
}

// commit records the placed instruction's effects. Ring rows whose cycles
// fall behind the new clock are zeroed before the new usage lands, because
// they may alias cycles inside the advanced window. Rows of cycles past
// the old window are already zero, so after the commit only rows of
// [issue, issue+horizon) can hold usage.
func (s *FastState) commit(p *Prepared, issue int64, reads, writes []RegAccess) {
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
	for _, e := range p.cg.NZ {
		abs := issue + int64(e.Cycle)
		s.ring[(abs&s.mask)*nu+int64(e.Unit)] += int32(e.Num)
	}
	if !s.hardware {
		for _, r := range reads {
			if abs := issue + int64(r.Cycle); abs > s.readCy[r.Reg] {
				s.readCy[r.Reg] = abs
			}
		}
	}
	for _, w := range writes {
		if abs := issue + int64(w.Cycle); abs > s.writeCy[w.Reg] {
			s.writeCy[w.Reg] = abs
		}
	}
	if p.kind&kindMem != 0 && s.rules.MemEndsGroup || p.kind&kindCTI != 0 && s.rules.CTIEndsGroup {
		s.floor = issue + 1
	}
}

// String renders a compact description of the state for debugging.
func (s *FastState) String() string {
	return fmt.Sprintf("pipe.FastState{clock=%d, horizon=%d}", s.clock, s.horizon)
}
