// Package pipe implements the paper's pipeline_stalls computation
// (Appendix A): given the pipeline state left by previously issued
// instructions, how many cycles must the next instruction wait before it
// can enter the execution pipeline?
//
// The state tracks, per the paper, "history information, such as the last
// cycle in which each register was read and written and which units are
// currently acquired by previous instructions". Hazards covered: RAW, WAR,
// WAW and structural (unit) conflicts. Like the paper's models, this layer
// knows nothing about caches, prefetching or write buffers — those belong
// to the measurement substrate (package sim), and the gap between the two
// is exactly the effect the paper's Tables 1 and 2 tease apart.
package pipe

import (
	"fmt"

	"eel/internal/sparc"
	"eel/internal/spawn"
)

// RegAccess is a resolved register access: a concrete register and a
// cycle relative to instruction issue (read cycle, or first-available
// cycle for writes). Cycle is 32-bit so an access packs into 8 bytes:
// every Prepared carries twelve of them, and the simulator keeps one
// Prepared per static instruction.
type RegAccess struct {
	Reg   sparc.Reg
	Cycle int32
}

// State is the execution-pipeline state threaded through a straight-line
// instruction sequence. The zero value is not usable; call NewState.
//
// A State is not safe for concurrent use: it holds per-sequence history
// and scratch buffers. Concurrent schedulers (core.ScheduleBlocks) give
// every worker goroutine its own State.
type State struct {
	model *spawn.Model
	// clock is the earliest absolute cycle at which the next instruction
	// may issue (in-order issue: never before its predecessor).
	clock int64
	// usage[c][u] is the number of copies of unit u committed by previous
	// instructions during absolute cycle c.
	usage map[int64][]int
	// writeCy[r] is the absolute cycle from which register r's latest
	// value is available; readCy[r] the last absolute cycle it is read.
	writeCy [sparc.NumRegs]int64
	readCy  [sparc.NumRegs]int64

	// scratch buffers reused across calls.
	resolver Resolver
	held     [][]int
	// attr, when non-nil, receives per-cycle hazard classification of
	// every committed placement's stalls (see attr.go). Probes never
	// attribute, so the scheduler's probe storm stays untouched.
	attr *StallAttr
}

// NewState returns an empty pipeline state for a machine model.
func NewState(m *spawn.Model) *State {
	s := &State{model: m}
	s.usage = make(map[int64][]int)
	s.Reset()
	return s
}

// Model returns the machine model the state was built for.
func (s *State) Model() *spawn.Model { return s.model }

// SetAttribution attaches (or with nil detaches) a stall-attribution
// sink: every subsequent Issue classifies each stalled cycle by hazard
// kind into a. The sink's Unit table is sized for the model.
func (s *State) SetAttribution(a *StallAttr) {
	if a != nil {
		a.sizeUnits(len(s.model.Units))
	}
	s.attr = a
}

// Reset clears the state, e.g. at a basic-block boundary.
func (s *State) Reset() {
	s.clock = 0
	clear(s.usage)
	for i := range s.writeCy {
		// -1 sentinels: cycle 0 writes and reads must not self-conflict.
		s.writeCy[i] = -1
		s.readCy[i] = -1
	}
}

// Clock returns the earliest issue cycle for the next instruction.
func (s *State) Clock() int64 { return s.clock }

// Stalls computes how many cycles inst must wait before issuing, without
// modifying the state. It is the paper's pipeline_stalls.
func (s *State) Stalls(inst sparc.Inst) (int, error) {
	st, _, _, err := s.place(inst, false)
	return st, err
}

// Issue places inst into the pipeline, committing its resource usage and
// register timing, and returns its stall count and absolute issue cycle.
func (s *State) Issue(inst sparc.Inst) (stalls int, issueCycle int64, err error) {
	st, issue, _, err := s.place(inst, true)
	return st, issue, err
}

// SequenceCycles returns the number of cycles a straight-line sequence
// occupies on an empty pipeline: the issue cycle of the last instruction
// plus its remaining pipeline occupancy.
func SequenceCycles(m *spawn.Model, insts []sparc.Inst) (int64, error) {
	s := NewState(m)
	var end int64
	for _, inst := range insts {
		g, err := m.GroupOf(inst)
		if err != nil {
			return 0, err
		}
		_, issue, err := s.Issue(inst)
		if err != nil {
			return 0, err
		}
		if e := issue + int64(g.Cycles); e > end {
			end = e
		}
	}
	return end, nil
}

// place computes the earliest issue cycle for inst. The paper defines the
// scheduler's key metric as "the number of cycles that the next instruction
// must wait before entering the execution pipeline": placement retries one
// cycle later until, at some issue cycle t, every unit acquisition in every
// relative cycle finds enough free copies (structural hazards) and every
// register access satisfies the RAW, WAR and WAW rules. When commit is true
// the instruction's resource usage and register timing are recorded.
func (s *State) place(inst sparc.Inst, commit bool) (stalls int, issueCycle int64, group *spawn.Group, err error) {
	g, err := s.model.GroupOf(inst)
	if err != nil {
		return 0, 0, nil, err
	}
	reads, writes := s.resolver.Resolve(g, inst)
	held := s.heldProfile(g)

	const maxStall = 1 << 16 // descriptions are balanced, so usage drains
	for t := s.clock; ; t++ {
		if t-s.clock > maxStall {
			return 0, 0, nil, fmt.Errorf("pipe: cannot place %v within %d cycles", inst, maxStall)
		}
		if !s.fits(g, held, t, reads, writes) {
			if commit && s.attr != nil {
				s.classify(held, t, reads, writes)
			}
			continue
		}
		stalls = int(t - s.clock)
		if commit {
			s.commit(g, held, t, reads, writes)
		}
		return stalls, t, g, nil
	}
}

// heldProfile returns, per relative cycle, the unit copies the group holds
// during that cycle (releases in a cycle apply before acquisitions, per the
// paper's rule). Row storage is recycled across calls, so a steady-state
// probe allocates nothing.
func (s *State) heldProfile(g *spawn.Group) [][]int {
	nu := len(s.model.Units)
	span := len(g.Acquire)
	for len(s.held) < span {
		s.held = append(s.held, make([]int, nu))
	}
	held := s.held[:span]
	for k := 0; k < span; k++ {
		row := held[k]
		if k == 0 {
			clear(row)
		} else {
			copy(row, held[k-1])
		}
		for _, e := range g.Release[k] {
			row[e.Unit] -= e.Num
		}
		for _, e := range g.Acquire[k] {
			row[e.Unit] += e.Num
		}
	}
	return held
}

// fits reports whether the instruction can issue at absolute cycle t.
func (s *State) fits(g *spawn.Group, held [][]int, t int64, reads, writes []RegAccess) bool {
	// Structural hazards: every cycle's holdings must fit the free units.
	for k, row := range held {
		abs := t + int64(k)
		for u, n := range row {
			if n > 0 && s.unitsFree(abs, u) < n {
				return false
			}
		}
	}
	// RAW: a read must not precede the value's availability.
	for _, r := range reads {
		if t+int64(r.Cycle) < s.writeCy[r.Reg] {
			return false
		}
	}
	// WAW and WAR: the new value must become available strictly after the
	// previous value's availability and after the old value's last read.
	for _, w := range writes {
		avail := t + int64(w.Cycle)
		if avail <= s.writeCy[w.Reg] || avail <= s.readCy[w.Reg] {
			return false
		}
	}
	return true
}

// classify attributes one rejected candidate issue cycle t to the first
// failing constraint, in fits's exact check order, and records it in
// s.attr. It is only called for cycles fits rejected, so one check must
// fail.
func (s *State) classify(held [][]int, t int64, reads, writes []RegAccess) {
	for k, row := range held {
		abs := t + int64(k)
		for u, n := range row {
			if n > 0 && s.unitsFree(abs, u) < n {
				s.attr.structural(u)
				return
			}
		}
	}
	for _, r := range reads {
		if t+int64(r.Cycle) < s.writeCy[r.Reg] {
			s.attr.data(HazardRAW, r.Reg)
			return
		}
	}
	for _, w := range writes {
		avail := t + int64(w.Cycle)
		if avail <= s.writeCy[w.Reg] {
			s.attr.data(HazardWAW, w.Reg)
			return
		}
		if avail <= s.readCy[w.Reg] {
			s.attr.data(HazardWAR, w.Reg)
			return
		}
	}
	// Unreachable while classify mirrors fits; counting it keeps the
	// totals honest if the two ever drift.
	s.attr.Kind[HazardStructural]++
	s.attr.Total++
}

// commit records the placed instruction's effects on the state.
func (s *State) commit(g *spawn.Group, held [][]int, issue int64, reads, writes []RegAccess) {
	for k, row := range held {
		abs := issue + int64(k)
		u := s.usage[abs]
		if u == nil {
			u = make([]int, len(s.model.Units))
			s.usage[abs] = u
		}
		for ui, n := range row {
			u[ui] += n
		}
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
	// In-order issue: the next instruction cannot issue earlier.
	if issue > s.clock {
		for c := range s.usage {
			if c < issue {
				delete(s.usage, c)
			}
		}
		s.clock = issue
	}
}

// unitsFree returns the free copies of a unit in an absolute cycle.
func (s *State) unitsFree(cycle int64, unit int) int {
	free := s.model.Units[unit].Count
	if u, ok := s.usage[cycle]; ok {
		free -= u[unit]
	}
	return free
}

// Resolver maps a timing group's field accesses onto an instruction's
// concrete registers, reusing buffers across calls. The group supplies the
// WHEN (cycles); the decoded instruction supplies the WHICH (registers,
// via Uses/Defs), making the resolution robust for register pairs,
// condition codes and the Y register. Reads/writes of %g0 carry no
// dependence and are dropped.
type Resolver struct {
	reads  []RegAccess
	writes []RegAccess
	regbuf []sparc.Reg
}

// Resolve returns the resolved reads and writes of inst under group g.
// The returned slices are valid until the next call.
func (s *Resolver) Resolve(g *spawn.Group, inst sparc.Inst) (reads, writes []RegAccess) {
	defaultRead := 1
	if len(g.Reads) > 0 {
		defaultRead = g.Reads[0].Cycle
		for _, r := range g.Reads {
			if r.Cycle < defaultRead {
				defaultRead = r.Cycle
			}
		}
	}
	defaultWrite := g.Cycles
	if len(g.Writes) > 0 {
		defaultWrite = 0
		for _, w := range g.Writes {
			if w.Cycle > defaultWrite {
				defaultWrite = w.Cycle
			}
		}
	}
	return s.resolveWith(g, inst, defaultRead, defaultWrite)
}

// resolveWith is Resolve with the fallback cycles supplied by the caller
// (FastState reads them from the compiled tables instead of rescanning the
// group's access lists on every probe).
func (s *Resolver) resolveWith(g *spawn.Group, inst sparc.Inst, defaultRead, defaultWrite int) (reads, writes []RegAccess) {
	s.reads = s.reads[:0]
	s.writes = s.writes[:0]

	s.regbuf = inst.Uses(s.regbuf[:0])
	for _, r := range s.regbuf {
		if r == sparc.G0 {
			continue
		}
		s.reads = append(s.reads, RegAccess{Reg: r, Cycle: int32(accessCycle(g.Reads, inst, r, defaultRead))})
	}
	s.regbuf = inst.Defs(s.regbuf[:0])
	for _, w := range s.regbuf {
		if w == sparc.G0 {
			continue
		}
		s.writes = append(s.writes, RegAccess{Reg: w, Cycle: int32(accessCycle(g.Writes, inst, w, defaultWrite))})
	}
	return s.reads, s.writes
}

// accessCycle finds the cycle recorded for the field that names register r
// in instruction inst, or def if the description did not mention it.
func accessCycle(accs []spawn.FieldAccess, inst sparc.Inst, r sparc.Reg, def int) int {
	for _, a := range accs {
		if fieldNamesReg(a, inst, r) {
			return a.Cycle
		}
	}
	return def
}

// fieldNamesReg reports whether field access a designates register r for
// instruction inst.
func fieldNamesReg(a spawn.FieldAccess, inst sparc.Inst, r sparc.Reg) bool {
	switch a.File {
	case "R":
		if !r.IsInt() {
			return false
		}
	case "F":
		if !r.IsFloat() {
			return false
		}
	case "CC":
		if a.Index == 0 {
			return r == sparc.ICC
		}
		return r == sparc.FCC
	case "Y":
		return r == sparc.YReg
	default:
		return false
	}
	switch a.Field {
	case "rs1":
		return r == inst.Rs1 || pairOf(inst, inst.Rs1, r)
	case "rs2":
		return r == inst.Rs2 || pairOf(inst, inst.Rs2, r)
	case "rd":
		return r == inst.Rd || pairOf(inst, inst.Rd, r)
	case "":
		if a.File == "R" {
			return r == sparc.Reg(a.Index)
		}
		if a.File == "F" {
			return r == sparc.FReg(a.Index)
		}
	}
	return false
}

// pairOf reports whether r is the odd half of a doubleword pair rooted at
// base for this instruction.
func pairOf(inst sparc.Inst, base, r sparc.Reg) bool {
	if !inst.Op.Doubleword() && !fpDoubleOp(inst.Op) {
		return false
	}
	return r == base+1
}

func fpDoubleOp(op sparc.Op) bool {
	switch op {
	case sparc.OpFaddd, sparc.OpFsubd, sparc.OpFmuld, sparc.OpFdivd,
		sparc.OpFsqrtd, sparc.OpFcmpd, sparc.OpFitod, sparc.OpFstod:
		return true
	}
	return false
}

// String renders a compact description of the state for debugging.
func (s *State) String() string {
	return fmt.Sprintf("pipe.State{clock=%d, pending=%d cycles}", s.clock, len(s.usage))
}
