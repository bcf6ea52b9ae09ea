package eel

import (
	"errors"
	"fmt"
	"sort"

	"eel/internal/cfg"
	"eel/internal/core"
	"eel/internal/exe"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// This file is the executable-editing half of software pipelining
// (DESIGN.md §14): candidate discovery over the control-flow graph, the
// constant-trip-count proof the modulo scheduler's exit construction
// needs, and the greedy never-worse acceptance loop that splices
// prologue+kernel+epilogue rewrites into the text. The editor stays
// simulator-free: the whole-program cost of each candidate arrives
// through the Price callback, which production callers (cmd/schedloop)
// wire to the sim package's timing model.

// PipelineOptions configure a software-pipelining pass.
type PipelineOptions struct {
	// Machine selects the scheduling model. Required.
	Machine *spawn.Model
	// SWP passes through the modulo scheduler's search limits.
	SWP core.SWPOptions
	// Sched passes through scheduler options (aliasing rules) to the
	// underlying core scheduler.
	Sched core.Options
	// Price returns the whole-program cost of an executable — simulated
	// cycles on the target timing model, for production callers. A
	// candidate rewrite is accepted only when it strictly lowers the
	// incumbent's price, so the pass can never emit a costlier program
	// than its input. Required.
	Price func(*exe.Exe) (int64, error)
}

// LoopReport describes one natural loop the pipeliner considered, and
// what became of it.
type LoopReport struct {
	Header int `json:"header"` // old text index of the loop header
	Depth  int `json:"depth"`  // nesting depth (hotness rank)
	Blocks int `json:"blocks"` // blocks in the loop
	Body   int `json:"body"`   // schedulable body instructions
	Trip   int `json:"trip"`   // proven constant trip count (0 = unproven)

	// Modulo-scheduling results, present once the scheduler ran.
	II     int `json:"ii,omitempty"`
	MII    int `json:"mii,omitempty"`
	ResMII int `json:"res_mii,omitempty"`
	RecMII int `json:"rec_mii,omitempty"`
	Stages int `json:"stages,omitempty"`

	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"` // why not accepted

	// Text ranges for cycle attribution: the loop block in the input,
	// and the spliced replacement in the output (accepted loops only).
	OldStart int `json:"old_start"`
	OldLen   int `json:"old_len"`
	NewStart int `json:"new_start,omitempty"`
	NewLen   int `json:"new_len,omitempty"`
}

// PipelineResult is a software-pipelining pass's output: the rewritten
// executable (the unmodified input when nothing was accepted), its price
// against the input's, and the fate of every loop examined.
type PipelineResult struct {
	Exe      *exe.Exe     `json:"-"`
	BaseCost int64        `json:"base_cost"`
	Cost     int64        `json:"cost"`
	Loops    []LoopReport `json:"loops"`

	LoopsFound  int `json:"loops_found"`
	Irreducible int `json:"irreducible"`
	Candidates  int `json:"candidates"`
	Accepted    int `json:"accepted"`
}

// PipelineLoops software-pipelines the hot innermost loops of the opened
// executable. Candidates — innermost single-block natural loops whose
// back edge is a delay-slot CTI and whose trip count is a compile-time
// constant proven from the preheader — are tried hottest-first (deepest
// nesting first); each rewrite is priced whole-program by opts.Price and
// kept only when it strictly beats the best executable so far. The
// result is therefore never worse than the input, which is returned
// untouched when no loop wins.
//
// The pass is deterministic: candidate order, scheduling and splicing
// are all worker-count-independent, so the output bytes depend only on
// the input and options.
func (ed *Editor) PipelineLoops(opts PipelineOptions) (*PipelineResult, error) {
	if opts.Machine == nil {
		return nil, fmt.Errorf("eel: pipelining requested without a machine model")
	}
	if opts.Price == nil {
		return nil, fmt.Errorf("eel: pipelining requested without a cost model")
	}

	loops, irr := ed.graph.Loops()
	res := &PipelineResult{LoopsFound: len(loops), Irreducible: irr}

	// Examine every loop; candidates keep a nil Reason for now.
	type candidate struct {
		loop   *cfg.Loop
		trip   int
		report int // index into res.Loops
	}
	var cands []candidate
	for _, l := range loops {
		b := l.Header
		r := LoopReport{
			Header:   b.Start,
			Depth:    l.Depth,
			Blocks:   len(l.Blocks),
			Body:     len(b.Body()),
			OldStart: b.Start,
			OldLen:   b.End - b.Start,
		}
		trip, reason := ed.analyzeCandidate(l)
		r.Trip = trip
		r.Reason = reason
		res.Loops = append(res.Loops, r)
		if reason == "" {
			cands = append(cands, candidate{loop: l, trip: trip, report: len(res.Loops) - 1})
		}
	}
	res.Candidates = len(cands)

	// Hottest first: deepest nesting, then larger body, then text order —
	// a total order, so the greedy acceptance is deterministic.
	sort.SliceStable(cands, func(i, j int) bool {
		li, lj := cands[i].loop, cands[j].loop
		if li.Depth != lj.Depth {
			return li.Depth > lj.Depth
		}
		bi, bj := len(li.Header.Body()), len(lj.Header.Body())
		if bi != bj {
			return bi > bj
		}
		return li.Header.Start < lj.Header.Start
	})

	baseCost, err := opts.Price(ed.exe)
	if err != nil {
		return nil, fmt.Errorf("eel: pricing the input: %w", err)
	}
	res.BaseCost, res.Cost, res.Exe = baseCost, baseCost, ed.exe

	sched := ed.schedulerFor(opts.Machine, opts.Sched)
	accepted := make(map[int][]sparc.Inst)
	var starts []int // layout of the incumbent splice
	for _, c := range cands {
		r := &res.Loops[c.report]
		b := c.loop.Header
		pl, err := sched.PipelineLoop(b.Insts, c.trip, opts.SWP)
		if err != nil {
			if errors.Is(err, core.ErrNotPipelined) {
				r.Reason = err.Error()
				continue
			}
			return nil, fmt.Errorf("eel: pipelining loop at %d: %w", b.Start, err)
		}
		r.II, r.MII, r.ResMII, r.RecMII, r.Stages = pl.II, pl.MII, pl.ResMII, pl.RecMII, pl.Stages

		repl := make([]sparc.Inst, 0, len(pl.Prologue)+len(pl.Kernel)+len(pl.Epilogue))
		repl = append(repl, pl.Prologue...)
		repl = append(repl, pl.Kernel...)
		repl = append(repl, pl.Epilogue...)

		try := make(map[int][]sparc.Inst, len(accepted)+1)
		for k, v := range accepted {
			try[k] = v
		}
		try[b.Index] = repl
		x, tryStarts, err := ed.splice(try)
		if err != nil {
			return nil, fmt.Errorf("eel: splicing loop at %d: %w", b.Start, err)
		}
		cost, err := opts.Price(x)
		if err != nil {
			return nil, fmt.Errorf("eel: pricing loop at %d: %w", b.Start, err)
		}
		if cost >= res.Cost {
			r.Reason = fmt.Sprintf("no whole-program win: %d >= %d", cost, res.Cost)
			continue
		}
		accepted = try
		starts = tryStarts
		res.Exe, res.Cost = x, cost
		r.Accepted = true
		res.Accepted++
	}

	// Locate every accepted replacement in the final layout for cycle
	// attribution (later candidates may have shifted earlier ones).
	if res.Accepted > 0 {
		for i := range res.Loops {
			r := &res.Loops[i]
			if !r.Accepted {
				continue
			}
			r.NewStart = starts[r.OldStart]
			for _, b := range ed.graph.Blocks {
				if b.Start == r.OldStart {
					r.NewLen = len(accepted[b.Index])
				}
			}
		}
	}
	return res, nil
}

// analyzeCandidate decides whether a natural loop is pipelinable at the
// editing level and proves its constant trip count. It returns a
// non-empty reason when the loop must be left alone. The rules, each
// load-bearing for the exit construction or for layout correctness:
//
//   - innermost single-block loops only: the modulo scheduler handles
//     one block, and an inner loop inside the body would be rescheduled
//     incorrectly;
//   - the back edge is the block's own delay-slot CTI (bne, not
//     annulled); deeper shape checks belong to core.PipelineLoop;
//   - the counter idiom "subcc r, step, r" names the trip register; the
//     loop's unique preheader must end the register's def chain with
//     "or %g0, init, r" (the assembler's `set` for immediates), giving
//     trip = init/step exactly;
//   - nothing else may enter the loop: a second outside predecessor,
//     a call targeting the header, a call returning into the header, or
//     the program entry point at the header would bypass the prologue
//     (and the counter init), so any of them disqualifies the loop.
//     Indirect jumps (jmpl) only realise call return points in this
//     ISA's usage — the same assumption Edit's retargeting already
//     makes — so the call scans cover them.
func (ed *Editor) analyzeCandidate(l *cfg.Loop) (trip int, reason string) {
	if !l.Inner {
		return 0, "not innermost"
	}
	if !l.SingleBlock() {
		return 0, "multi-block body"
	}
	b := l.Header
	cti, _, ok := b.CTI()
	if !ok {
		return 0, "no back-edge CTI"
	}
	if cti.Op != sparc.OpBicc || cti.Cond != sparc.CondNE || cti.Annul {
		return 0, fmt.Sprintf("back edge %v is not a plain bne", cti.Mnemonic())
	}
	if len(b.Body()) == 0 {
		return 0, "empty body"
	}

	// The counter: last subcc-to-self in the body (delay slot included —
	// it executes inside the iteration). core.PipelineLoop re-validates
	// it as the unique condition-code writer.
	counter := sparc.G0
	step := 0
	_, delay, _ := b.CTI()
	for _, inst := range append(append([]sparc.Inst(nil), b.Body()...), delay) {
		if inst.Op == sparc.OpSubcc && inst.UseImm && inst.Rd == inst.Rs1 && inst.Rd != sparc.G0 && inst.Imm >= 1 {
			counter, step = inst.Rd, int(inst.Imm)
		}
	}
	if counter == sparc.G0 {
		return 0, "no counted-loop counter idiom"
	}

	pre := l.Preheader()
	if pre == nil {
		return 0, "no unique preheader"
	}

	// Trip count: the preheader's last write to the counter must be the
	// immediate-set idiom.
	init, initIdx := -1, -1
	var regs [4]sparc.Reg
	for i, inst := range pre.Insts {
		for _, d := range inst.Defs(regs[:0]) {
			if d != counter {
				continue
			}
			initIdx = i
			if inst.Op == sparc.OpOr && inst.UseImm && inst.Rs1 == sparc.G0 && int(inst.Imm) >= 1 {
				init = int(inst.Imm)
			} else {
				init = -1
			}
		}
	}
	if initIdx < 0 || init < 0 {
		return 0, "trip count not provable from the preheader"
	}
	// An annulled preheader CTI executes its delay slot only when taken;
	// a counter init there is skipped on the fall-through entry.
	if preCTI, _, ok := pre.CTI(); ok && preCTI.Annul && initIdx == len(pre.Insts)-1 {
		return 0, "counter initialised in an annulled delay slot"
	}
	if init%step != 0 {
		return 0, fmt.Sprintf("init %d is not a multiple of step %d", init, step)
	}
	trip = init / step

	// Side-entry scans over the whole text.
	for idx, inst := range ed.insts {
		if inst.Op != sparc.OpCall {
			continue
		}
		if idx+int(inst.Disp) == b.Start {
			return 0, "a call targets the loop header"
		}
		if idx+2 == b.Start {
			return 0, "a call returns into the loop header"
		}
	}
	if idx, err := ed.exe.IndexOf(ed.exe.Entry); err == nil && idx == b.Start {
		return 0, "the program entry is the loop header"
	}
	return trip, ""
}

// splice rebuilds the executable with the given block replacements
// (block index -> instruction sequence) and every other block unchanged.
// It returns the new image and the layout map from old block start index
// to new text index (assemble).
func (ed *Editor) splice(repl map[int][]sparc.Inst) (*exe.Exe, []int, error) {
	out := &exe.Exe{
		Entry:    ed.exe.Entry,
		TextBase: ed.exe.TextBase,
		DataBase: ed.exe.DataBase,
		Data:     append([]byte(nil), ed.exe.Data...),
		BSSSize:  ed.exe.BSSSize,
		Symbols:  append([]exe.Symbol(nil), ed.exe.Symbols...),
	}
	blocks := make([][]sparc.Inst, len(ed.graph.Blocks))
	replaced := make(map[int]bool, len(repl))
	for i, b := range ed.graph.Blocks {
		if r, ok := repl[i]; ok {
			blocks[i] = r
			replaced[i] = true
		} else {
			blocks[i] = b.Insts
		}
	}
	starts, err := ed.assemble(out, blocks, replaced)
	if err != nil {
		return nil, nil, err
	}
	return out, starts, nil
}
