// Package eel is the executable editing library: the Go counterpart of
// EEL (Larus & Schnarr, PLDI '95) extended with the instruction scheduler
// of the MICRO-29 paper. Its pipeline is the paper's Figure 3:
//
//	Executable -> Analyse -> (tool selects and places instrumentation)
//	           -> Schedule -> new Executable
//
// Scheduling happens per basic block as the block is laid out in the new
// executable, so original and instrumentation instructions are scheduled
// together.
package eel

import (
	"context"
	"fmt"
	"sync"

	"eel/internal/cfg"
	"eel/internal/core"
	"eel/internal/exe"
	"eel/internal/obs"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// Editor holds an opened executable and its analysis.
//
// An Editor is safe for concurrent use: the executable, its decoded
// instructions and its control-flow graph are immutable after Open, the
// schedule cache is internally sharded and locked, and every Edit call
// builds its output into private state. Schedulers are memoized per
// editing configuration (schedulerFor), so concurrent Edit calls with
// the same options share one worker pool and one cache instead of paying
// pool spin-up per call — the shape a long-running service (cmd/eeld)
// needs.
type Editor struct {
	exe   *exe.Exe
	insts []sparc.Inst
	graph *cfg.Graph
	// cache memoizes per-block schedules across this editor's Edit
	// passes, so repeated editing of hot blocks skips rescheduling. It
	// may be shared with other Editors (OpenShared).
	cache *core.Cache

	// schedMu guards scheds, the per-configuration scheduler memo.
	// core.Scheduler is safe for concurrent ScheduleBlocks use, so one
	// instance serves every in-flight Edit with the same options.
	schedMu sync.Mutex
	scheds  map[schedKey]*core.Scheduler
}

// schedKey identifies a memoizable scheduling configuration: everything
// in core.Options that changes scheduler construction. Tracing
// schedulers are never memoized (the sink is per-run state).
type schedKey struct {
	machine         spawn.Machine
	conservativeMem bool
	chainFirst      bool
	noReorder       bool
	oracle          core.Oracle
	engine          core.Engine
	workers         int
	cache           *core.Cache
	obs             *obs.Registry
}

// Open decodes an executable's text segment and builds its control-flow
// graph. The editor gets a private schedule cache; services sharing one
// cache across many executables use OpenShared.
func Open(x *exe.Exe) (*Editor, error) {
	return OpenShared(x, core.NewCache(0))
}

// OpenShared is Open with a caller-supplied schedule cache, so many
// Editors (one per admitted executable, in cmd/eeld) share one sharded,
// spillable cache. cache must not be nil.
func OpenShared(x *exe.Exe, cache *core.Cache) (*Editor, error) {
	if cache == nil {
		return nil, fmt.Errorf("eel: OpenShared needs a cache")
	}
	if err := x.Validate(); err != nil {
		return nil, err
	}
	insts, err := sparc.DecodeAll(x.Text)
	if err != nil {
		return nil, fmt.Errorf("eel: %w", err)
	}
	graph, err := cfg.Build(insts)
	if err != nil {
		return nil, fmt.Errorf("eel: %w", err)
	}
	return &Editor{exe: x, insts: insts, graph: graph, cache: cache}, nil
}

// Exe returns the opened executable.
func (ed *Editor) Exe() *exe.Exe { return ed.exe }

// Graph returns the executable's control-flow graph.
func (ed *Editor) Graph() *cfg.Graph { return ed.graph }

// Insts returns the decoded text segment.
func (ed *Editor) Insts() []sparc.Inst { return ed.insts }

// Cache returns the editor's schedule cache, shared by every Edit pass
// that does not override Options.Sched.Cache. Callers inspect it for
// effectiveness reporting (hit/miss counts, shard occupancy).
func (ed *Editor) Cache() *core.Cache { return ed.cache }

// Instrumenter is a tool that selects and places instrumentation (the
// "Profiling Tool" box in Figure 3). Setup runs once, after analysis, and
// may extend the executable's data segment (e.g. to allocate counters);
// Instrument returns the instructions to insert at the top of each block,
// marked Instrumented, or nil to leave the block alone.
type Instrumenter interface {
	Setup(ed *Editor) error
	Instrument(b *cfg.Block) []sparc.Inst
}

// Scheduler reorders every block of an edit; core.Scheduler implements
// it. blocks arrive in block order and the result must match them one
// for one. The workload generator plugs in a stronger best-of-N scheduler
// here to play the role of the vendor compiler. ctx may carry a request
// trace (obs.WithTraceParent) under which a scheduler records its own
// phase spans.
type Scheduler interface {
	ScheduleBlocksCtx(ctx context.Context, blocks [][]sparc.Inst) ([][]sparc.Inst, error)
}

// Options configure an editing pass.
type Options struct {
	// Machine selects the scheduling model. Required when Schedule is set.
	Machine *spawn.Model
	// Schedule reorders each edited block (original and instrumentation
	// instructions together) with the paper's list scheduler.
	Schedule bool
	// Sched passes through scheduler options (aliasing rules, ablations).
	Sched core.Options
	// Scheduler, when non-nil, replaces the editor's memoized
	// core.Scheduler (built from Machine and Sched) when Schedule is set.
	// Sched is then ignored.
	Scheduler Scheduler
}

// Edit produces a new executable: instrumentation from tool (which may be
// nil for a pure rescheduling pass) is inserted block by block, blocks are
// optionally scheduled, the text is re-laid-out, and branch and call
// displacements are re-encoded. The input executable is not modified.
func (ed *Editor) Edit(tool Instrumenter, opts Options) (*exe.Exe, error) {
	return ed.EditCtx(context.Background(), tool, opts)
}

// EditCtx is Edit with an optional request trace carried in ctx
// (obs.WithTrace): the edit's phases are recorded as eel.instrument /
// eel.schedule / eel.layout child spans, with the scheduler's own phase
// spans nested under eel.schedule. The trace travels only through the
// context — never through Options — so scheduler memoization
// (schedulerFor) is unaffected by tracing.
func (ed *Editor) EditCtx(ctx context.Context, tool Instrumenter, opts Options) (*exe.Exe, error) {
	if opts.Schedule && opts.Machine == nil {
		return nil, fmt.Errorf("eel: scheduling requested without a machine model")
	}
	// Work on a copy so the tool's Setup (data allocation) cannot corrupt
	// the original image.
	out := &exe.Exe{
		Entry:    ed.exe.Entry,
		TextBase: ed.exe.TextBase,
		DataBase: ed.exe.DataBase,
		Data:     append([]byte(nil), ed.exe.Data...),
		BSSSize:  ed.exe.BSSSize,
		Symbols:  append([]exe.Symbol(nil), ed.exe.Symbols...),
	}
	// Phases are recorded on the request trace when ctx carries one;
	// with no trace every span call is a nil no-op.
	tr, parent := obs.TraceParentFrom(ctx)

	edited := &Editor{exe: out, insts: ed.insts, graph: ed.graph}
	if tool != nil {
		span := tr.StartChild("eel.setup", parent)
		err := tool.Setup(edited)
		span.End()
		if err != nil {
			return nil, fmt.Errorf("eel: instrumenter setup: %w", err)
		}
	}

	var sched Scheduler
	if opts.Schedule {
		sched = opts.Scheduler
		if sched == nil {
			sc := opts.Sched
			if sc.Cache == nil {
				sc.Cache = ed.cache
			}
			sched = ed.schedulerFor(opts.Machine, sc)
		}
	}

	// Pass 1a: rebuild each block's instruction sequence (instrumentation
	// prepended), then schedule the whole batch.
	span := tr.StartChild("eel.instrument", parent)
	blocks := make([][]sparc.Inst, len(ed.graph.Blocks))
	for i, b := range ed.graph.Blocks {
		block := append([]sparc.Inst(nil), b.Insts...)
		if tool != nil {
			if added := tool.Instrument(b); len(added) > 0 {
				block = append(added, block...)
			}
		}
		blocks[i] = block
	}
	span.End()
	span = tr.StartChild("eel.schedule", parent)
	var err error
	if sched != nil {
		blocks, err = sched.ScheduleBlocksCtx(obs.WithTraceParent(ctx, tr, span.Idx()), blocks)
	}
	span.End()
	if err != nil {
		return nil, fmt.Errorf("eel: scheduling: %w", err)
	}
	span = tr.StartChild("eel.layout", parent)
	defer span.End()

	if _, err := ed.assemble(out, blocks, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// assemble is the editing back half: lay the blocks out in original block
// order, retarget every CTI through the new block-leader positions,
// encode the text, and remap the entry point and text symbols. It returns
// the layout map from old block start index to new text index.
//
// Blocks whose index is set in replaced carry a self-contained rewrite —
// a software-pipelined loop, say — whose CTIs target within the
// replacement with displacements already final. Those blocks skip the
// terminal-CTI validation and the retarget pass; everything around them
// still shifts and retargets normally, which is how code growth works:
// the replacement occupies its block's layout slot, external CTIs into
// the block land on the replacement's first instruction, and the
// replacement's last instruction falls through to the block that always
// followed.
func (ed *Editor) assemble(out *exe.Exe, blocks [][]sparc.Inst, replaced map[int]bool) (map[int]int, error) {
	// Pass 1b: lay the blocks out, recording the new start index of every
	// old block leader.
	newStart := make(map[int]int, len(ed.graph.Blocks))
	var newInsts []sparc.Inst
	// ctiAt maps the position of each emitted CTI to its owning old block.
	type pendingCTI struct {
		newIndex int
		oldIndex int // old index of the CTI instruction
	}
	var pending []pendingCTI

	for i, b := range ed.graph.Blocks {
		newStart[b.Start] = len(newInsts)
		block := blocks[i]
		if b.HasCTI && !replaced[i] {
			// Locate the CTI in the (possibly reordered, possibly
			// shrunken) block: it is the unique CTI instruction.
			pos := -1
			for i, inst := range block {
				if inst.IsCTI() {
					if pos >= 0 {
						return nil, fmt.Errorf("eel: block %d has multiple CTIs after editing", b.Index)
					}
					pos = i
				}
			}
			if pos < 0 || pos != len(block)-2 {
				return nil, fmt.Errorf("eel: block %d CTI not in terminal position", b.Index)
			}
			pending = append(pending, pendingCTI{
				newIndex: len(newInsts) + pos,
				oldIndex: b.End - 2,
			})
		}
		newInsts = append(newInsts, block...)
	}

	// Pass 2: retarget branches and calls.
	for _, p := range pending {
		inst := &newInsts[p.newIndex]
		switch inst.Op {
		case sparc.OpBicc, sparc.OpFBfcc, sparc.OpCall:
			oldTarget := p.oldIndex + int(inst.Disp)
			nt, ok := newStart[oldTarget]
			if !ok {
				return nil, fmt.Errorf("eel: CTI target %d is not a block leader", oldTarget)
			}
			inst.Disp = int32(nt - p.newIndex)
		case sparc.OpJmpl:
			// Indirect: return addresses are produced at run time by the
			// edited call instructions, so nothing to do.
		}
	}

	// Pass 3: encode.
	words := make([]uint32, len(newInsts))
	for i, inst := range newInsts {
		w, err := sparc.Encode(inst)
		if err != nil {
			return nil, fmt.Errorf("eel: encoding instruction %d (%v): %w", i, inst, err)
		}
		words[i] = w
	}
	out.Text = words

	// Remap entry and text symbols through block leaders.
	remap := func(addr uint32) (uint32, error) {
		idx, err := ed.exe.IndexOf(addr)
		if err != nil {
			return 0, err
		}
		ni, ok := newStart[idx]
		if !ok {
			return 0, fmt.Errorf("eel: address %#x is not a block leader", addr)
		}
		return out.TextBase + uint32(ni)*exe.WordSize, nil
	}
	entry, err := remap(ed.exe.Entry)
	if err != nil {
		return nil, err
	}
	out.Entry = entry
	for i, s := range out.Symbols {
		if !ed.exe.InText(s.Addr) {
			continue
		}
		na, err := remap(s.Addr)
		if err != nil {
			return nil, fmt.Errorf("eel: symbol %q: %w", s.Name, err)
		}
		out.Symbols[i].Addr = na
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("eel: edited executable invalid: %w", err)
	}
	return newStart, nil
}

// schedulerFor returns the memoized scheduler for a configuration,
// building it on first use. One core.Scheduler per configuration means
// concurrent Edit calls share its worker pool, scratch arenas and cache
// wiring instead of rebuilding them per request. Tracing runs get a
// fresh scheduler: the trace sink is per-run state, and traced blocks
// bypass the cache anyway.
func (ed *Editor) schedulerFor(model *spawn.Model, sc core.Options) *core.Scheduler {
	if sc.Trace != nil {
		return core.New(model, sc)
	}
	key := schedKey{
		machine:         model.Machine,
		conservativeMem: sc.ConservativeMem,
		chainFirst:      sc.ChainFirst,
		noReorder:       sc.NoReorder,
		oracle:          sc.Oracle,
		engine:          sc.Engine,
		workers:         sc.Workers,
		cache:           sc.Cache,
		obs:             sc.Obs,
	}
	ed.schedMu.Lock()
	defer ed.schedMu.Unlock()
	if s, ok := ed.scheds[key]; ok {
		return s
	}
	s := core.New(model, sc)
	if ed.scheds == nil {
		ed.scheds = make(map[schedKey]*core.Scheduler)
	}
	ed.scheds[key] = s
	return s
}

// Close releases the persistent worker goroutines of every scheduler
// this editor memoized. Optional (dropped schedulers are reclaimed by a
// finalizer) and idempotent; the editor stays usable — a later Edit
// builds fresh schedulers.
func (ed *Editor) Close() {
	ed.schedMu.Lock()
	scheds := ed.scheds
	ed.scheds = nil
	ed.schedMu.Unlock()
	for _, s := range scheds {
		s.Close()
	}
}

// Reschedule is a pure rescheduling pass: no instrumentation, every block
// reordered by the paper's scheduler (the Table 2 baseline).
func (ed *Editor) Reschedule(machine *spawn.Model, sched core.Options) (*exe.Exe, error) {
	return ed.Edit(nil, Options{Machine: machine, Schedule: true, Sched: sched})
}
