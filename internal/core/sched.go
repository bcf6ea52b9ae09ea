// Package core implements the paper's primary contribution: EEL's local
// (basic-block) instruction scheduler, which hides instrumentation code in
// unused superscalar issue slots (paper §4).
//
// The scheduler is the paper's "common two pass list scheduling algorithm":
//
//   - Pass 1 walks the block backwards, computing the length in cycles of
//     the dependence chain from every instruction to the end of the block,
//     considering only the stalls required between data-dependent
//     instructions.
//   - Pass 2 walks forward with list scheduling. Among the instructions
//     whose predecessors are all scheduled, it picks the one requiring the
//     fewest stalls before it can start execution (as computed by the
//     pipeline_stalls model in package pipe); ties break first toward the
//     instruction farthest from the end of the block, then toward the one
//     listed earlier in the original code (which was presumably scheduled
//     by the compiler).
//
// Memory disambiguation follows the paper exactly: original loads and
// stores conservatively conflict with each other; instrumentation loads
// and stores conflict with each other; but instrumentation memory accesses
// do not conflict with original ones ("instrumentation loads and stores
// ... access the same address, which differs from the address accessed by
// original instructions"). Options.ConservativeMem disables the exemption
// for instrumentation whose references are more constrained.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"eel/internal/obs"
	"eel/internal/pipe"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// Oracle selects the stall-oracle implementation backing New.
type Oracle int

const (
	// OracleFast is the compiled table-driven pipe.FastState: flat
	// precomputed per-group tables probed against a fixed-size ring
	// buffer, no per-probe allocation. The default.
	OracleFast Oracle = iota
	// OracleReference is the map-based pipe.State — the ground truth the
	// fast oracle is differentially tested against. Schedules are
	// identical; only the wall clock differs.
	OracleReference
)

// String names the oracle as the CLIs' -oracle flag spells it.
func (o Oracle) String() string {
	if o == OracleReference {
		return "reference"
	}
	return "fast"
}

// ParseOracle converts a -oracle flag value.
func ParseOracle(s string) (Oracle, error) {
	switch s {
	case "fast", "":
		return OracleFast, nil
	case "reference":
		return OracleReference, nil
	}
	return 0, fmt.Errorf("core: unknown oracle %q (want fast or reference)", s)
}

// Engine selects the list-scheduling implementation, orthogonally to the
// stall oracle: Oracle picks what answers a probe, Engine picks how many
// probes the scheduler makes.
type Engine int

const (
	// EngineFast is the arena-based scheduler: dependence graph built
	// through per-register writer/reader tables into flat per-worker
	// scratch arenas (depgraph.go), pass 2 driven by an indexed priority
	// queue over monotone earliest-issue bounds (readyq.go). The default.
	EngineFast Engine = iota
	// EngineReference is the original pairwise O(n²) builder and
	// full-rescan ready loop — the ground truth EngineFast is
	// differentially tested against, block for block.
	EngineReference
	// EngineOptimal runs the fast greedy pass and then a branch-and-bound
	// exact search (optimal.go) that either proves the greedy schedule
	// optimal or replaces it with a provably cheaper one. Search effort is
	// bounded by Options.OptimalBudget/OptimalMaxInsts; blocks exceeding
	// the budget keep the greedy result. A ground-truth mode for
	// measuring the optimality gap, not a production default.
	EngineOptimal
)

// String names the engine as the CLIs' -engine flag spells it.
func (e Engine) String() string {
	switch e {
	case EngineReference:
		return "reference"
	case EngineOptimal:
		return "optimal"
	}
	return "fast"
}

// ParseEngine converts an -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "fast", "":
		return EngineFast, nil
	case "reference":
		return EngineReference, nil
	case "optimal":
		return EngineOptimal, nil
	}
	return 0, fmt.Errorf("core: unknown engine %q (want fast, reference or optimal)", s)
}

// Options tune the scheduler. The zero value is the paper's configuration.
type Options struct {
	// ConservativeMem makes instrumentation memory references conflict
	// with original ones (the paper's "options to limit the movement of
	// instrumentation code").
	ConservativeMem bool
	// ChainFirst flips the priority function to prefer the longest
	// dependence chain over the fewest stalls (ablation).
	ChainFirst bool
	// NoReorder disables scheduling entirely; blocks pass through
	// unchanged (the unscheduled instrumentation baseline).
	NoReorder bool
	// Oracle selects the stall oracle New builds (fast compiled tables by
	// default; the reference interpreter for A/B checks). Both produce
	// byte-identical schedules — the equivalence is fuzzed in
	// internal/pipe and enforced in CI.
	Oracle Oracle
	// Engine selects the scheduling implementation (the fast arena-based
	// path by default; the original pairwise builder and rescan loop for
	// A/B checks). Fast and reference produce byte-identical schedules;
	// EngineOptimal additionally runs a branch-and-bound exact search
	// after the greedy pass and may emit a provably cheaper order. The
	// fast engine's soundness rests on oracle monotonicity, which every
	// oracle a constructor builds has.
	Engine Engine
	// OptimalBudget bounds the exact search (EngineOptimal) in
	// branch-and-bound nodes — speculative issues — per block. 0 selects
	// DefaultOptimalBudget. A block whose search exhausts the budget
	// keeps the greedy schedule and counts as budget-exhausted (the
	// core.optimal_budget_exhausted metric). The budget is in nodes, not
	// wall time, so runs are deterministic and CI goldens stay stable.
	OptimalBudget int
	// OptimalMaxInsts caps the body size EngineOptimal will search at
	// all; larger blocks fall back to greedy immediately (counted as both
	// oversized and budget-exhausted). 0 selects DefaultOptimalMaxInsts.
	OptimalMaxInsts int
	// Workers bounds the worker pool used by ScheduleBlocks. 0 means
	// runtime.GOMAXPROCS(0); negative forces the sequential path. The
	// output is byte-identical regardless of the worker count: blocks
	// carry no cross-block pipeline state (every block starts from a
	// Reset oracle), so scheduling is embarrassingly parallel.
	Workers int
	// Cache, when non-nil, memoizes per-block scheduling results keyed
	// by (machine model, options, instruction-sequence hash) so repeated
	// editing of hot blocks skips rescheduling. Only schedulers built
	// with New consult it: hardware rules (NewHardware) are not part of
	// the key, so those results must not be shared through a cache.
	Cache *Cache
	// Obs, when non-nil, receives scheduler telemetry: per-hazard stall
	// attribution of every emitted schedule, cycles-hidden deltas, block
	// histograms, cache and worker-pool statistics (telemetry.go).
	// Telemetry never changes schedules, so it is excluded from the
	// cache key — and from JSON, which bench embeds in table files that
	// must stay byte-identical across instrumented and plain runs.
	Obs *obs.Registry `json:"-"`
	// Trace, when non-nil, receives one BlockTrace per scheduled block
	// (trace.go): every ready set, pick, tie-break and issue cycle, for
	// cmd/schedtrace replay and golden-diffing. Tracing bypasses the
	// schedule cache and is for debugging, not production runs.
	Trace TraceSink `json:"-"`
}

// workers resolves the effective worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	if o.Workers < 0 {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// Pipeline is the stall oracle driving list scheduling: the paper's
// SADL-derived pipeline_stalls, as pipe.FastState (also with the
// hardware rules, NewHardware) or the reference pipe.State.
type Pipeline interface {
	Reset()
	Stalls(inst sparc.Inst) (int, error)
	Issue(inst sparc.Inst) (stalls int, issueCycle int64, err error)
}

// Scheduler schedules basic blocks for one machine model.
//
// ScheduleBlock drives a single pipeline state and is not safe for
// concurrent use; ScheduleBlocks fans blocks out over a worker pool in
// which every worker draws a private stall oracle from a sync.Pool, and
// is safe to call from multiple goroutines.
type Scheduler struct {
	model   *spawn.Model
	seq     *worker   // sequential-path oracle + scratch
	pool    sync.Pool // of *worker, each with a fresh oracle
	opts    Options
	cacheID uint64     // cache key seed; 0 when results are uncacheable
	tel     *telemetry // nil unless Options.Obs carries a registry
	opt     *optAgg    // nil unless Engine == EngineOptimal (optimal.go)
	// telForceReplay disables inline attribution capture so telemetry
	// falls back to the post-schedule replay on every block. A test
	// hook: the differential attribution test runs both modes and
	// asserts counter-for-counter equality.
	telForceReplay bool
	// exec is the persistent goroutine pool ScheduleBlocks dispatches
	// batch helpers to (pool.go); nil on sequential-only schedulers.
	exec *execPool
}

// telCapture reports whether this scheduler classifies stalls inline
// during scheduling instead of replaying emitted blocks afterwards.
// Inline capture needs the fast engine's invariant that the greedy
// pass's issue sequence equals the emitted order (so the attribution
// accumulated while scheduling describes the output); the reference
// engine probes in a different order and EngineOptimal may emit a
// sequence the greedy pass never issued, so both fall back to replay.
func (s *Scheduler) telCapture() bool {
	return s.tel != nil && !s.telForceReplay &&
		s.opts.Engine != EngineReference && s.opt == nil
}

// worker bundles one goroutine's private scheduling state: a stall
// oracle plus the fast engine's scratch arenas. Workers travel through
// the scheduler's pool so the arenas are recycled across batches.
type worker struct {
	p  Pipeline
	sc scratch
	// attr is the worker's private stall-attribution scratch for the
	// emitted order, attached to p during inline capture or telemetry
	// replays; attrBefore holds the original order's attribution from
	// the guard's cost replay (telemetry.go).
	attr       pipe.StallAttr
	attrBefore pipe.StallAttr
	// Inline-capture state, valid for the last scheduled block:
	// telInline marks attr/telAfter as describing the emitted order;
	// telUseBefore marks that the guard rejected the greedy schedule,
	// so the emitted order is the original and attrBefore/telBefore
	// describe it; telBefore < 0 means the original order was never
	// priced (unchanged block).
	telInline    bool
	telUseBefore bool
	telAfter     int64
	telBefore    int64
	// shard accumulates this worker's telemetry locally; it is merged
	// into the shared registry at batch end (telemetry.go).
	shard *telShard
	// keptOriginal marks (for tracing) that the never-costs-more guard
	// rejected the last block's greedy schedule.
	keptOriginal bool
	// opt is the worker's exact-search state, allocated lazily on the
	// first block an EngineOptimal scheduler searches (optimal.go).
	opt *optSearch
	// optUnproven marks the last block's search as inconclusive (budget
	// exhausted or oversized); such results stay out of the schedule
	// cache so every cached optimal-engine entry is a certified optimum.
	optUnproven bool
	// tt accumulates per-phase wall time for the current batch when it
	// carries a request trace (ScheduleBlocksCtx); nil otherwise, so the
	// untraced hot path pays one pointer test per phase (tracephase.go).
	tt *phaseTimes
	// traceID is the daemon trace that carried the current batch,
	// stamped into decision traces (BlockTrace.TraceID); "" untraced.
	traceID string
}

// New returns a scheduler driven by the machine's SADL pipeline model —
// the paper's configuration. Options.Oracle picks the implementation:
// the compiled table-driven pipe.FastState by default, or the reference
// pipe.State interpreter.
func New(model *spawn.Model, opts Options) *Scheduler {
	factory := func() Pipeline { return pipe.NewFastState(model) }
	if opts.Oracle == OracleReference {
		factory = func() Pipeline { return pipe.NewState(model) }
	}
	// The model name plus the options that change schedules fully
	// determine the output.
	return newScheduler(model, factory, opts, cacheSeed(model, opts))
}

// NewHardware returns a scheduler driven by the hardware issue engine
// (pipe.NewHardwareState): the machine's SADL model plus rules it does
// not describe. The workload generator schedules code with it the way
// the vendors' compilers did. Options.Oracle is ignored, and results
// never enter Options.Cache, whose key does not carry the rules.
func NewHardware(model *spawn.Model, rules pipe.Rules, opts Options) *Scheduler {
	opts.Oracle = OracleFast
	factory := func() Pipeline { return pipe.NewHardwareState(model, rules) }
	return newScheduler(model, factory, opts, 0)
}

// newScheduler builds a scheduler whose workers each own an oracle from
// factory. Every oracle the constructors build is monotone (Issue only
// adds unit usage, raises register horizons and the fetch floor, and
// advances the clock), which is what the fast engine's cached-probe
// lower bounds rely on.
func newScheduler(model *spawn.Model, factory func() Pipeline, opts Options, cacheID uint64) *Scheduler {
	s := &Scheduler{model: model, seq: &worker{p: factory()}, opts: opts, cacheID: cacheID}
	s.pool.New = func() any { return &worker{p: factory()} }
	s.tel = newTelemetry(opts.Obs, model)
	if opts.Engine == EngineOptimal {
		s.opt = newOptAgg(opts.Obs)
	}
	s.initExec()
	return s
}

// initExec creates the persistent helper-goroutine pool when the
// configuration can use one (more than one worker). The pool outlives
// individual ScheduleBlocks calls — that is its point: a daemon serving
// many small Edit requests through one scheduler pays goroutine spin-up
// once, not per request. A finalizer
// backstops Close for schedulers that are simply dropped: the pool's
// goroutines park on a channel the Scheduler does not reference, so an
// unreachable Scheduler still finalizes, and Close unparks them.
func (s *Scheduler) initExec() {
	if n := s.opts.workers() - 1; n > 0 {
		s.exec = newExecPool(n)
		runtime.SetFinalizer(s, func(s2 *Scheduler) { s2.exec.Close() })
	}
}

// Close releases the scheduler's persistent helper goroutines. Optional
// (a finalizer reclaims them when the Scheduler is garbage collected)
// and idempotent; safe concurrently with ScheduleBlocks, whose batches
// degrade to fewer workers rather than fail.
func (s *Scheduler) Close() {
	if s.exec != nil {
		s.exec.Close()
	}
}

// Model returns the scheduler's machine model.
func (s *Scheduler) Model() *spawn.Model { return s.model }

// node is one instruction in the block's dependence DAG.
type node struct {
	inst  sparc.Inst
	index int // original position, the final tiebreak
	succs []edge
	npred int
	chain int // pass-1 dependence-chain length to block end, in cycles
}

type edge struct {
	to  *node
	lat int // minimum stall-free issue distance
}

// ScheduleBlock reorders one basic block. The slice must be a full block:
// if it ends with a control-transfer instruction and its delay slot, the
// scheduler keeps the CTI in place, schedules the body (the old delay-slot
// instruction joins the body), and refills the delay slot with the last
// scheduled instruction when that preserves semantics, or a nop otherwise.
//
// Blocks ending in an annulled branch are returned unchanged (their delay
// slot executes conditionally, pinning it). If the greedy schedule would
// model more cycles than the original order, the original is returned
// instead (see guardedSchedule), so scheduling never costs cycles.
func (s *Scheduler) ScheduleBlock(block []sparc.Inst) ([]sparc.Inst, error) {
	out, err := s.scheduleBlockOn(s.seq, -1, block)
	// Single-block callers expect counters visible on return; batches
	// flush once per worker instead (parallel.go).
	s.tel.flush(s.seq)
	return out, err
}

// scheduleBlockOn is ScheduleBlock against an explicit worker, so
// goroutines can schedule with private pipeline states and arenas. idx
// is the block's batch position, stamped into traces (-1 when the
// caller has no batch).
func (s *Scheduler) scheduleBlockOn(w *worker, idx int, block []sparc.Inst) ([]sparc.Inst, error) {
	if s.opts.NoReorder || len(block) == 0 {
		return block, nil
	}
	tracing := s.opts.Trace != nil
	w.sc.traceOn = tracing
	if tracing {
		w.sc.steps = w.sc.steps[:0]
		w.keptOriginal = false
	}
	// Cleared per block: telemetryBlock replays any block these don't
	// cover (cache hits, reference engine, unprepared oracles, ...).
	w.telInline = false
	w.telUseBefore = false
	if c := s.opts.Cache; c != nil && s.cacheID != 0 && !tracing {
		var lookupT0 time.Time
		if w.tt != nil {
			lookupT0 = time.Now()
		}
		out, ok := c.getInto(s.cacheID, block, &w.sc.arena)
		if w.tt != nil {
			w.tt.cacheNs += time.Since(lookupT0).Nanoseconds()
			w.tt.lookups++
			if ok {
				w.tt.hits++
			}
		}
		if ok {
			// Unproven optimal-engine results never enter the cache, so a
			// hit is a certified optimum and counts as proven.
			s.opt.hitProven(len(block))
			if s.tel != nil {
				s.telemetryBlock(w, block, out, true)
			}
			return out, nil
		}
		out, err := s.guardedSchedule(w, block)
		if err != nil {
			return nil, err
		}
		if s.opt != nil && w.optUnproven {
			// A budget-exhausted search is just the greedy fallback with no
			// certificate; caching it would let a later run mistake it for
			// a proven optimum. Skip the put and count the bypass.
			s.opt.cacheBypassed()
		} else {
			c.put(s.cacheID, block, out)
		}
		if s.tel != nil {
			s.telemetryBlock(w, block, out, false)
		}
		return out, nil
	}
	out, err := s.guardedSchedule(w, block)
	if err != nil {
		return nil, err
	}
	if s.tel != nil {
		s.telemetryBlock(w, block, out, false)
	}
	if tracing {
		s.emitTrace(w, idx, block, out)
	}
	return out, nil
}

// scheduleBlockRaw is one unguarded scheduling pass over a block. The
// returned cost is the modeled cycle count of the output sequence when
// the pass computed it as a side effect (non-CTI blocks on the fast
// engine, whose issue order is the output order), or -1 when the caller
// must measure it.
func (s *Scheduler) scheduleBlockRaw(w *worker, block []sparc.Inst) ([]sparc.Inst, int64, error) {
	sc := &w.sc
	body := block
	var cti sparc.Inst
	hasCTI := false
	if n := len(block); n >= 2 && block[n-2].IsCTI() {
		if block[n-2].Annul {
			return block, -1, nil
		}
		hasCTI = true
		cti = block[n-2]
		body = append(sc.bodyBuf[:0], block[:n-2]...)
		if !block[n-1].IsNop() {
			body = append(body, block[n-1])
		}
		sc.bodyBuf = body
	} else if n >= 1 && block[n-1].IsCTI() {
		return nil, -1, fmt.Errorf("core: block ends with a CTI but no delay slot")
	}
	if hasCTI && w.tt != nil {
		// The CTI phase is everything this pass does beyond straight-line
		// scheduling: delay-slot refill, CTI re-pricing, beforeIdx bookkeeping.
		// scheduleStraightLine subtracts its own share below, so measure the
		// whole pass and deduct the phases it attributes itself.
		ctiT0 := time.Now()
		dep0, rdy0 := w.tt.depgraphNs, w.tt.readyNs
		defer func() {
			w.tt.ctiNs += time.Since(ctiT0).Nanoseconds() - (w.tt.depgraphNs - dep0) - (w.tt.readyNs - rdy0)
		}()
	}

	// Inline telemetry capture (telemetry.go): with a monotone oracle the
	// greedy pass issues exactly the sequence it emits, so attaching the
	// attribution sink during scheduling classifies the emitted order's
	// stalls without the post-schedule replay.
	var csink attrSink
	if s.telCapture() {
		csink, _ = w.p.(attrSink)
	}
	if csink != nil && !hasCTI {
		w.attr.Reset()
		csink.SetAttribution(&w.attr)
	}
	scheduled, cost, err := s.scheduleStraightLine(w, body)
	if csink != nil && !hasCTI {
		csink.SetAttribution(nil)
	}
	if err != nil {
		return nil, -1, err
	}
	prepared := cost >= 0 && sc.prepOK // this block ran the fast prepared path
	if !hasCTI {
		if prepared {
			// The original order is the body itself: an identity mapping
			// lets the guard replay it through the prepared inputs.
			sc.beforeIdx = sc.beforeIdx[:0]
			for i := range block {
				sc.beforeIdx = append(sc.beforeIdx, int32(i))
			}
		}
		if csink != nil && cost >= 0 {
			// The issue loop ran start to finish: w.attr holds the emitted
			// order's attribution and cost is its modeled cycle count.
			w.telInline = true
			w.telAfter = cost
		}
		return scheduled, cost, nil
	}

	// Reinserting the CTI changes the issue sequence, so the straight-line
	// cost no longer describes the output.
	out := sc.arena.take(len(scheduled) + 2)
	refilled := false
	// Fill the delay slot with the last scheduled instruction when legal.
	if k := len(scheduled); k > 0 && sc.delaySlotLegal(cti, scheduled[k-1]) {
		out = append(out, scheduled[:k-1]...)
		out = append(out, cti, scheduled[k-1])
		refilled = true
	} else {
		out = append(out, scheduled...)
		out = append(out, cti, sparc.NewNop())
	}
	unchanged := blocksEqual(out, block)
	if !prepared || (unchanged && csink == nil) {
		// Unchanged blocks skip both cost replays in guardedSchedule, so
		// pricing here would be wasted (and could reject a block whose CTI
		// the model cannot place, which an unchanged schedule never needs).
		// Under inline capture an unchanged block is still priced — that
		// is the replay telemetry would have performed anyway — but a
		// pricing failure falls back to the replay path instead of
		// failing the block.
		return out, -1, nil
	}

	// Prepare the two instructions outside the body — the CTI and a nop —
	// then replay the output through the prepared inputs to price it, and
	// record the mapping that prices the original order the same way.
	pp := w.p.(preparedPipeline)
	nb := int32(len(scheduled))
	ctiSlot, nopSlot := nb, nb+1
	sc.Prep = sc.Prep[:nb]
	for _, extra := range [...]sparc.Inst{cti, sparc.NewNop()} {
		p, err := pp.Prepare(extra)
		if err != nil {
			if unchanged {
				return out, -1, nil
			}
			return nil, -1, err
		}
		sc.Prep = append(sc.Prep, p)
	}
	sc.costIdx = sc.costIdx[:0]
	if refilled {
		sc.costIdx = append(sc.costIdx, sc.perm[:nb-1]...)
		sc.costIdx = append(sc.costIdx, ctiSlot, sc.perm[nb-1])
	} else {
		sc.costIdx = append(sc.costIdx, sc.perm...)
		sc.costIdx = append(sc.costIdx, ctiSlot, nopSlot)
	}
	if csink != nil {
		w.attr.Reset()
		csink.SetAttribution(&w.attr)
	}
	after, err := s.sequenceCostIdx(w, out, sc.costIdx)
	if csink != nil {
		csink.SetAttribution(nil)
	}
	if err != nil {
		if unchanged {
			return out, -1, nil
		}
		return nil, -1, err
	}
	if csink != nil {
		w.telInline = true
		w.telAfter = after
	}
	if unchanged {
		// Priced for telemetry only; the guard needs no beforeIdx since
		// it keeps unchanged blocks without replaying the original.
		return out, after, nil
	}
	// Original order: the leading instructions map to themselves, then the
	// CTI, then the delay instruction (the last body slot, or — when the
	// original delay slot held a nop that stayed out of the body — a slot
	// prepared from that exact instruction: IsNop also covers sethi-to-%g0
	// forms, which need not time like the canonical nop).
	sc.beforeIdx = sc.beforeIdx[:0]
	for i := 0; i < len(block)-2; i++ {
		sc.beforeIdx = append(sc.beforeIdx, int32(i))
	}
	sc.beforeIdx = append(sc.beforeIdx, ctiSlot)
	if dly := block[len(block)-1]; !dly.IsNop() {
		sc.beforeIdx = append(sc.beforeIdx, nb-1)
	} else if dly == sparc.NewNop() {
		sc.beforeIdx = append(sc.beforeIdx, nopSlot)
	} else {
		p, err := pp.Prepare(dly)
		if err != nil {
			return nil, -1, err
		}
		sc.Prep = append(sc.Prep, p)
		sc.beforeIdx = append(sc.beforeIdx, nopSlot+1)
	}
	return out, after, nil
}

// guardedSchedule runs scheduleBlockRaw and keeps the result only if it
// does not model more cycles than the original order. Greedy list
// scheduling is not optimal: a locally stall-free pick can occupy a unit
// a later instruction needs and lengthen the block. The paper's scheduler
// exists to hide instrumentation overhead, so a schedule that models
// worse than leaving the block alone is never worth emitting.
func (s *Scheduler) guardedSchedule(w *worker, block []sparc.Inst) ([]sparc.Inst, error) {
	out, after, err := s.scheduleBlockRaw(w, block)
	if err != nil {
		return nil, err
	}
	if s.opt != nil {
		// EngineOptimal: try to beat the greedy schedule with the exact
		// search. A strictly better order invalidates the greedy pass's
		// prepared pricing, so its cost is re-measured below (after = -1).
		if best, changed := s.optimalImprove(w, block, out); changed {
			out, after = best, -1
		}
	}
	// An unchanged sequence models exactly the original's cycles, so the
	// guard trivially keeps it — no cost passes needed. (Compiler-ordered
	// code frequently reschedules to itself: original index is the final
	// tie-break.)
	if blocksEqual(out, block) {
		w.telBefore = -1 // original never priced separately
		return out, nil
	}
	// Under inline capture the guard's replay of the original order
	// doubles as telemetry: if the guard rejects the greedy schedule,
	// the emitted block IS the original, and attrBefore/telBefore
	// describe it (telemetry.go).
	var bsink attrSink
	if w.telInline {
		bsink, _ = w.p.(attrSink)
		if bsink != nil {
			w.attrBefore.Reset()
			bsink.SetAttribution(&w.attrBefore)
		}
	}
	var before int64
	if after >= 0 && w.sc.prepOK {
		// A known after-cost means the fast engine priced the output
		// through prepared inputs and recorded beforeIdx, the mapping
		// from each original-order position to its prepared slot.
		before, err = s.sequenceCostIdx(w, block, w.sc.beforeIdx)
	} else {
		before, err = s.sequenceCost(w.p, block)
	}
	if bsink != nil {
		bsink.SetAttribution(nil)
	}
	if err != nil {
		return nil, err
	}
	w.telBefore = before
	if after < 0 {
		after, err = s.sequenceCost(w.p, out)
		if err != nil {
			return nil, err
		}
	}
	if after > before {
		if w.sc.traceOn {
			w.keptOriginal = true
		}
		if bsink != nil {
			w.telUseBefore = true
		}
		return block, nil
	}
	return out, nil
}

// sequenceCostIdx is sequenceCost through the worker's prepared placement
// inputs: idx[i] names the scratch prep slot holding insts[i]'s resolved
// group and register accesses.
func (s *Scheduler) sequenceCostIdx(w *worker, insts []sparc.Inst, idx []int32) (int64, error) {
	pp := w.p.(preparedPipeline)
	sc := &w.sc
	w.p.Reset()
	var end int64
	for i, inst := range insts {
		p := &sc.Prep[idx[i]]
		_, issue, err := pp.IssuePrepared(p, inst)
		if err != nil {
			return 0, err
		}
		if e := issue + int64(p.Group().Cycles); e > end {
			end = e
		}
	}
	return end, nil
}

// sequenceCost is pipe.SequenceCycles against this scheduler's oracle:
// the issue cycle of the sequence's last-finishing instruction plus its
// remaining pipeline occupancy, from an empty pipeline.
func (s *Scheduler) sequenceCost(p Pipeline, insts []sparc.Inst) (int64, error) {
	p.Reset()
	var end int64
	for _, inst := range insts {
		g, err := s.model.GroupOf(inst)
		if err != nil {
			return 0, err
		}
		_, issue, err := p.Issue(inst)
		if err != nil {
			return 0, err
		}
		if e := issue + int64(g.Cycles); e > end {
			end = e
		}
	}
	return end, nil
}

// delaySlotLegal reports whether cand may move from just before the CTI
// into its delay slot. The CTI evaluates its operands before the delay
// instruction executes, so cand must not define anything the CTI uses; it
// must not touch the CTI's definitions (e.g. %o7 of a call); and it must
// not itself transfer control.
func delaySlotLegal(cti, cand sparc.Inst) bool {
	if cand.IsCTI() || cand.Op == sparc.OpTicc {
		return false
	}
	ctiUses := cti.Uses(nil)
	ctiDefs := cti.Defs(nil)
	for _, d := range cand.Defs(nil) {
		for _, u := range ctiUses {
			if d == u {
				return false
			}
		}
		for _, cd := range ctiDefs {
			if d == cd {
				return false
			}
		}
	}
	for _, u := range cand.Uses(nil) {
		for _, cd := range ctiDefs {
			if u == cd {
				return false
			}
		}
	}
	return true
}

// delaySlotLegal is the free function's logic against the scratch's
// reusable register buffers, so the per-CTI-block legality check costs
// no allocations. Semantics are identical — in particular %g0 is NOT
// excluded here, matching the reference loops exactly.
func (sc *scratch) delaySlotLegal(cti, cand sparc.Inst) bool {
	if cand.IsCTI() || cand.Op == sparc.OpTicc {
		return false
	}
	sc.ctiUses = cti.Uses(sc.ctiUses[:0])
	sc.ctiDefs = cti.Defs(sc.ctiDefs[:0])
	sc.candRegs = cand.Defs(sc.candRegs[:0])
	for _, d := range sc.candRegs {
		for _, u := range sc.ctiUses {
			if d == u {
				return false
			}
		}
		for _, cd := range sc.ctiDefs {
			if d == cd {
				return false
			}
		}
	}
	sc.candRegs = cand.Uses(sc.candRegs[:0])
	for _, u := range sc.candRegs {
		for _, cd := range sc.ctiDefs {
			if u == cd {
				return false
			}
		}
	}
	return true
}

// scheduleStraightLine runs the two-pass list scheduler over straight-line
// code on worker w, dispatching to the selected engine.
func (s *Scheduler) scheduleStraightLine(w *worker, body []sparc.Inst) ([]sparc.Inst, int64, error) {
	if len(body) <= 1 {
		return body, -1, nil
	}
	if s.opts.Engine != EngineReference {
		// EngineOptimal also takes this path: the greedy fast pass both
		// seeds the exact search's incumbent and fills the scratch arenas
		// (dependence graph, prepared probes) the search reuses.
		sc := &w.sc
		var phaseT0 time.Time
		if w.tt != nil {
			phaseT0 = time.Now()
		}
		pp, usePrep := w.p.(preparedPipeline)
		if usePrep {
			// Resolve every instruction's placement inputs once; the
			// graph build, the scheduling loop and the guard's cost
			// replay each need them, several times over. Preparing scans
			// instructions in order, so a model-lookup failure surfaces
			// on the same first bad instruction the reference build
			// would report.
			// Reserve three slots past the body: CTI pricing appends the
			// CTI, a nop, and possibly a non-canonical delay-slot nop
			// (scheduleBlockRaw) without reallocating.
			if cap(sc.Prep) < len(body)+3 {
				sc.Prep = make([]pipe.Prepared, len(body)+3)
			}
			sc.Prep = sc.Prep[:len(body)]
			for i, inst := range body {
				p, err := pp.Prepare(inst)
				if err != nil {
					return nil, -1, err
				}
				sc.Prep[i] = p
			}
		}
		if err := s.buildDepGraph(sc, body, usePrep); err != nil {
			return nil, -1, err
		}
		sc.prepOK = usePrep
		if w.tt != nil {
			now := time.Now()
			w.tt.depgraphNs += now.Sub(phaseT0).Nanoseconds()
			out, cost, err := s.runFastList(sc, w.p, pp)
			w.tt.readyNs += time.Since(now).Nanoseconds()
			return out, cost, err
		}
		return s.runFastList(sc, w.p, pp)
	}
	out, err := s.referenceStraightLine(w, body)
	return out, -1, err
}

// preparedPipeline is the optional oracle interface for pre-resolved
// placement (implemented by pipe.FastState): resolve an instruction's
// register accesses and compiled group once, probe many times.
type preparedPipeline interface {
	Prepare(inst sparc.Inst) (pipe.Prepared, error)
	StallsPrepared(p *pipe.Prepared, inst sparc.Inst) (int, error)
	IssuePrepared(p *pipe.Prepared, inst sparc.Inst) (int, int64, error)
}

// referenceStraightLine is the original two-pass implementation: pairwise
// DAG build, then a full ready-list Stalls rescan per issue step. It is
// the ground truth the fast engine is differentially tested against.
func (s *Scheduler) referenceStraightLine(w *worker, body []sparc.Inst) ([]sparc.Inst, error) {
	p := w.p
	var phaseT0 time.Time
	if w.tt != nil {
		phaseT0 = time.Now()
	}
	nodes, err := s.buildDAG(body)
	if err != nil {
		return nil, err
	}

	// Pass 1: backward dependence-chain lengths.
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		n.chain = 1
		for _, e := range n.succs {
			if c := e.lat + e.to.chain; c > n.chain {
				n.chain = c
			}
		}
	}
	if w.tt != nil {
		now := time.Now()
		w.tt.depgraphNs += now.Sub(phaseT0).Nanoseconds()
		phaseT0 = now
		defer func() { w.tt.readyNs += time.Since(phaseT0).Nanoseconds() }()
	}

	// Pass 2: forward list scheduling.
	p.Reset()
	ready := make([]*node, 0, len(nodes))
	for _, n := range nodes {
		if n.npred == 0 {
			ready = append(ready, n)
		}
	}
	out := make([]sparc.Inst, 0, len(body))
	var sts []int // per-ready stall probes, kept only while tracing
	for len(ready) > 0 {
		bestIdx := -1
		bestStalls := 0
		var best *node
		if w.sc.traceOn {
			sts = append(sts[:0], make([]int, len(ready))...)
		}
		for i, n := range ready {
			st, err := p.Stalls(n.inst)
			if err != nil {
				return nil, err
			}
			if sts != nil {
				sts[i] = st
			}
			if best == nil || s.better(st, n, bestStalls, best) {
				best, bestIdx, bestStalls = n, i, st
			}
		}
		_, issue, err := p.Issue(best.inst)
		if err != nil {
			return nil, err
		}
		if w.sc.traceOn {
			s.refTraceStep(w, ready, sts, bestIdx, bestStalls, issue)
		}
		out = append(out, best.inst)
		ready[bestIdx] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		for _, e := range best.succs {
			e.to.npred--
			if e.to.npred == 0 {
				ready = append(ready, e.to)
			}
		}
	}
	if len(out) != len(body) {
		return nil, fmt.Errorf("core: scheduler dropped instructions (%d of %d)", len(out), len(body))
	}
	return out, nil
}

// better reports whether candidate (stalls st, node n) beats the current
// best. Default priority: fewest stalls, then longest chain to block end,
// then original order.
func (s *Scheduler) better(st int, n *node, bestSt int, best *node) bool {
	if s.opts.ChainFirst {
		if n.chain != best.chain {
			return n.chain > best.chain
		}
		if st != bestSt {
			return st < bestSt
		}
		return n.index < best.index
	}
	if st != bestSt {
		return st < bestSt
	}
	if n.chain != best.chain {
		return n.chain > best.chain
	}
	return n.index < best.index
}

// buildDAG constructs the dependence DAG with the paper's memory rules.
func (s *Scheduler) buildDAG(body []sparc.Inst) ([]*node, error) {
	nodes := make([]*node, len(body))
	for i, inst := range body {
		nodes[i] = &node{inst: inst, index: i}
	}
	var usesI, defsI, usesJ, defsJ []sparc.Reg
	for i := 0; i < len(body); i++ {
		gi, err := s.model.GroupOf(body[i])
		if err != nil {
			return nil, err
		}
		usesI = body[i].Uses(usesI[:0])
		defsI = body[i].Defs(defsI[:0])
		for j := i + 1; j < len(body); j++ {
			usesJ = body[j].Uses(usesJ[:0])
			defsJ = body[j].Defs(defsJ[:0])

			lat := 0
			dep := false
			// RAW: i defines a register j uses.
			if r, ok := intersects(defsI, usesJ); ok {
				dep = true
				if l := s.rawLatency(gi, body[i], body[j], r); l > lat {
					lat = l
				}
			}
			// WAR and WAW: ordering edges with unit latency.
			if _, ok := intersects(usesI, defsJ); ok {
				dep = true
				if lat < 1 {
					lat = 1
				}
			}
			if _, ok := intersects(defsI, defsJ); ok {
				dep = true
				if lat < 1 {
					lat = 1
				}
			}
			// Memory ordering.
			if s.memConflict(body[i], body[j]) {
				dep = true
				if lat < 1 {
					lat = 1
				}
			}
			// Traps are scheduling barriers: nothing moves across them.
			if body[i].Op == sparc.OpTicc || body[j].Op == sparc.OpTicc {
				dep = true
				if lat < 1 {
					lat = 1
				}
			}
			if dep {
				nodes[i].succs = append(nodes[i].succs, edge{to: nodes[j], lat: lat})
				nodes[j].npred++
			}
		}
	}
	return nodes, nil
}

// rawLatency returns the minimum stall-free issue distance between a
// producer and a consumer of register r: the producer's availability cycle
// for r minus the consumer's read cycle for r.
func (s *Scheduler) rawLatency(gi *spawn.Group, prod, cons sparc.Inst, r sparc.Reg) int {
	avail := writeAvail(gi, prod, r)
	read := 1
	if gj, err := s.model.GroupOf(cons); err == nil {
		read = readCycle(gj, cons, r)
	}
	if l := avail - read; l > 0 {
		return l
	}
	return 0
}

func writeAvail(g *spawn.Group, inst sparc.Inst, r sparc.Reg) int {
	def := g.Cycles
	for _, w := range g.Writes {
		if fieldNames(w, inst, r) {
			return w.Cycle
		}
	}
	return def
}

func readCycle(g *spawn.Group, inst sparc.Inst, r sparc.Reg) int {
	for _, rd := range g.Reads {
		if fieldNames(rd, inst, r) {
			return rd.Cycle
		}
	}
	if len(g.Reads) > 0 {
		min := g.Reads[0].Cycle
		for _, rd := range g.Reads {
			if rd.Cycle < min {
				min = rd.Cycle
			}
		}
		return min
	}
	return 1
}

// fieldNames mirrors pipe's field resolution for latency queries.
func fieldNames(a spawn.FieldAccess, inst sparc.Inst, r sparc.Reg) bool {
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
		return r == inst.Rs1 || r == inst.Rs1+1
	case "rs2":
		return r == inst.Rs2 || r == inst.Rs2+1
	case "rd":
		return r == inst.Rd || r == inst.Rd+1
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

// memConflict applies the paper's aliasing rules to a pair of
// instructions in original order (i before j).
func (s *Scheduler) memConflict(i, j sparc.Inst) bool {
	iMem := i.Op.IsLoad() || i.Op.IsStore()
	jMem := j.Op.IsLoad() || j.Op.IsStore()
	if !iMem || !jMem {
		return false
	}
	if i.Op.IsLoad() && j.Op.IsLoad() {
		return false // loads never conflict
	}
	if !s.opts.ConservativeMem && i.Instrumented != j.Instrumented {
		// Instrumentation memory is disjoint from program memory.
		return false
	}
	return true
}

// intersects returns a register present in both sets (%g0 excluded).
func intersects(a, b []sparc.Reg) (sparc.Reg, bool) {
	for _, x := range a {
		if x == sparc.G0 {
			continue
		}
		for _, y := range b {
			if x == y {
				return x, true
			}
		}
	}
	return 0, false
}
