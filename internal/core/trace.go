package core

import (
	"slices"

	"eel/internal/obs"
	"eel/internal/sparc"
)

// This file is the scheduler's decision tracer: with Options.Trace set,
// every block emits one BlockTrace recording the ready set, the chosen
// instruction, the tie-break that chose it, and the issue cycle at every
// list-scheduling step — enough for cmd/schedtrace to replay the block
// and golden-diff two engines (or two revisions) down to the first
// diverging decision. Input and Output carry the full decoded
// instructions, so a trace alone reproduces the schedule: sparc.Inst is
// plain data and round-trips through JSON.
//
// Tracing bypasses the schedule cache (a cache hit has no decisions to
// record) and is unashamedly allocation-heavy; it is a debugging mode,
// not a production path.

// TraceStep is one list-scheduling decision.
type TraceStep struct {
	// Ready holds the original-position indices of every instruction
	// whose predecessors were all scheduled, sorted ascending.
	Ready []int32 `json:"ready"`
	// Chosen is the original-position index the scheduler picked.
	Chosen int32 `json:"chosen"`
	// Inst is the chosen instruction's disassembly, for humans.
	Inst string `json:"inst"`
	// Stalls is the stall count the winning probe reported.
	Stalls int `json:"stalls"`
	// Issue is the absolute cycle the instruction issued at.
	Issue int64 `json:"issue"`
	// Reason names the tie-break that separated the winner from the
	// runner-up: "only", "stalls", "chain", "index" on the reference
	// engine; "only", "bound", "chain", "index" on the fast engine
	// (whose first key is the cached earliest-issue bound, not a stall
	// count — schedtrace -diff therefore compares decisions, not
	// reasons).
	Reason string `json:"reason"`
}

// BlockTrace is one block's full scheduling trace.
type BlockTrace struct {
	Block  int          `json:"block"` // batch index; -1 for single-block calls
	Model  string       `json:"model"`
	Engine string       `json:"engine"`
	Oracle string       `json:"oracle"`
	Input  []sparc.Inst `json:"input"`
	Output []sparc.Inst `json:"output"`
	Asm    []string     `json:"asm,omitempty"` // Output, disassembled
	// KeptOriginal marks blocks where the never-costs-more guard threw
	// the greedy schedule away; Steps still records how it was built.
	KeptOriginal bool        `json:"kept_original,omitempty"`
	Steps        []TraceStep `json:"steps"`
	// TraceID is the daemon request/batch trace that carried this block
	// (obs.Trace, via ScheduleBlocksCtx), joining per-block decision
	// traces to per-request latency traces; "" outside the daemon.
	TraceID string `json:"trace_id,omitempty"`
}

// TraceSink receives one BlockTrace per scheduled block. Sinks must be
// safe for concurrent use: ScheduleBlocks workers trace in parallel.
type TraceSink interface {
	TraceBlock(t *BlockTrace) error
}

// jsonlTraceSink writes each trace as one JSON line.
type jsonlTraceSink struct{ j *obs.JSONL }

func (s jsonlTraceSink) TraceBlock(t *BlockTrace) error { return s.j.Write(t) }

// NewJSONLTraceSink adapts a JSONL writer into a TraceSink.
func NewJSONLTraceSink(j *obs.JSONL) TraceSink { return jsonlTraceSink{j: j} }

// emitTrace assembles and writes the worker's collected steps. A sink
// write failure cannot un-schedule the block, so it is recorded in
// telemetry when available and otherwise dropped.
func (s *Scheduler) emitTrace(w *worker, idx int, block, out []sparc.Inst) {
	bt := &BlockTrace{
		Block:        idx,
		Model:        string(s.model.Machine),
		Engine:       s.opts.Engine.String(),
		Oracle:       s.opts.Oracle.String(),
		Input:        append([]sparc.Inst(nil), block...),
		Output:       append([]sparc.Inst(nil), out...),
		KeptOriginal: w.keptOriginal,
		Steps:        append([]TraceStep(nil), w.sc.steps...),
		TraceID:      w.traceID,
	}
	bt.Asm = make([]string, len(out))
	for i, in := range out {
		bt.Asm[i] = in.String()
	}
	if err := s.opts.Trace.TraceBlock(bt); err != nil && s.tel != nil {
		s.tel.replayErrs.Inc()
	}
}

// tieReason names the priority key that separated the reference
// engine's winner from its runner-up, in better()'s key order.
func (s *Scheduler) tieReason(bestSt int, best *node, runSt int, run *node) string {
	if run == nil {
		return "only"
	}
	if s.opts.ChainFirst {
		if run.chain != best.chain {
			return "chain"
		}
		if runSt != bestSt {
			return "stalls"
		}
		return "index"
	}
	if runSt != bestSt {
		return "stalls"
	}
	if run.chain != best.chain {
		return "chain"
	}
	return "index"
}

// refTraceStep records one reference-engine decision: ready is the live
// ready list, sts the stall probe per entry, best its winning index.
func (s *Scheduler) refTraceStep(w *worker, ready []*node, sts []int, bestIdx, bestStalls int, issue int64) {
	best := ready[bestIdx]
	rd := make([]int32, len(ready))
	for i, n := range ready {
		rd[i] = int32(n.index)
	}
	slices.Sort(rd)
	var run *node
	runSt := 0
	for i, n := range ready {
		if i == bestIdx {
			continue
		}
		if run == nil || s.better(sts[i], n, runSt, run) {
			run, runSt = n, sts[i]
		}
	}
	w.sc.steps = append(w.sc.steps, TraceStep{
		Ready:  rd,
		Chosen: int32(best.index),
		Inst:   best.inst.String(),
		Stalls: bestStalls,
		Issue:  issue,
		Reason: s.tieReason(bestStalls, best, runSt, run),
	})
}

// fastTraceStep records one fast-engine decision at the moment the root
// issued: the heap holds exactly the ready set, and the runner-up is
// the better of the root's two children under the queue order. Children
// bounds may be stale lower bounds — the reason label is diagnostic,
// the decision fields are exact.
func (sc *scratch) fastTraceStep(s *Scheduler, top int32, stalls int, issue int64) {
	rd := make([]int32, len(sc.heap))
	copy(rd, sc.heap)
	slices.Sort(rd)
	reason := "only"
	if len(sc.heap) > 1 {
		chainFirst := s.opts.ChainFirst
		run := sc.heap[1]
		if len(sc.heap) > 2 && sc.qLess(sc.heap[2], run, chainFirst) {
			run = sc.heap[2]
		}
		boundDiff := sc.cachedT[top] != sc.cachedT[run]
		chainDiff := sc.chain[top] != sc.chain[run]
		switch {
		case chainFirst && chainDiff:
			reason = "chain"
		case chainFirst:
			if boundDiff {
				reason = "bound"
			} else {
				reason = "index"
			}
		case boundDiff:
			reason = "bound"
		case chainDiff:
			reason = "chain"
		default:
			reason = "index"
		}
	}
	sc.steps = append(sc.steps, TraceStep{
		Ready:  rd,
		Chosen: top,
		Inst:   sc.Insts[top].String(),
		Stalls: stalls,
		Issue:  issue,
		Reason: reason,
	})
}
