package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"eel/internal/obs"
	"eel/internal/sparc"
)

// ScheduleBlocks schedules a batch of basic blocks and returns them in
// the same order. The paper's scheduler keeps no state across block
// boundaries (the oracle is Reset per block), so blocks are independent
// and the batch fans out over Options.Workers goroutines, each drawing a
// private stall oracle from the scheduler's pool. The output is
// byte-identical to scheduling the blocks one by one with ScheduleBlock,
// for any worker count.
//
// Schedulers built with NewWith hold a single, unreplicable oracle and
// fall back to the sequential path. On error, the failure from the
// lowest-indexed failing block is reported.
func (s *Scheduler) ScheduleBlocks(blocks [][]sparc.Inst) ([][]sparc.Inst, error) {
	return s.scheduleBlocksTraced(nil, -1, blocks)
}

// ScheduleBlocksCtx is ScheduleBlocks with an optional request trace
// carried in ctx (obs.WithTrace / obs.WithTraceParent): the batch's
// per-phase time — dependence-graph build, ready-list issue, CTI
// handling, cache lookups — is accumulated per worker and recorded as
// child spans under the context's parent span, and decision traces
// (Options.Trace) are stamped with the trace's ID. With no trace in ctx
// it is exactly ScheduleBlocks.
func (s *Scheduler) ScheduleBlocksCtx(ctx context.Context, blocks [][]sparc.Inst) ([][]sparc.Inst, error) {
	tr, parent := obs.TraceParentFrom(ctx)
	return s.scheduleBlocksTraced(tr, parent, blocks)
}

func (s *Scheduler) scheduleBlocksTraced(tr *obs.Trace, parent int32, blocks [][]sparc.Inst) ([][]sparc.Inst, error) {
	if s.opts.NoReorder {
		return blocks, nil
	}
	out := make([][]sparc.Inst, len(blocks))
	// A worker's arena holds at most two copies of each block it
	// schedules: the scheduled body and the block with its CTI back.
	arenaNeed := 0
	for _, b := range blocks {
		arenaNeed += 2 * len(b)
	}
	workers := s.opts.workers()
	if workers > len(blocks) {
		workers = len(blocks)
	}
	var (
		agg     *phaseTimes
		startNs int64
	)
	if tr != nil {
		agg = &phaseTimes{}
		startNs = tr.SinceStart()
	}
	if s.factory == nil || workers <= 1 {
		s.tel.recordBatch(1, len(blocks))
		defer s.tel.recordCache(s.opts.Cache)
		w := s.seq
		if s.factory != nil {
			// Draw private state from the pool so concurrent callers of a
			// shared scheduler never contend on s.seq even when each call
			// runs sequentially.
			w = s.pool.Get().(*worker)
			defer s.pool.Put(w)
		}
		w.sc.arena.prime(arenaNeed)
		if agg != nil {
			w.tt, w.traceID = agg, tr.ID()
			defer func() {
				w.tt, w.traceID = nil, ""
				emitPhaseSpans(tr, parent, startNs, agg, 1)
			}()
		}
		defer s.tel.flush(w)
		for i, b := range blocks {
			sb, err := s.scheduleBlockOn(w, i, b)
			if err != nil {
				return nil, fmt.Errorf("core: block %d: %w", i, err)
			}
			out[i] = sb
		}
		return out, nil
	}
	s.tel.recordBatch(workers, len(blocks))
	defer s.tel.recordCache(s.opts.Cache)

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx = len(blocks)
	)
	runWorker := func() {
		w := s.pool.Get().(*worker)
		defer s.pool.Put(w)
		w.sc.arena.prime(arenaNeed)
		if agg != nil {
			w.tt, w.traceID = &phaseTimes{}, tr.ID()
			defer func() {
				mu.Lock()
				agg.merge(w.tt)
				mu.Unlock()
				w.tt, w.traceID = nil, ""
			}()
		}
		defer s.tel.flush(w)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(blocks) {
				return
			}
			sb, err := s.scheduleBlockOn(w, i, blocks[i])
			if err != nil {
				// Keep draining so the reported error is the
				// deterministic lowest-indexed failure.
				mu.Lock()
				if i < firstIdx {
					firstIdx, firstErr = i, err
				}
				mu.Unlock()
				continue
			}
			out[i] = sb
		}
	}
	// Dispatch workers-1 helpers to the persistent pool (pool.go); the
	// calling goroutine is the last worker. Since workers claim block
	// indices from the shared counter, any subset drains the whole
	// batch — so a refused dispatch (pool closed, or saturated by
	// concurrent batches) just means fewer helpers, never lost blocks.
	for h := 0; h < workers-1; h++ {
		wg.Add(1)
		ok := s.exec != nil && s.exec.dispatch(func() {
			defer wg.Done()
			runWorker()
		})
		if !ok {
			wg.Done()
			break
		}
	}
	runWorker()
	wg.Wait()
	if agg != nil {
		emitPhaseSpans(tr, parent, startNs, agg, workers)
	}
	if firstErr != nil {
		return nil, fmt.Errorf("core: block %d: %w", firstIdx, firstErr)
	}
	return out, nil
}
