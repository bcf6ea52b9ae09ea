package daemon

import (
	"context"
	"strconv"

	"eel/internal/core"
	"eel/internal/obs"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// The batcher coalesces blocks from concurrent /v1/schedule requests
// into single core.ScheduleBlocks calls, one batcher per machine model,
// by group commit: it takes the first queued request plus everything
// already queued behind it (up to BatchMaxBlocks) and flushes at once,
// with no timer. A lone request never waits, and batches grow only from
// requests that queued while the previous batch was scheduling. Batching
// only changes wall clock, never bytes — blocks carry no cross-block
// scheduler state, so a block's schedule is identical whether it travels
// alone or in a thousand-block batch.

type batchKey struct {
	machine spawn.Machine
}

type batchReq struct {
	blocks [][]sparc.Inst
	// traceID links the member span in the batch trace back to the
	// request trace ("" when the request is untraced).
	traceID string
	resp    chan batchResp
}

type batchResp struct {
	blocks [][]sparc.Inst
	// batchID is the batch trace's ID, noted on the request's
	// batch.queue span so a request trace can be joined to the shared
	// batch trace in the flight recorder ("" when tracing is off).
	batchID string
	err     error
}

type batcher struct {
	sched     *core.Scheduler
	ch        chan batchReq
	stop      chan struct{}
	maxBlocks int
	reg       *obs.Registry
	// Batch traces: each flushed batch becomes one kind="batch" trace
	// in the flight recorder, with per-member spans linking back to the
	// member requests' traces. nil flight + traceOn=false = untraced.
	flight  *obs.Flight
	traceOn bool
	// inFlight is a test seam run with each batch's request count just
	// before it is scheduled; nil in production.
	inFlight func(requests int)
}

// batcherFor returns (starting if needed) the batcher for a model.
func (s *Server) batcherFor(model *spawn.Model) *batcher {
	key := batchKey{machine: model.Machine}
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	if b, ok := s.batchers[key]; ok {
		return b
	}
	b := &batcher{
		sched: core.New(model, core.Options{
			Workers: s.cfg.Workers,
			Cache:   s.cache,
			Obs:     s.reg,
		}),
		// Admission caps live requests at MaxInflight, so hand-offs
		// rarely block and the queue is what the channel holds.
		ch:        make(chan batchReq, s.cfg.MaxInflight),
		stop:      make(chan struct{}),
		maxBlocks: s.cfg.BatchMaxBlocks,
		reg:       s.reg,
		flight:    s.flight,
		traceOn:   s.tracing(),
	}
	s.batchers[key] = b
	s.batchWG.Add(1)
	go func() {
		defer s.batchWG.Done()
		b.loop()
	}()
	return b
}

// scheduleBatched routes one request's blocks through the model's
// batcher and waits for its slice of the batch result. The returned
// batch ID identifies the shared batch trace the request rode in (""
// when tracing is off). A request whose ctx ends first returns ctx.Err();
// resp is buffered, so the batcher never blocks on a member that left.
func (s *Server) scheduleBatched(ctx context.Context, model *spawn.Model, blocks [][]sparc.Inst) ([][]sparc.Inst, string, error) {
	b := s.batcherFor(model)
	req := batchReq{blocks: blocks, resp: make(chan batchResp, 1)}
	if tr := obs.TraceFrom(ctx); tr != nil {
		req.traceID = tr.ID()
	}
	select {
	case b.ch <- req:
	case <-ctx.Done():
		return nil, "", ctx.Err()
	}
	select {
	case r := <-req.resp:
		return r.blocks, r.batchID, r.err
	case <-ctx.Done():
		return nil, "", ctx.Err()
	}
}

// stopBatchers shuts the batch loops down. Callers must guarantee no
// request is in a batcher (Drain runs after http.Server.Shutdown, which
// waits out every in-flight handler).
func (s *Server) stopBatchers() {
	s.batchMu.Lock()
	for _, b := range s.batchers {
		close(b.stop)
	}
	s.batchMu.Unlock()
	s.batchWG.Wait()
	s.batchMu.Lock()
	for _, b := range s.batchers {
		b.sched.Close()
	}
	s.batchMu.Unlock()
}

func (b *batcher) loop() {
	for {
		var first batchReq
		select {
		case <-b.stop:
			return
		case first = <-b.ch:
		}
		var bt *obs.Trace
		if b.traceOn {
			bt = obs.NewTrace("batch")
		}
		// Group commit: take what is already queued, never wait for more.
		gspan := bt.StartSpan("batch.gather")
		reqs := []batchReq{first}
		n := len(first.blocks)
		for n < b.maxBlocks && len(b.ch) > 0 {
			r := <-b.ch
			reqs = append(reqs, r)
			n += len(r.blocks)
		}
		gspan.End()

		aspan := bt.StartSpan("batch.assemble")
		flat := make([][]sparc.Inst, 0, n)
		for _, r := range reqs {
			flat = append(flat, r.blocks...)
		}
		aspan.End()
		sspan := bt.StartSpan("batch.schedule")
		ctx := context.Background()
		if bt != nil {
			ctx = obs.WithTraceParent(ctx, bt, sspan.Idx())
		}
		if b.inFlight != nil {
			b.inFlight(len(reqs))
		}
		out, err := b.sched.ScheduleBlocksCtx(ctx, flat)
		sspan.End()

		// Telemetry first, so a member holding its reply sees its batch.
		var batchID string
		if bt != nil {
			batchID = bt.ID()
		}
		b.finishTrace(bt, reqs, n, err)
		if err == nil {
			b.reg.Counter("eeld.batches_total").Inc()
			b.reg.Histogram("eeld.batch.requests", obs.ExpBuckets(1, 10)).Observe(int64(len(reqs)))
			b.reg.Histogram("eeld.batch.blocks", obs.ExpBuckets(1, 14)).Observe(int64(n))
		}
		off := 0
		for _, r := range reqs {
			resp := batchResp{batchID: batchID, err: err}
			if err == nil {
				resp.blocks = out[off : off+len(r.blocks)]
			}
			off += len(r.blocks)
			r.resp <- resp
		}
	}
}

// finishTrace closes the batch trace: one top-level "member" span per
// coalesced request, spanning the whole batch and linking back to the
// member's request trace, then records the trace in the flight recorder.
func (b *batcher) finishTrace(bt *obs.Trace, reqs []batchReq, blocks int, err error) {
	if bt == nil {
		return
	}
	end := bt.SinceStart()
	for _, r := range reqs {
		notes := []string{"blocks=" + strconv.Itoa(len(r.blocks))}
		if r.traceID != "" {
			notes = append(notes, "trace="+r.traceID)
		}
		bt.AddSpan("member", -1, 0, end, notes...)
	}
	bt.Annotate("requests", strconv.Itoa(len(reqs)))
	bt.Annotate("blocks", strconv.Itoa(blocks))
	if err != nil {
		bt.Anomaly = "error"
	}
	bt.Finish()
	b.flight.Record(bt.Export())
}
