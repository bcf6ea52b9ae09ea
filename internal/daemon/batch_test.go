package daemon

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"eel/internal/core"
	"eel/internal/obs"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// batchGate drives the ultrasparc batcher deterministically through its
// inFlight seam: every batch reports its request count on sizes, and
// while the gate is held a batch stays in flight, so later requests
// queue behind it.
type batchGate struct {
	s     *Server
	b     *batcher
	model *spawn.Model
	sizes chan int
	mu    sync.Mutex
	held  bool // touched only by the test goroutine
}

func gateBatches(t *testing.T, s *Server) *batchGate {
	t.Helper()
	model, err := s.model(string(spawn.UltraSPARC))
	if err != nil {
		t.Fatal(err)
	}
	g := &batchGate{s: s, b: s.batcherFor(model), model: model, sizes: make(chan int, 64)}
	g.b.inFlight = func(requests int) {
		g.sizes <- requests
		g.mu.Lock()
		g.mu.Unlock()
	}
	// Registered after testServer's cleanup, so it runs first: a failed
	// test never leaves a batch held while the server shuts down.
	t.Cleanup(g.release)
	return g
}

func (g *batchGate) hold() {
	g.mu.Lock()
	g.held = true
}

func (g *batchGate) release() {
	if g.held {
		g.held = false
		g.mu.Unlock()
	}
}

// nextBatch returns the request count of the next batch to go in flight.
func (g *batchGate) nextBatch(t *testing.T) int {
	t.Helper()
	select {
	case n := <-g.sizes:
		return n
	case <-time.After(10 * time.Second):
		t.Fatal("no batch went in flight")
		return 0
	}
}

// waitQueued returns once n requests are queued behind the batch in
// flight.
func (g *batchGate) waitQueued(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(g.b.ch) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests queued, want %d", len(g.b.ch), n)
		}
		time.Sleep(time.Millisecond)
	}
}

type batchResult struct {
	words [][]uint32
	err   error
}

// submit sends one request through the batcher without waiting for it.
func (g *batchGate) submit(ctx context.Context, blocks [][]sparc.Inst) <-chan batchResult {
	out := make(chan batchResult, 1)
	go func() {
		got, _, err := g.s.scheduleBatched(ctx, g.model, blocks)
		if err != nil {
			out <- batchResult{err: err}
			return
		}
		words, err := encodeBlocks(got)
		out <- batchResult{words: words, err: err}
	}()
	return out
}

func decodeBlocks(t *testing.T, words [][]uint32) [][]sparc.Inst {
	t.Helper()
	out := make([][]sparc.Inst, len(words))
	for i, blk := range words {
		out[i] = make([]sparc.Inst, len(blk))
		for j, w := range blk {
			inst, err := sparc.Decode(w)
			if err != nil {
				t.Fatal(err)
			}
			out[i][j] = inst
		}
	}
	return out
}

func encodeBlocks(blocks [][]sparc.Inst) ([][]uint32, error) {
	out := make([][]uint32, len(blocks))
	for i, blk := range blocks {
		out[i] = make([]uint32, len(blk))
		for j, inst := range blk {
			w, err := sparc.Encode(inst)
			if err != nil {
				return nil, err
			}
			out[i][j] = w
		}
	}
	return out, nil
}

// requestBlocks returns n distinct requests of nblocks blocks each,
// paired with the bytes a direct scheduler run produces for each.
func requestBlocks(t *testing.T, model *spawn.Model, seed int64, n, nblocks int) (reqs [][][]sparc.Inst, want [][][]uint32) {
	t.Helper()
	direct := core.New(model, core.Options{})
	defer direct.Close()
	for i := 0; i < n; i++ {
		blocks := decodeBlocks(t, blockWords(t, seed+int64(i), nblocks))
		sched, err := direct.ScheduleBlocks(blocks)
		if err != nil {
			t.Fatal(err)
		}
		words, err := encodeBlocks(sched)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, blocks)
		want = append(want, words)
	}
	return reqs, want
}

func checkResult(t *testing.T, name string, res <-chan batchResult, want [][]uint32) {
	t.Helper()
	select {
	case r := <-res:
		if r.err != nil {
			t.Fatalf("%s: %v", name, r.err)
		}
		if fmt.Sprint(r.words) != fmt.Sprint(want) {
			t.Fatalf("%s: batched schedule differs from the direct scheduler", name)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no reply", name)
	}
}

func batchRequests(reg *obs.Registry) *obs.Histogram {
	return reg.Histogram("eeld.batch.requests", obs.ExpBuckets(1, 10))
}

// TestBatcherLoneRequestFlushesAlone: with no batch in flight, a lone
// request is flushed at once as a one-request batch.
func TestBatcherLoneRequestFlushesAlone(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := testServer(t, Config{Registry: reg})
	g := gateBatches(t, s)
	reqs, want := requestBlocks(t, g.model, 51, 1, 8)

	checkResult(t, "lone request", g.submit(context.Background(), reqs[0]), want[0])
	if n := g.nextBatch(t); n != 1 {
		t.Fatalf("lone request flushed in a %d-request batch", n)
	}
	if h := batchRequests(reg); h.Count() != 1 || h.Sum() != 1 {
		t.Fatalf("eeld.batch.requests count=%d sum=%d, want one 1-request batch", h.Count(), h.Sum())
	}
}

// TestBatcherGroupCommit: requests that queue while a batch is
// scheduling flush together as the next batch, and each member gets its
// own slice of the result.
func TestBatcherGroupCommit(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := testServer(t, Config{Registry: reg})
	g := gateBatches(t, s)
	const k = 5
	reqs, want := requestBlocks(t, g.model, 61, k+1, 6)

	g.hold()
	lead := g.submit(context.Background(), reqs[0])
	if n := g.nextBatch(t); n != 1 {
		t.Fatalf("lead batch has %d requests, want 1", n)
	}
	queued := make([]<-chan batchResult, k)
	for i := range queued {
		queued[i] = g.submit(context.Background(), reqs[i+1])
	}
	g.waitQueued(t, k)
	g.release()

	checkResult(t, "lead", lead, want[0])
	if n := g.nextBatch(t); n != k {
		t.Fatalf("queued requests flushed in a %d-request batch, want %d", n, k)
	}
	for i, res := range queued {
		checkResult(t, fmt.Sprintf("queued %d", i), res, want[i+1])
	}
	if h := batchRequests(reg); h.Count() != 2 || h.Sum() != 1+k {
		t.Fatalf("eeld.batch.requests count=%d sum=%d, want batches of 1 and %d", h.Count(), h.Sum(), k)
	}
}

// TestBatcherMaxBlocksSplits: BatchMaxBlocks still caps how much of the
// queue one batch takes.
func TestBatcherMaxBlocksSplits(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := testServer(t, Config{Registry: reg, BatchMaxBlocks: 10})
	g := gateBatches(t, s)
	const k = 5
	reqs, want := requestBlocks(t, g.model, 71, k+1, 4)

	g.hold()
	lead := g.submit(context.Background(), reqs[0])
	g.nextBatch(t)
	queued := make([]<-chan batchResult, k)
	for i := range queued {
		queued[i] = g.submit(context.Background(), reqs[i+1])
	}
	g.waitQueued(t, k)
	g.release()

	checkResult(t, "lead", lead, want[0])
	// 4-block requests against a 10-block cap: the batch stops taking
	// requests once it reaches 12 blocks, so the queue of 5 splits 3+2.
	for _, wantN := range []int{3, 2} {
		if n := g.nextBatch(t); n != wantN {
			t.Fatalf("batch of %d requests, want %d", n, wantN)
		}
	}
	for i, res := range queued {
		checkResult(t, fmt.Sprintf("queued %d", i), res, want[i+1])
	}
}

// TestBatcherCancelWhileQueued: a request cancelled while it waits
// behind a busy batcher returns ctx.Err() at once, and the batcher keeps
// serving byte-correct answers afterwards.
func TestBatcherCancelWhileQueued(t *testing.T) {
	s, _ := testServer(t, Config{})
	g := gateBatches(t, s)
	reqs, want := requestBlocks(t, g.model, 81, 3, 6)

	g.hold()
	lead := g.submit(context.Background(), reqs[0])
	g.nextBatch(t)
	ctx, cancel := context.WithCancel(context.Background())
	victim := g.submit(ctx, reqs[1])
	g.waitQueued(t, 1)
	cancel()
	select {
	case r := <-victim:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("cancelled request returned %v, want context.Canceled", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request still waiting on a busy batcher")
	}
	g.release()

	checkResult(t, "lead", lead, want[0])
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	checkResult(t, "next request", g.submit(ctx2, reqs[2]), want[2])
}
