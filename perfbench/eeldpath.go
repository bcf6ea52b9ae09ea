package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"eel/internal/daemon"
	"eel/internal/exe"
	"eel/internal/obs"
)

// The eeld path: the scheduling service, booted in process on a loopback
// listener and driven open loop. Requests arrive as a Poisson stream at
// eeldRate and are timed from when they were due, so a stall charges
// every request queued behind it. At most NumCPU requests are in flight,
// each on its own connection.

// warmImages is how many of the most popular edit images the set-up
// warm-up opens, next to one pass over the hot schedule payloads.
const warmImages = 8

type daemonHandle struct {
	srv  *daemon.Server
	hs   *http.Server
	url  string
	done chan error
}

// startDaemon boots a server; flight, when non-nil, turns on request
// tracing into it.
func startDaemon(flight *obs.Flight) (*daemonHandle, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := daemon.New(daemon.Config{Registry: obs.NewRegistry(), Flight: flight})
	d := &daemonHandle{
		srv:  srv,
		hs:   &http.Server{Handler: srv},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the server and waits for it to exit.
func (d *daemonHandle) stop() error {
	d.srv.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	_, derr := d.srv.Drain()
	return errors.Join(err, derr)
}

func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
}

// do sends one stream request and returns the response body.
func (d *daemonHandle) do(c *http.Client, in *inputs, r eeldReq) ([]byte, error) {
	url, body, ctype := d.url+"/v1/schedule", []byte(nil), "application/json"
	if r.sched != nil {
		body = r.sched.body
	} else {
		im := in.suite[r.image]
		url = fmt.Sprintf("%s/v1/edit?op=instrument&machine=%s", d.url, im.machine)
		body, ctype = im.raw, "application/octet-stream"
	}
	resp, err := c.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// warm sends every hot schedule payload and edits the most popular images
// once, so the timed stream meets a daemon whose caches have filled.
func (d *daemonHandle) warm(in *inputs) error {
	c := newClient()
	defer c.CloseIdleConnections()
	for _, p := range in.hot {
		if _, err := d.do(c, in, eeldReq{sched: p}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	for _, i := range in.rank[:warmImages] {
		if _, err := d.do(c, in, eeldReq{image: i}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// reqResult is one stream request's outcome.
type reqResult struct {
	late    time.Duration // dispatch after due: the generator's own delay
	latency time.Duration // response after due
	service time.Duration // response after send
	end     time.Duration // response, from stream start
	body    []byte
	err     error
}

type eeldResult struct {
	stream []eeldReq
	res    []reqResult
	alloc  uint64
	// Daemon counters over the stream, scraped from /metrics.
	cacheHits, cacheMisses, batches, batchBlocks int64
}

// runEeld replays the stream's first span of requests open loop.
func runEeld(d *daemonHandle, in *inputs, span time.Duration) (*eeldResult, error) {
	r := &eeldResult{}
	for _, q := range in.stream {
		if q.at < span {
			r.stream = append(r.stream, q)
		}
	}
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	var mBefore, mAfter runtime.MemStats
	runtime.ReadMemStats(&mBefore)
	r.res = d.openLoop(in, r.stream)
	runtime.ReadMemStats(&mAfter)
	r.alloc = mAfter.TotalAlloc - mBefore.TotalAlloc
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	r.cacheHits = after.Gauges["eeld.cache.hits"] - before.Gauges["eeld.cache.hits"]
	r.cacheMisses = after.Gauges["eeld.cache.misses"] - before.Gauges["eeld.cache.misses"]
	hb, ha := before.Histograms["eeld.batch.blocks"], after.Histograms["eeld.batch.blocks"]
	r.batches, r.batchBlocks = ha.Count-hb.Count, ha.Sum-hb.Sum
	return r, nil
}

func (d *daemonHandle) openLoop(in *inputs, stream []eeldReq) []reqResult {
	res := make([]reqResult, len(stream))
	c := newClient()
	defer c.CloseIdleConnections()
	// Sized to the number of sends, so the dispatcher never blocks on a
	// busy client: a request waiting for a connection is late on the
	// daemon's account, not the generator's.
	jobs := make(chan int, len(stream))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sent := time.Now()
				body, err := d.do(c, in, stream[i])
				now := time.Now()
				res[i].latency = now.Sub(start) - stream[i].at
				res[i].service = now.Sub(sent)
				res[i].end = now.Sub(start)
				res[i].body, res[i].err = body, err
			}
		}()
	}
	for i, q := range stream {
		if wait := q.at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		res[i].late = time.Since(start) - q.at
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return res
}

// scrape reads the daemon's JSON metrics export.
func (d *daemonHandle) scrape() (*obs.Export, error) {
	resp, err := http.Get(d.url + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var e obs.Export
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &e, nil
}

// flight reads the daemon's /debug/flight dump.
func (d *daemonHandle) flight() ([]*obs.TraceExport, error) {
	resp, err := http.Get(d.url + "/debug/flight")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/flight: status %d", resp.StatusCode)
	}
	var out []*obs.TraceExport
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var e obs.TraceExport
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("/debug/flight: %w", err)
		}
		out = append(out, &e)
	}
	return out, sc.Err()
}

// failed counts requests that failed or were refused.
func (r *eeldResult) failed() int {
	n := 0
	for _, q := range r.res {
		if q.err != nil {
			n++
		}
	}
	return n
}

// check verifies every schedule response against its request, and runs a
// sample of edit responses (the first per image, up to checkedEdits
// images) against their originals.
func (r *eeldResult) check(in *inputs) error {
	const checkedEdits = 8
	checked := map[int]bool{}
	for i, q := range r.stream {
		res := r.res[i]
		if res.err != nil {
			continue
		}
		if q.sched != nil {
			var resp struct {
				Blocks [][]uint32 `json:"blocks"`
			}
			if err := json.Unmarshal(res.body, &resp); err != nil {
				return fmt.Errorf("schedule response %d: %w", i, err)
			}
			if len(resp.Blocks) != len(q.sched.blocks) {
				return fmt.Errorf("schedule response %d: %d blocks, sent %d", i, len(resp.Blocks), len(q.sched.blocks))
			}
			for b := range resp.Blocks {
				if err := checkScheduled(q.sched.blocks[b], resp.Blocks[b]); err != nil {
					return fmt.Errorf("schedule response %d block %d: %w", i, b, err)
				}
			}
			continue
		}
		if checked[q.image] || len(checked) == checkedEdits {
			continue
		}
		checked[q.image] = true
		im := in.suite[q.image]
		edited, err := exe.Unmarshal(res.body)
		if err != nil {
			return fmt.Errorf("edit response %d (%s): %w", i, im.name, err)
		}
		prof, err := profileLayout(im.orig)
		if err != nil {
			return err
		}
		if err := checkEdit(im.orig, edited, prof); err != nil {
			return fmt.Errorf("edit response %d (%s): %w", i, im.name, err)
		}
	}
	return nil
}

// loadgen summarizes the generator: its p90 lateness and the offered and
// achieved rates. valid is false when the generator, not the daemon,
// fell behind: it dispatched late, or offered well under eeldRate.
func (r *eeldResult) loadgen() (lateP90ms, offered, achieved float64, valid bool) {
	var late []float64
	var last, lastEnd time.Duration
	ok := 0
	for i, q := range r.res {
		late = append(late, ms(q.late))
		if d := r.stream[i].at + q.late; d > last {
			last = d
		}
		if q.end > lastEnd {
			lastEnd = q.end
		}
		if q.err == nil {
			ok++
		}
	}
	lateP90ms = quantile(late, 0.9)
	offered = float64(len(r.res)) / last.Seconds()
	achieved = float64(ok) / lastEnd.Seconds()
	return lateP90ms, offered, achieved, lateP90ms < maxLateMs && offered > minOfferedShare*eeldRate
}

// A run whose generator dispatched later than maxLateMs at p90, or
// offered under minOfferedShare of eeldRate, measured the client.
const (
	maxLateMs       = 5.0
	minOfferedShare = 0.8
)

// latencies splits successful requests' latencies (ms, from due) by
// route, and returns all their service times (ms, from send).
func (r *eeldResult) latencies() (sched, edit, service []float64) {
	for i, q := range r.res {
		if q.err != nil {
			continue
		}
		if r.stream[i].sched != nil {
			sched = append(sched, ms(q.latency))
		} else {
			edit = append(edit, ms(q.latency))
		}
		service = append(service, ms(q.service))
	}
	return sched, edit, service
}

func (r *eeldResult) metrics(m metrics) {
	sched, edit, _ := r.latencies()
	m.set("sched_req_ms_p50", quantile(sched, 0.5))
	m.set("sched_req_ms_p90", quantile(sched, 0.9))
	m.set("edit_req_ms_p50", quantile(edit, 0.5))
	m.set("edit_req_ms_p90", quantile(edit, 0.9))
}

// layerMetrics reports the daemon's and the generator's per-layer
// figures. traced is a replay of the same stream against a daemon with
// the flight recorder on; its request traces give the per-span means.
func (r *eeldResult) layerMetrics(m metrics, traced *eeldResult, flight []*obs.TraceExport) {
	lateP90, offered, achieved, _ := r.loadgen()
	m.set("loadgen.late_ms_p90", lateP90)
	m.set("loadgen.offered_rps", offered)
	m.set("loadgen.achieved_rps", achieved)
	m.set("error_rate", float64(r.failed())/float64(len(r.res)))
	m.set("daemon.cache_hit_ratio", ratio(float64(r.cacheHits), float64(r.cacheHits+r.cacheMisses)))
	m.set("daemon.batch_blocks_mean", ratio(float64(r.batchBlocks), float64(r.batches)))

	spans := map[string][]float64{}
	var tops []float64
	hits, lookups := 0, 0
	for _, e := range flight {
		if e.Kind != "request" || e.Code != http.StatusOK || !strings.HasPrefix(e.Route, "/v1/") {
			continue
		}
		tops = append(tops, float64(e.TopSpanNs())/1e6)
		for _, sp := range e.Spans {
			if sp.Parent != -1 {
				continue
			}
			spans[sp.Name] = append(spans[sp.Name], float64(sp.DurNs)/1e6)
			if sp.Name == "cache.lookup" {
				lookups++
				for _, n := range sp.Notes {
					if n == "editor=hit" {
						hits++
					}
				}
			}
		}
	}
	m.set("daemon.admit_wait_ms", mean(spans["admit.wait"]))
	m.set("daemon.decode_ms", mean(spans["req.decode"]))
	m.set("daemon.batch_queue_ms", mean(spans["batch.queue"]))
	m.set("daemon.editor_lookup_ms", mean(spans["cache.lookup"]))
	m.set("daemon.eel_edit_ms", mean(spans["eel.edit"]))
	m.set("daemon.encode_ms", mean(spans["respond.encode"]))
	m.set("daemon.editor_hit_ratio", ratio(float64(hits), float64(lookups)))

	_, _, untraced := r.latencies()
	_, _, tracedSvc := traced.latencies()
	m.set("eeld.unattributed_ms", mean(untraced)-mean(tops))
	m.set("eeld.trace_overhead_ms", mean(tracedSvc)-mean(untraced))
}

// traceEeld boots a second daemon with the flight recorder on, warms it
// like set-up does, replays the stream's first span against it, and
// returns the replay with the recorder's traces of the stream.
func traceEeld(in *inputs, span time.Duration) (r *eeldResult, traces []*obs.TraceExport, err error) {
	d, err := startDaemon(obs.NewFlight(1 << 14))
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}()
	if err := d.warm(in); err != nil {
		return nil, nil, err
	}
	warm, err := d.flight()
	if err != nil {
		return nil, nil, err
	}
	if r, err = runEeld(d, in, span); err != nil {
		return nil, nil, err
	}
	all, err := d.flight()
	if err != nil {
		return nil, nil, err
	}
	seen := make(map[string]bool, len(warm))
	for _, e := range warm {
		seen[e.TraceID] = true
	}
	for _, e := range all {
		if !seen[e.TraceID] {
			traces = append(traces, e)
		}
	}
	return r, traces, nil
}
