// Package daemon implements scheduling-as-a-service: the HTTP server
// behind cmd/eeld. It front-ends the executable-editing library with the
// pieces a long-running multi-tenant service needs — request admission
// with a bounded queue, per-tenant concurrency quotas, cross-request
// batching into core.ScheduleBlocks, one shared sharded schedule cache
// (spilled to disk across restarts), per-executable Editor reuse, and
// /metrics + /healthz served off internal/obs.
//
// Request flow (DESIGN.md §11):
//
//	admit (queue bound, tenant quota)
//	  -> /v1/schedule: batcher (cross-request coalescing) -> shared Scheduler
//	  -> /v1/edit:     editor LRU (per-image analysis)    -> shared cache
//	  -> encode response, count eeld.requests_total{route,code}
//
// Every error path returns structured JSON ({"error": ...}) with the
// matching status code, and every response — success or failure — is
// counted by route and code, so the CI smoke job can assert on failure
// shapes from the /metrics export alone.
package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"eel/internal/core"
	"eel/internal/eel"
	"eel/internal/obs"
	"eel/internal/qpt"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// Config tunes the server. The zero value is usable: defaults below.
type Config struct {
	// CacheCapacity bounds the shared schedule cache (0 = core default).
	CacheCapacity int
	// MaxInflight is the number of requests processed concurrently;
	// admitted requests beyond it wait in the queue. Default 8.
	MaxInflight int
	// QueueDepth bounds how many admitted requests may wait for an
	// inflight slot before new ones are rejected with 503. Default 64.
	QueueDepth int
	// TenantQuota caps one tenant's concurrently admitted requests
	// (X-Eeld-Tenant header; "anon" when absent). 0 disables quotas.
	TenantQuota int
	// BatchMaxBlocks caps how many queued blocks one batch takes; a batch
	// otherwise flushes as soon as it is formed (batch.go). Default 512.
	BatchMaxBlocks int
	// Workers is the scheduling worker-pool size per batch/edit
	// (core.Options.Workers; output is worker-count independent).
	Workers int
	// EditorCap bounds the per-executable Editor LRU. Default 32.
	EditorCap int
	// SpillPath, when set, is the schedule-cache spill file: loaded by
	// LoadSpill at boot, written by Drain.
	SpillPath string
	// SpillMaxBytes bounds the spill file size (0 = unbounded).
	SpillMaxBytes int
	// Fingerprint keys spill validity across builds (cmd/eeld passes
	// the git revision). See core.Cache.SaveSpill.
	Fingerprint string
	// Registry receives all daemon telemetry. Must be non-nil.
	Registry *obs.Registry
	// AllowTestDelay enables the delay_ms query parameter, which holds
	// an admitted request open — the CI drain test's hook. Never enable
	// in production.
	AllowTestDelay bool
	// Flight, when non-nil, turns on request tracing and retains
	// completed traces for GET /debug/flight (cmd/eeld -flight).
	Flight *obs.Flight
	// AccessLog, when non-nil, turns on request tracing and receives one
	// TraceExport JSON line per completed request (cmd/eeld -log).
	AccessLog *obs.JSONL
	// SlowRequest, when > 0, marks requests slower than it as anomalous
	// ("slow"), pinning them in the flight recorder's anomaly ring.
	SlowRequest time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.BatchMaxBlocks <= 0 {
		c.BatchMaxBlocks = 512
	}
	if c.EditorCap <= 0 {
		c.EditorCap = 32
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Server is the scheduling service. Create with New, serve with any
// http.Server, stop with Drain.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	cache *core.Cache
	mux   *http.ServeMux

	admission *admission

	// Request tracing (nil = disabled: the hot path pays one pointer
	// test in instrument and nothing else).
	flight *obs.Flight
	access *obs.JSONL
	slow   time.Duration

	modelMu sync.Mutex
	models  map[spawn.Machine]*spawn.Model

	editors *editorLRU

	batchMu  sync.Mutex
	batchers map[batchKey]*batcher
	batchWG  sync.WaitGroup
	draining bool
}

// New builds a Server and, when configured, restores the schedule cache
// from its spill file. A corrupt spill is logged into the registry
// (eeld.spill.corrupt) and ignored: the daemon starts cold.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		reg:       cfg.Registry,
		cache:     core.NewCache(cfg.CacheCapacity),
		mux:       http.NewServeMux(),
		admission: newAdmission(cfg.MaxInflight, cfg.QueueDepth, cfg.TenantQuota),
		models:    make(map[spawn.Machine]*spawn.Model),
		editors:   newEditorLRU(cfg.EditorCap),
		batchers:  make(map[batchKey]*batcher),
		flight:    cfg.Flight,
		access:    cfg.AccessLog,
		slow:      cfg.SlowRequest,
	}
	if cfg.SpillPath != "" {
		n, err := s.cache.LoadSpill(cfg.SpillPath, cfg.Fingerprint)
		if err != nil {
			s.reg.Counter("eeld.spill.corrupt").Inc()
		}
		s.reg.Gauge("eeld.spill.loaded_entries").Set(int64(n))
	}
	s.mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	s.mux.Handle("POST /v1/schedule", s.instrument("/v1/schedule", s.handleSchedule))
	s.mux.Handle("POST /v1/edit", s.instrument("/v1/edit", s.handleEdit))
	s.mux.Handle("GET /debug/flight", s.instrument("/debug/flight", s.handleFlight))
	return s
}

// tracing reports whether request traces are being collected.
func (s *Server) tracing() bool { return s.flight != nil || s.access != nil }

// Cache exposes the shared schedule cache (stats reporting, tests).
func (s *Server) Cache() *core.Cache { return s.cache }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusWriter records the response code and byte count for the request
// counter and the access log.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// instrument wraps a handler with the per-route request counter and
// latency histogram, and — when tracing is on — the request trace's
// whole lifecycle: created here, carried in the request context, and
// after the handler returns finished, classified (error / quota / slow),
// recorded in the flight recorder, written to the access log, and linked
// into the latency histogram as the bucket's exemplar. Counting happens
// after the handler returns, so every exit path — including structured
// errors — lands in eeld.requests_total{route,code}.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		var tr *obs.Trace
		if s.tracing() {
			tr = obs.NewTrace("request")
			tr.Route = route
			tr.Tenant = tenantOf(r)
			if r.ContentLength > 0 {
				tr.BytesIn = r.ContentLength
			}
			r = r.WithContext(obs.WithTrace(r.Context(), tr))
		}
		h(sw, r)
		lat := time.Since(start)
		s.reg.Counter(obs.LabeledName("eeld.requests_total",
			"route", route, "code", strconv.Itoa(sw.code))).Inc()
		hist := s.reg.Histogram(obs.LabeledName("eeld.request_micros", "route", route),
			obs.ExpBuckets(50, 16))
		if tr == nil {
			hist.Observe(lat.Microseconds())
			return
		}
		tr.Code = sw.code
		tr.BytesOut = sw.bytes
		switch {
		case sw.code == http.StatusTooManyRequests:
			tr.Anomaly = "quota"
		case sw.code >= 400:
			tr.Anomaly = "error"
		case s.slow > 0 && lat > s.slow:
			tr.Anomaly = "slow"
		}
		tr.Finish()
		e := tr.Export()
		s.flight.Record(e)
		if err := s.access.Write(e); err != nil {
			s.reg.Counter("eeld.access_log.errors").Inc()
		}
		hist.ObserveTraced(lat.Microseconds(), tr.ID())
	})
}

// errorBody is the JSON shape of every failure response.
type errorBody struct {
	Error string `json:"error"`
}

// fail writes the structured JSON error envelope with the given status.
func fail(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

// tenantOf resolves the request's tenant for quota accounting.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Eeld-Tenant"); t != "" {
		return t
	}
	return "anon"
}

// testDelay honors the CI drain hook: with AllowTestDelay, a request may
// carry delay_ms to stay in flight while the harness sends SIGTERM.
func (s *Server) testDelay(r *http.Request) {
	if !s.cfg.AllowTestDelay {
		return
	}
	if ms, err := strconv.Atoi(r.URL.Query().Get("delay_ms")); err == nil && ms > 0 {
		if ms > 10_000 {
			ms = 10_000
		}
		time.Sleep(time.Duration(ms) * time.Millisecond)
	}
}

// model loads (once) the named machine model.
func (s *Server) model(name string) (*spawn.Model, error) {
	m := spawn.Machine(name)
	if name == "" {
		m = spawn.UltraSPARC
	}
	s.modelMu.Lock()
	defer s.modelMu.Unlock()
	if md, ok := s.models[m]; ok {
		return md, nil
	}
	md, err := spawn.Load(m)
	if err != nil {
		return nil, err
	}
	s.models[m] = md
	return md, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.batchMu.Lock()
	draining := s.draining
	s.batchMu.Unlock()
	if draining {
		fail(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.snapshotGauges()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		if err := s.reg.WriteJSON(w); err != nil {
			fail(w, http.StatusInternalServerError, "export: %v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.reg.WritePrometheus(w); err != nil {
		fail(w, http.StatusInternalServerError, "export: %v", err)
	}
}

// handleFlight dumps the flight recorder as JSONL (one TraceExport per
// line, schemas/trace.schema.json). 404 when tracing is disabled.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		fail(w, http.StatusNotFound, "flight recorder disabled (start eeld with -flight)")
		return
	}
	recorded, anomalous := s.flight.Stats()
	s.reg.Gauge("eeld.flight.recorded").Set(recorded)
	s.reg.Gauge("eeld.flight.anomalous").Set(anomalous)
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := s.flight.WriteJSONL(w); err != nil {
		s.reg.Counter("eeld.flight.dump_errors").Inc()
	}
}

// snapshotGauges refreshes point-in-time gauges right before an export.
func (s *Server) snapshotGauges() {
	hits, misses := s.cache.Stats()
	s.reg.Gauge("eeld.cache.hits").Set(int64(hits))
	s.reg.Gauge("eeld.cache.misses").Set(int64(misses))
	s.reg.Gauge("eeld.cache.len").Set(int64(s.cache.Len()))
	s.reg.Gauge("eeld.cache.capacity").Set(int64(s.cache.Capacity()))
	s.reg.Gauge("eeld.editors").Set(int64(s.editors.Len()))
	s.reg.Gauge("eeld.inflight").Set(int64(s.admission.Inflight()))
	s.reg.Gauge("eeld.queued").Set(int64(s.admission.Queued()))
	// The host's core count and resolved scheduling pool size, so load
	// generators (cmd/eelload) can stamp latency series with the
	// capacity they were measured against.
	s.reg.Gauge("eeld.host_cores").Set(int64(runtime.NumCPU()))
	s.reg.Gauge("eeld.pool_workers").Set(int64(s.poolWorkers()))
}

// poolWorkers resolves Config.Workers the way core.Options does.
func (s *Server) poolWorkers() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	if s.cfg.Workers < 0 {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// scheduleRequest is the /v1/schedule JSON body: raw instruction words
// per block, scheduled independently (each block must be a full basic
// block: straight-line, or CTI in the penultimate slot).
type scheduleRequest struct {
	Machine string     `json:"machine,omitempty"`
	Blocks  [][]uint32 `json:"blocks"`
}

type scheduleResponse struct {
	Machine string     `json:"machine"`
	Blocks  [][]uint32 `json:"blocks"`
}

// maxScheduleBody bounds a /v1/schedule request body (16 MiB of JSON).
const maxScheduleBody = 16 << 20

// httpError carries a failure out of a decode helper along with the
// status it maps to, so handlers can fail from one place per span.
type httpError struct {
	code int
	msg  string
}

func httpErrorf(code int, format string, args ...any) *httpError {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// decodeSchedule reads and validates a /v1/schedule body: the request
// trace's req.decode span covers exactly this work.
func (s *Server) decodeSchedule(r *http.Request) (*spawn.Model, [][]sparc.Inst, *httpError) {
	var req scheduleRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, maxScheduleBody+1))
	if err != nil {
		return nil, nil, httpErrorf(http.StatusBadRequest, "reading body: %v", err)
	}
	if len(body) > maxScheduleBody {
		return nil, nil, httpErrorf(http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxScheduleBody)
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, httpErrorf(http.StatusBadRequest, "parsing request: %v", err)
	}
	if len(req.Blocks) == 0 {
		return nil, nil, httpErrorf(http.StatusBadRequest, "no blocks in request")
	}
	model, err := s.model(req.Machine)
	if err != nil {
		return nil, nil, httpErrorf(http.StatusBadRequest, "machine: %v", err)
	}
	blocks := make([][]sparc.Inst, len(req.Blocks))
	for i, words := range req.Blocks {
		block := make([]sparc.Inst, len(words))
		for j, word := range words {
			inst, err := sparc.Decode(word)
			if err != nil {
				return nil, nil, httpErrorf(http.StatusBadRequest, "block %d word %d: %v", i, j, err)
			}
			block[j] = inst
		}
		blocks[i] = block
	}
	return model, blocks, nil
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	tr := obs.TraceFrom(r.Context())
	asp := tr.StartSpan("admit.wait")
	release, code, msg := s.admission.admit(tenantOf(r), s.isDraining())
	asp.End()
	if code != 0 {
		s.countReject(msg)
		fail(w, code, "%s", msg)
		return
	}
	defer release()

	dsp := tr.StartSpan("req.decode")
	s.testDelay(r)
	model, blocks, herr := s.decodeSchedule(r)
	dsp.End()
	if herr != nil {
		fail(w, herr.code, "%s", herr.msg)
		return
	}

	qsp := tr.StartSpan("batch.queue")
	scheduled, batchID, err := s.scheduleBatched(r.Context(), model, blocks)
	if batchID != "" {
		qsp.Note("batch", batchID)
	}
	qsp.End()
	if err != nil {
		fail(w, http.StatusUnprocessableEntity, "scheduling: %v", err)
		return
	}

	esp := tr.StartSpan("respond.encode")
	defer esp.End()
	resp := scheduleResponse{Machine: string(model.Machine), Blocks: make([][]uint32, len(scheduled))}
	for i, block := range scheduled {
		words := make([]uint32, len(block))
		for j, inst := range block {
			word, err := sparc.Encode(inst)
			if err != nil {
				fail(w, http.StatusInternalServerError, "encoding block %d: %v", i, err)
				return
			}
			words[j] = word
		}
		resp.Blocks[i] = words
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&resp)
}

// maxEditBody bounds a /v1/edit request body (64 MiB image).
const maxEditBody = 64 << 20

// decodeEdit reads and validates a /v1/edit request: the request
// trace's req.decode span covers exactly this work.
func (s *Server) decodeEdit(r *http.Request) (op string, model *spawn.Model, body []byte, herr *httpError) {
	q := r.URL.Query()
	op = q.Get("op")
	switch op {
	case "", "reschedule", "instrument":
	default:
		return "", nil, nil, httpErrorf(http.StatusBadRequest, "unknown op %q (want reschedule or instrument)", op)
	}
	model, err := s.model(q.Get("machine"))
	if err != nil {
		return "", nil, nil, httpErrorf(http.StatusBadRequest, "machine: %v", err)
	}
	body, err = io.ReadAll(io.LimitReader(r.Body, maxEditBody+1))
	if err != nil {
		return "", nil, nil, httpErrorf(http.StatusBadRequest, "reading body: %v", err)
	}
	if len(body) > maxEditBody {
		return "", nil, nil, httpErrorf(http.StatusRequestEntityTooLarge, "image exceeds %d bytes", maxEditBody)
	}
	return op, model, body, nil
}

func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	tr := obs.TraceFrom(r.Context())
	asp := tr.StartSpan("admit.wait")
	release, code, msg := s.admission.admit(tenantOf(r), s.isDraining())
	asp.End()
	if code != 0 {
		s.countReject(msg)
		fail(w, code, "%s", msg)
		return
	}
	defer release()

	dsp := tr.StartSpan("req.decode")
	s.testDelay(r)
	op, model, body, herr := s.decodeEdit(r)
	dsp.End()
	if herr != nil {
		fail(w, herr.code, "%s", herr.msg)
		return
	}

	csp := tr.StartSpan("cache.lookup")
	ed, hit, err := s.editors.open(body, s.cache)
	if err == nil {
		if hit {
			csp.Note("editor", "hit")
		} else {
			csp.Note("editor", "miss")
		}
	}
	csp.End()
	if err != nil {
		fail(w, http.StatusBadRequest, "opening executable: %v", err)
		return
	}

	opts := eel.Options{
		Machine:  model,
		Schedule: true,
		Sched: core.Options{
			Workers: s.cfg.Workers,
			Cache:   s.cache,
			Obs:     s.reg,
		},
	}
	var tool eel.Instrumenter
	if op == "instrument" || op == "" {
		tool = &qpt.SlowProfiler{}
	}
	esp := tr.StartSpan("eel.edit")
	out, err := ed.EditCtx(obs.WithTraceParent(r.Context(), tr, esp.Idx()), tool, opts)
	esp.End()
	if err != nil {
		fail(w, http.StatusUnprocessableEntity, "edit: %v", err)
		return
	}
	wsp := tr.StartSpan("respond.encode")
	defer wsp.End()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(out.Marshal())
}

func (s *Server) isDraining() bool {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	return s.draining
}

// countReject attributes an admission rejection by reason.
func (s *Server) countReject(reason string) {
	s.reg.Counter(obs.LabeledName("eeld.rejects_total", "reason", rejectSlug(reason))).Inc()
}

// Drain moves the server into draining mode (healthz and new work return
// 503), waits for the caller to finish shutting down its http.Server,
// is expected to be called *after* http.Server.Shutdown returns (no
// requests in flight), stops the batchers, and writes the cache spill.
// It returns the number of spilled entries.
func (s *Server) Drain() (int, error) {
	s.stopBatchers()
	if s.cfg.SpillPath == "" {
		return 0, nil
	}
	n, err := s.cache.SaveSpill(s.cfg.SpillPath, s.cfg.Fingerprint, s.cfg.SpillMaxBytes)
	if err == nil {
		s.reg.Gauge("eeld.spill.saved_entries").Set(int64(n))
	}
	return n, err
}

// StartDraining flips the draining flag: health checks fail and new
// requests are rejected, while in-flight ones run to completion under
// http.Server.Shutdown. Call before Shutdown; call Drain after.
func (s *Server) StartDraining() {
	s.batchMu.Lock()
	s.draining = true
	s.batchMu.Unlock()
}
