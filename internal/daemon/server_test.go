package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"eel/internal/core"
	"eel/internal/eel"
	"eel/internal/exe"
	"eel/internal/obs"
	"eel/internal/sparc"
	"eel/internal/spawn"
	"eel/internal/workload"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		if _, err := s.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

// blockWords builds deterministic schedulable request payloads.
func blockWords(t *testing.T, seed int64, nblocks int) [][]uint32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]uint32, nblocks)
	for i := range out {
		block := workload.RandomBlock(rng, 4+rng.Intn(12), false)
		words := make([]uint32, len(block))
		for j, inst := range block {
			w, err := sparc.Encode(inst)
			if err != nil {
				t.Fatal(err)
			}
			words[j] = w
		}
		out[i] = words
	}
	return out
}

// openLibraryEditor opens an image the way an in-process caller would,
// for byte-diffing daemon output against the library path.
func openLibraryEditor(image []byte) (*eel.Editor, error) {
	x, err := exe.Unmarshal(image)
	if err != nil {
		return nil, err
	}
	return eel.Open(x)
}

func postSchedule(t *testing.T, ts *httptest.Server, tenant string, req scheduleRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", ts.URL+"/v1/schedule", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		hr.Header.Set("X-Eeld-Tenant", tenant)
	}
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestScheduleMatchesDirect: the service's batched path returns byte-for-
// byte what a direct core.Scheduler run produces for the same blocks.
func TestScheduleMatchesDirect(t *testing.T) {
	_, ts := testServer(t, Config{})
	words := blockWords(t, 11, 40)

	resp, body := postSchedule(t, ts, "", scheduleRequest{Machine: "ultrasparc", Blocks: words})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got scheduleResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}

	model, err := spawn.Load(spawn.UltraSPARC)
	if err != nil {
		t.Fatal(err)
	}
	sched := core.New(model, core.Options{})
	for i, blk := range words {
		insts := make([]sparc.Inst, len(blk))
		for j, w := range blk {
			insts[j], err = sparc.Decode(w)
			if err != nil {
				t.Fatal(err)
			}
		}
		want, err := sched.ScheduleBlock(insts)
		if err != nil {
			t.Fatal(err)
		}
		wantWords := make([]uint32, len(want))
		for j, inst := range want {
			wantWords[j], err = sparc.Encode(inst)
			if err != nil {
				t.Fatal(err)
			}
		}
		if fmt.Sprint(got.Blocks[i]) != fmt.Sprint(wantWords) {
			t.Fatalf("block %d: daemon schedule differs from direct scheduler", i)
		}
	}
}

// TestScheduleConcurrentBatching hammers the batcher from many tenants
// at once; every response must match the single-request answer, and the
// batcher must have coalesced at least one multi-request batch. The
// callers are released only once all of them are in a batch or queued
// behind the held one, so the coalescing is deterministic.
func TestScheduleConcurrentBatching(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, Config{Registry: reg, MaxInflight: 16})
	g := gateBatches(t, s)
	words := blockWords(t, 13, 6)

	want, _ := func() (*scheduleResponse, error) {
		resp, body := postSchedule(t, ts, "", scheduleRequest{Blocks: words})
		if resp.StatusCode != 200 {
			t.Fatalf("seed request: %d %s", resp.StatusCode, body)
		}
		var r scheduleResponse
		return &r, json.Unmarshal(body, &r)
	}()

	g.nextBatch(t) // the seed request
	g.hold()
	const callers = 12
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, body := postSchedule(t, ts, fmt.Sprintf("tenant-%d", c), scheduleRequest{Blocks: words})
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("caller %d: %d %s", c, resp.StatusCode, body)
				return
			}
			var r scheduleResponse
			if err := json.Unmarshal(body, &r); err != nil {
				errs <- err
				return
			}
			if fmt.Sprint(r.Blocks) != fmt.Sprint(want.Blocks) {
				errs <- fmt.Errorf("caller %d: batched schedule differs", c)
			}
		}(c)
	}
	lead := g.nextBatch(t)
	g.waitQueued(t, callers-lead)
	g.release()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if reg.Counter("eeld.batches_total").Value() == 0 {
		t.Fatal("no batches recorded")
	}
	if h := batchRequests(reg); h.Sum() <= h.Count() {
		t.Fatalf("no multi-request batch: %d requests in %d batches", h.Sum(), h.Count())
	}
}

// TestEditMatchesLibrary: /v1/edit output must be byte-identical to the
// same edit done in-process — the invariant the CI smoke job checks
// against cmd/eelprof.
func TestEditMatchesLibrary(t *testing.T) {
	_, ts := testServer(t, Config{})
	b, ok := workload.ByName("130.li", spawn.UltraSPARC)
	if !ok {
		t.Fatal("130.li missing")
	}
	x, err := workload.Generate(b, workload.Config{
		Machine: spawn.UltraSPARC, DynamicInsts: 1 << 13, Seed: 5, SkipCalibration: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	image := x.Marshal()

	post := func(query string) []byte {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/edit?"+query, "application/octet-stream", bytes.NewReader(image))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("edit %q: %d %s", query, resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes()
	}

	// Reschedule twice: second run must hit the editor LRU and the warm
	// cache yet return identical bytes.
	got1 := post("op=reschedule&machine=ultrasparc")
	got2 := post("op=reschedule&machine=ultrasparc")
	if !bytes.Equal(got1, got2) {
		t.Fatal("repeat edit differs")
	}
	model, err := spawn.Load(spawn.UltraSPARC)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := openLibraryEditor(image)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ed.Reschedule(model, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, want.Marshal()) {
		t.Fatal("daemon reschedule differs from library reschedule")
	}
	// Instrumented op parses and differs from the pure reschedule.
	got3 := post("op=instrument&machine=ultrasparc")
	if _, err := exe.Unmarshal(got3); err != nil {
		t.Fatalf("instrumented output does not parse: %v", err)
	}
	if bytes.Equal(got1, got3) {
		t.Fatal("instrumented output unexpectedly equals reschedule output")
	}
}

// TestEditRegistryBounded: the editor records its phases on the request
// trace only, so /v1/edit traffic must not grow the process registry's
// span log. A daemon that keeps a record per edit grows /metrics without
// bound.
func TestEditRegistryBounded(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := testServer(t, Config{Registry: reg})
	image := editImage(t)
	edits := func(n int) int {
		t.Helper()
		for i := 0; i < n; i++ {
			resp, err := ts.Client().Post(ts.URL+"/v1/edit?op=instrument&machine=ultrasparc",
				"application/octet-stream", bytes.NewReader(image))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("edit: %d %s", resp.StatusCode, buf.Bytes())
			}
		}
		spans := reg.Spans()
		for _, sp := range spans {
			if strings.HasPrefix(sp.Name, "eel.") {
				t.Fatalf("registry holds editor span %q", sp.Name)
			}
		}
		return len(spans)
	}
	after2 := edits(2)
	after10 := edits(8)
	if after10 != after2 {
		t.Fatalf("registry spans grew with edits: %d after 2, %d after 10", after2, after10)
	}
}

// TestErrorShapes drives every structured-error path and checks status,
// JSON envelope, and the per-code request counters.
func TestErrorShapes(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := testServer(t, Config{Registry: reg})

	check := func(resp *http.Response, body []byte, wantCode int) {
		t.Helper()
		if resp.StatusCode != wantCode {
			t.Fatalf("status %d, want %d (%s)", resp.StatusCode, wantCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("error content-type %q", ct)
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("error body %q not a {\"error\": ...} envelope (%v)", body, err)
		}
	}

	// Bad JSON.
	resp, err := ts.Client().Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	check(resp, buf.Bytes(), http.StatusBadRequest)

	// Empty block list.
	r2, b2 := postSchedule(t, ts, "", scheduleRequest{})
	check(r2, b2, http.StatusBadRequest)

	// Unknown machine.
	r3, b3 := postSchedule(t, ts, "", scheduleRequest{Machine: "pentium", Blocks: blockWords(t, 3, 1)})
	check(r3, b3, http.StatusBadRequest)

	// Undecodable word.
	r4, b4 := postSchedule(t, ts, "", scheduleRequest{Blocks: [][]uint32{{0xffffffff}}})
	check(r4, b4, http.StatusBadRequest)

	// Bad image for edit.
	r5, err := ts.Client().Post(ts.URL+"/v1/edit", "application/octet-stream", strings.NewReader("not an exe"))
	if err != nil {
		t.Fatal(err)
	}
	var b5 bytes.Buffer
	b5.ReadFrom(r5.Body)
	r5.Body.Close()
	check(r5, b5.Bytes(), http.StatusBadRequest)

	// Unknown op.
	r6, err := ts.Client().Post(ts.URL+"/v1/edit?op=delete", "application/octet-stream", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	var b6 bytes.Buffer
	b6.ReadFrom(r6.Body)
	r6.Body.Close()
	check(r6, b6.Bytes(), http.StatusBadRequest)

	counters := reg.Counters()
	for _, want := range []string{
		obs.LabeledName("eeld.requests_total", "route", "/v1/schedule", "code", "400"),
		obs.LabeledName("eeld.requests_total", "route", "/v1/edit", "code", "400"),
	} {
		if counters[want] == 0 {
			t.Fatalf("counter %s not incremented; have %v", want, counters)
		}
	}
}

// TestTenantQuota: a tenant over its concurrency quota gets 429 while
// other tenants still get through.
func TestTenantQuota(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, Config{
		Registry: reg, TenantQuota: 1, MaxInflight: 4, AllowTestDelay: true,
	})
	words := blockWords(t, 17, 2)

	started := make(chan struct{})
	go func() {
		close(started)
		// Holds tenant "slow"'s one slot for a while.
		body, _ := json.Marshal(scheduleRequest{Blocks: words})
		hr, _ := http.NewRequest("POST", ts.URL+"/v1/schedule?delay_ms=400", bytes.NewReader(body))
		hr.Header.Set("X-Eeld-Tenant", "slow")
		resp, err := ts.Client().Do(hr)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	deadline := time.Now().Add(2 * time.Second)
	for s.admission.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never became inflight")
		}
		time.Sleep(time.Millisecond)
	}

	r429, b429 := postSchedule(t, ts, "slow", scheduleRequest{Blocks: words})
	if r429.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("same-tenant status %d (%s), want 429", r429.StatusCode, b429)
	}
	var e errorBody
	if err := json.Unmarshal(b429, &e); err != nil || !strings.Contains(e.Error, "quota") {
		t.Fatalf("quota error body: %q", b429)
	}
	rOK, bOK := postSchedule(t, ts, "other", scheduleRequest{Blocks: words})
	if rOK.StatusCode != 200 {
		t.Fatalf("other-tenant status %d (%s), want 200", rOK.StatusCode, bOK)
	}
	if reg.Counters()[obs.LabeledName("eeld.rejects_total", "reason", "tenant_quota")] == 0 {
		t.Fatal("tenant_quota reject not counted")
	}
}

// TestQueueOverflow: with one inflight slot and a zero-depth queue, a
// second concurrent request is bounced with 503 queue-full.
func TestQueueOverflow(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, Config{
		Registry: reg, MaxInflight: 1, QueueDepth: 1, AllowTestDelay: true,
	})
	words := blockWords(t, 19, 1)

	// Fill the inflight slot and the single queue seat.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(scheduleRequest{Blocks: words})
			hr, _ := http.NewRequest("POST", ts.URL+"/v1/schedule?delay_ms=500", bytes.NewReader(body))
			resp, err := ts.Client().Do(hr)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.admission.Inflight() == 0 || s.admission.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never filled: inflight %d queued %d", s.admission.Inflight(), s.admission.Queued())
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postSchedule(t, ts, "", scheduleRequest{Blocks: words})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow status %d (%s), want 503", resp.StatusCode, body)
	}
	wg.Wait()
	if reg.Counters()[obs.LabeledName("eeld.rejects_total", "reason", "queue_full")] == 0 {
		t.Fatal("queue_full reject not counted")
	}
}

// TestMetricsAndHealth: /healthz flips to 503 when draining; /metrics
// serves both Prometheus text and the JSON export shape.
func TestMetricsAndHealth(t *testing.T) {
	s, ts := testServer(t, Config{})
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	resp, body := get("/healthz")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	resp, body = get("/metrics")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "# TYPE eeld_requests_total counter") {
		t.Fatalf("metrics: %d %s", resp.StatusCode, body)
	}
	resp, body = get("/metrics?format=json")
	var export struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(body, &export); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	if _, ok := export.Gauges["eeld.cache.len"]; !ok {
		t.Fatalf("metrics json missing cache gauges: %s", body)
	}

	s.StartDraining()
	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d %s", resp.StatusCode, body)
	}
	r2, b2 := postSchedule(t, ts, "", scheduleRequest{Blocks: blockWords(t, 23, 1)})
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining schedule: %d %s", r2.StatusCode, b2)
	}
}

// TestSpillWarmRestart: schedule through one server, drain it (writing
// the spill), boot a second server on the same spill path, and confirm
// the same work is served warm — higher hit rate than the cold run and
// identical bytes.
func TestSpillWarmRestart(t *testing.T) {
	spill := filepath.Join(t.TempDir(), "eeld.spill")
	words := blockWords(t, 29, 50)

	cfg := Config{SpillPath: spill, Fingerprint: "test-rev"}
	cfg.Registry = obs.NewRegistry()
	s1 := New(cfg)
	ts1 := httptest.NewServer(s1)
	resp, coldBody := postSchedule(t, ts1, "", scheduleRequest{Blocks: words})
	if resp.StatusCode != 200 {
		t.Fatalf("cold run: %d %s", resp.StatusCode, coldBody)
	}
	coldHits, coldMisses := s1.Cache().Stats()
	ts1.Close()
	if n, err := s1.Drain(); err != nil || n == 0 {
		t.Fatalf("drain spilled %d entries, err %v", n, err)
	}

	cfg2 := cfg
	cfg2.Registry = obs.NewRegistry()
	s2 := New(cfg2)
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	resp2, warmBody := postSchedule(t, ts2, "", scheduleRequest{Blocks: words})
	if resp2.StatusCode != 200 {
		t.Fatalf("warm run: %d %s", resp2.StatusCode, warmBody)
	}
	warmHits, warmMisses := s2.Cache().Stats()
	if warmMisses != 0 {
		t.Fatalf("warm run missed %d times; spill restore should cover the whole request", warmMisses)
	}
	if warmHits == 0 || float64(warmHits)/float64(warmHits+warmMisses) <= float64(coldHits)/float64(coldHits+coldMisses) {
		t.Fatalf("warm hit rate not above cold: warm %d/%d, cold %d/%d", warmHits, warmMisses, coldHits, coldMisses)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatal("warm response differs from cold response")
	}
	if _, err := s2.Drain(); err != nil {
		t.Fatal(err)
	}
}
