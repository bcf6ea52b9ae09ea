package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"eel/internal/cfg"
	"eel/internal/core"
	"eel/internal/eel"
	"eel/internal/exe"
	"eel/internal/qpt"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// The edit path: the offline tool. One operation takes one marshalled
// image through exe.Unmarshal -> eel.Open -> Edit(QPT slow profiler,
// scheduled for the image's machine) -> Marshal, with the cold private
// schedule cache eel.Open gives every editor. Closed loop, one image at
// a time, whole passes over the corpus.

// editOnce is one edit operation.
func editOnce(raw []byte, model *spawn.Model) ([]byte, error) {
	x, err := exe.Unmarshal(raw)
	if err != nil {
		return nil, err
	}
	ed, err := eel.Open(x)
	if err != nil {
		return nil, err
	}
	defer ed.Close()
	out, err := ed.Edit(&qpt.SlowProfiler{}, eel.Options{Machine: model, Schedule: true})
	if err != nil {
		return nil, err
	}
	return out.Marshal(), nil
}

type editResult struct {
	imageMs [][]float64 // per corpus image, its latency in every pass
	ops     int
	alloc   uint64   // heap bytes allocated during the phase
	outputs [][]byte // first-pass outputs, in corpus order
	growth  float64  // output over input text words, set by checkEdits
}

// runEdit makes whole passes over the corpus until budget is spent (at
// least one). Every later pass must reproduce the first pass's bytes.
func runEdit(in *inputs, models map[spawn.Machine]*spawn.Model, budget time.Duration) (*editResult, error) {
	r := &editResult{imageMs: make([][]float64, len(in.corpus)), outputs: make([][]byte, len(in.corpus))}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(budget)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for i, im := range in.corpus {
			start := time.Now()
			out, err := editOnce(im.raw, models[im.machine])
			d := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("edit %s: %w", im.name, err)
			}
			r.imageMs[i] = append(r.imageMs[i], ms(d))
			r.ops++
			if pass == 0 {
				r.outputs[i] = out
			} else if !bytes.Equal(out, r.outputs[i]) {
				return nil, fmt.Errorf("edit %s: pass %d output differs from pass 0", im.name, pass)
			}
		}
	}
	runtime.ReadMemStats(&after)
	r.alloc = after.TotalAlloc - before.TotalAlloc
	return r, nil
}

// checkEdits checks every first-pass output against its original, and
// measures the corpus's code growth on the way.
func checkEdits(in *inputs, r *editResult) error {
	var inWords, outWords int
	for i, im := range in.corpus {
		edited, err := exe.Unmarshal(r.outputs[i])
		if err != nil {
			return fmt.Errorf("%s: output: %w", im.name, err)
		}
		inWords += len(im.orig.Text)
		outWords += len(edited.Text)
		prof, err := profileLayout(im.orig)
		if err != nil {
			return fmt.Errorf("%s: %w", im.name, err)
		}
		if err := checkEdit(im.orig, edited, prof); err != nil {
			return fmt.Errorf("%s: %w", im.name, err)
		}
	}
	r.growth = float64(outWords) / float64(inWords)
	return nil
}

// imageLatency is each corpus image's median latency over the passes: a
// pass that met a garbage collection does not move it.
func (r *editResult) imageLatency() []float64 {
	lat := make([]float64, len(r.imageMs))
	for i, xs := range r.imageMs {
		lat[i] = median(xs)
	}
	return lat
}

// metrics reports the latency percentiles over the corpus's images and
// the throughput of one pass at each image's median latency.
func (r *editResult) metrics(m metrics, in *inputs) {
	lat := r.imageLatency()
	var words float64
	for _, im := range in.corpus {
		words += float64(len(im.orig.Text))
	}
	m.set("edit_kinst_per_s", words/sum(lat))
	m.set("edit_ms_p50", quantile(lat, 0.5))
	m.set("edit_ms_p90", quantile(lat, 0.9))
	m.set("code_growth", r.growth)
}

// editLayers is one traced pass: each operation is re-run as timed
// calls into the layers it crosses, plus direct calls that split
// eel.Open into sparc decode and cfg build and eel.Edit into core
// scheduling and the rest.
type editLayers struct {
	n                                 int
	unmarshal, decode, build, open    time.Duration
	schedule, editUnsched, edit, mars time.Duration
	traced                            time.Duration // wall of the whole traced operations
	insts, blocks, counters           int
	cacheHits, cacheMisses            uint64
}

func traceEdit(in *inputs, models map[spawn.Machine]*spawn.Model) (*editLayers, error) {
	l := &editLayers{}
	for _, im := range in.corpus {
		if err := l.traceOne(im, models[im.machine]); err != nil {
			return nil, fmt.Errorf("traced edit %s: %w", im.name, err)
		}
	}
	return l, nil
}

func (l *editLayers) traceOne(im *image, model *spawn.Model) error {
	// The profiler layout and the instrumented blocks are prepared
	// outside the timed calls: they stand in for eel.Edit's own
	// instrumentation pass, which eel.edit_unscheduled_ms times.
	prof, err := profileLayout(im.orig)
	if err != nil {
		return err
	}
	opStart := time.Now()
	t := time.Now()
	x, err := exe.Unmarshal(im.raw)
	l.unmarshal += time.Since(t)
	if err != nil {
		return err
	}
	t = time.Now()
	insts, err := sparc.DecodeAll(x.Text)
	l.decode += time.Since(t)
	if err != nil {
		return err
	}
	t = time.Now()
	graph, err := cfg.Build(insts)
	l.build += time.Since(t)
	if err != nil {
		return err
	}
	t = time.Now()
	ed, err := eel.Open(x)
	l.open += time.Since(t)
	if err != nil {
		return err
	}
	defer ed.Close()

	blocks := make([][]sparc.Inst, len(graph.Blocks))
	for i, b := range graph.Blocks {
		blocks[i] = append(prof.Instrument(b), b.Insts...)
	}
	cache := core.NewCache(0)
	sched := core.New(model, core.Options{Cache: cache})
	t = time.Now()
	_, err = sched.ScheduleBlocks(blocks)
	l.schedule += time.Since(t)
	sched.Close()
	if err != nil {
		return err
	}
	hits, misses := cache.Stats()
	l.cacheHits += hits
	l.cacheMisses += misses

	t = time.Now()
	_, err = ed.Edit(&qpt.SlowProfiler{}, eel.Options{})
	l.editUnsched += time.Since(t)
	if err != nil {
		return err
	}
	t = time.Now()
	out, err := ed.Edit(&qpt.SlowProfiler{}, eel.Options{Machine: model, Schedule: true})
	l.edit += time.Since(t)
	if err != nil {
		return err
	}
	t = time.Now()
	out.Marshal()
	l.mars += time.Since(t)
	l.traced += time.Since(opStart)

	l.n++
	l.insts += len(insts)
	l.blocks += len(graph.Blocks)
	l.counters += prof.NumCounters()
	return nil
}

// metrics reports the per-layer figures, per operation. untracedMs is
// the mean untraced operation time; the layer self-times of one
// operation are unmarshal + (open: decode, build, eel) + (edit: core,
// eel) + marshal, so they sum to unmarshal + open + edit + marshal.
func (l *editLayers) metrics(m metrics, untracedMs float64) {
	n := float64(l.n)
	per := func(d time.Duration) float64 { return ms(d) / n }
	m.set("exe.unmarshal_us", us(l.unmarshal)/n)
	m.set("exe.marshal_us", us(l.mars)/n)
	m.set("sparc.decode_minst_per_s", float64(l.insts)/l.decode.Seconds()/1e6)
	m.set("cfg.build_us", us(l.build)/n)
	m.set("cfg.blocks", float64(l.blocks)/n)
	m.set("qpt.instrumented_ratio", float64(l.counters)/float64(l.blocks))
	m.set("core.schedule_ms", per(l.schedule))
	m.set("core.us_per_block", us(l.schedule)/float64(l.blocks))
	m.set("core.blocks", float64(l.blocks)/n)
	m.set("core.cache_hit_ratio", ratio(float64(l.cacheHits), float64(l.cacheHits+l.cacheMisses)))
	m.set("eel.edit_ms", per(l.edit))
	m.set("eel.edit_unscheduled_ms", per(l.editUnsched))
	self := per(l.unmarshal + l.open + l.edit + l.mars)
	m.set("edit.unattributed_ms", untracedMs-self)
	m.set("edit.trace_overhead_ms", per(l.traced)-untracedMs)
}
