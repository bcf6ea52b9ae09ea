package core

import (
	"fmt"

	"eel/internal/obs"
	"eel/internal/pipe"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// This file is the scheduler's side of the telemetry layer: when
// Options.Obs carries a registry, every scheduled block's stall cycles
// are classified by hazard (RAW, WAR, WAW, structural — per unit and
// per register class), and the original order is priced so the cycles
// scheduling hid are counted.
//
// On the fast engine the classification happens inline: the greedy pass
// issues exactly the sequence it emits, so attaching the attribution
// sink during scheduling (scheduleBlockRaw) captures the emitted
// order's stalls as a side effect, and the never-costs-more guard's
// cost replay of the original order doubles as the hidden-cycles
// measurement. Blocks the inline path cannot cover — cache hits,
// annulled branches, the reference engine, EngineOptimal, oracles
// without prepared placement — fall back to the original post-schedule
// replay, which remains counter-for-counter identical (the differential
// test in telemetry_test.go pins this). Either way the numbers never
// feed back into scheduling: enabling telemetry cannot change a
// schedule, which is why Obs is excluded from the cache key (and from
// the JSON encoding bench embeds in its tables).
//
// Workers accumulate into a private telShard — plain counters, no
// atomics — merged into the shared registry at batch end, so enabled
// telemetry adds no cross-core contention to the hot path.
//
// With Obs nil the scheduler carries a nil *telemetry and the per-block
// cost is a single pointer test; the committed overhead-guard benchmark
// in telemetry_test.go holds the disabled path under its budget.

// attrSink is the optional oracle interface for stall attribution,
// implemented by both pipe oracles.
type attrSink interface {
	SetAttribution(*pipe.StallAttr)
}

// telemetry holds the scheduler's pre-resolved instrument handles, so
// the per-block recording path is atomic adds with no map lookups.
type telemetry struct {
	reg *obs.Registry

	blocks     *obs.Counter // every block scheduled
	cached     *obs.Counter // blocks served from the schedule cache
	changed    *obs.Counter // blocks whose emitted order differs from the input
	hidden     *obs.Counter // cycles the emitted order models below the original
	stallTotal *obs.Counter // classified stall cycles in emitted schedules
	replayErrs *obs.Counter // telemetry replays the model could not price

	kind  [pipe.NumHazards]*obs.Counter
	unit  []*obs.Counter // structural stalls by blocking unit
	class [pipe.NumHazards][pipe.NumRegClasses]*obs.Counter

	blockStalls *obs.Histogram // classified stall cycles per block
	blockCycles *obs.Histogram // modeled cycles per emitted block
	blockSize   *obs.Histogram // instructions per block

	batches      *obs.Counter   // ScheduleBlocks calls
	batchWorkers *obs.Histogram // workers used per batch
	batchBlocks  *obs.Histogram // blocks per batch
}

// newTelemetry resolves every handle the scheduler records into. Metric
// names carry the machine model, so one registry can host several
// schedulers (bench's -summary runs three machines) without mixing
// counts; registration is idempotent, so schedulers sharing a model
// share instruments.
func newTelemetry(reg *obs.Registry, model *spawn.Model) *telemetry {
	if reg == nil {
		return nil
	}
	p := "sched." + string(model.Machine) + "."
	t := &telemetry{
		reg:        reg,
		blocks:     reg.Counter(p + "blocks_total"),
		cached:     reg.Counter(p + "blocks_cached"),
		changed:    reg.Counter(p + "blocks_changed"),
		hidden:     reg.Counter(p + "cycles_hidden_total"),
		stallTotal: reg.Counter(p + "stall_cycles_total"),
		replayErrs: reg.Counter(p + "telemetry_replay_errors"),

		blockStalls: reg.Histogram(p+"block_stall_cycles", obs.ExpBuckets(1, 12)),
		blockCycles: reg.Histogram(p+"block_cycles", obs.ExpBuckets(1, 14)),
		blockSize:   reg.Histogram(p+"block_insts", obs.ExpBuckets(1, 10)),

		batches:      reg.Counter("sched.pool.batches_total"),
		batchWorkers: reg.Histogram("sched.pool.batch_workers", obs.ExpBuckets(1, 8)),
		batchBlocks:  reg.Histogram("sched.pool.batch_blocks", obs.ExpBuckets(1, 16)),
	}
	for k := pipe.HazardKind(0); k < pipe.NumHazards; k++ {
		t.kind[k] = reg.Counter(p + "stall_cycles." + k.String())
		if k == pipe.HazardStructural {
			continue
		}
		for c := pipe.RegClass(0); c < pipe.NumRegClasses; c++ {
			t.class[k][c] = reg.Counter(fmt.Sprintf("%sstall_cycles.%s.class.%s", p, k, c))
		}
	}
	t.unit = make([]*obs.Counter, len(model.Units))
	for u := range model.Units {
		t.unit[u] = reg.Counter(p + "stall_cycles.structural.unit." + model.Units[u].Name)
	}
	return t
}

// telShard is one worker's private telemetry accumulator: the same
// shape as telemetry, with plain int64s and local histogram buffers in
// place of shared atomic instruments. A worker allocates its shard
// lazily on the first observed block, keeps it across batches (shards
// travel with the worker through the scheduler's pool), and flushes it
// into the registry at batch end.
type telShard struct {
	blocks, cached, changed  int64
	hidden, stallTotal       int64
	replayErrs               int64
	kind                     [pipe.NumHazards]int64
	unit                     []int64
	class                    [pipe.NumHazards][pipe.NumRegClasses]int64
	blockStalls, blockCycles *obs.HistShard
	blockSize                *obs.HistShard
}

// newShard returns a shard sized for t's instruments.
func (t *telemetry) newShard() *telShard {
	return &telShard{
		unit:        make([]int64, len(t.unit)),
		blockStalls: t.blockStalls.NewShard(),
		blockCycles: t.blockCycles.NewShard(),
		blockSize:   t.blockSize.NewShard(),
	}
}

// flush merges w's shard into the shared instruments and clears it.
// Nil-safe on both scheduler telemetry and shard, so every exit path
// can call it unconditionally.
func (t *telemetry) flush(w *worker) {
	if t == nil || w.shard == nil {
		return
	}
	sh := w.shard
	t.blocks.Add(sh.blocks)
	t.cached.Add(sh.cached)
	t.changed.Add(sh.changed)
	t.hidden.Add(sh.hidden)
	t.stallTotal.Add(sh.stallTotal)
	t.replayErrs.Add(sh.replayErrs)
	for k := range sh.kind {
		t.kind[k].Add(sh.kind[k])
	}
	for u := range sh.unit {
		t.unit[u].Add(sh.unit[u])
	}
	for k := range sh.class {
		for c := range sh.class[k] {
			t.class[k][c].Add(sh.class[k][c])
		}
	}
	sh.blockStalls.Flush()
	sh.blockCycles.Flush()
	sh.blockSize.Flush()
	unit := sh.unit
	clear(unit)
	*sh = telShard{unit: unit,
		blockStalls: sh.blockStalls, blockCycles: sh.blockCycles, blockSize: sh.blockSize}
}

// recordCache snapshots the schedule cache into gauges. Called once per
// batch, not per block: cache stats are cumulative anyway.
func (t *telemetry) recordCache(c *Cache) {
	if t == nil || c == nil {
		return
	}
	hits, misses := c.Stats()
	t.reg.Gauge("sched.cache.hits").Set(int64(hits))
	t.reg.Gauge("sched.cache.misses").Set(int64(misses))
	t.reg.Gauge("sched.cache.len").Set(int64(c.Len()))
	t.reg.Gauge("sched.cache.capacity").Set(int64(c.Capacity()))
	t.reg.Gauge("sched.cache.shards").Set(int64(c.Shards()))
}

// recordBatch notes one ScheduleBlocks fan-out and its pool occupancy.
func (t *telemetry) recordBatch(workers, blocks int) {
	if t == nil {
		return
	}
	t.batches.Inc()
	t.batchWorkers.Observe(int64(workers))
	t.batchBlocks.Observe(int64(blocks))
}

// telemetryBlock observes one scheduled block into the worker's shard.
// When the scheduling pass captured attribution inline
// (scheduleBlockRaw sets w.telInline), the emitted order's hazard
// classification and cost are already in hand; otherwise the block is
// replayed here with the attribution sink attached — cache hits always
// take the replay path, so attribution totals describe the blocks
// scheduled, not the cache's hit pattern, and are deterministic for a
// given input regardless of worker count or cache state.
func (s *Scheduler) telemetryBlock(w *worker, block, out []sparc.Inst, fromCache bool) {
	sh := w.shard
	if sh == nil {
		sh = s.tel.newShard()
		w.shard = sh
	}
	sh.blocks++
	sh.blockSize.Observe(int64(len(block)))
	if fromCache {
		sh.cached++
	}
	unchanged := blocksEqual(out, block)
	if !unchanged {
		sh.changed++
	}

	var a *pipe.StallAttr
	var after int64
	switch {
	case w.telInline && w.telUseBefore:
		// The guard rejected the greedy schedule: the emitted order is
		// the original, whose attribution and cost the guard's replay
		// recorded.
		a, after = &w.attrBefore, w.telBefore
	case w.telInline:
		a, after = &w.attr, w.telAfter
	default:
		sink, _ := w.p.(attrSink)
		if sink != nil {
			w.attr.Reset()
			sink.SetAttribution(&w.attr)
		}
		var err error
		after, err = s.sequenceCost(w.p, out)
		if sink != nil {
			sink.SetAttribution(nil)
		}
		if err != nil {
			// Some blocks price only in their emitted shape (an unchanged
			// CTI the model has no timing group for, say). Telemetry never
			// fails the schedule; it counts what it could not see.
			sh.replayErrs++
			return
		}
		if sink != nil {
			a = &w.attr
		}
	}
	sh.blockCycles.Observe(after)
	if a != nil {
		sh.stallTotal += int64(a.Total)
		sh.blockStalls.Observe(int64(a.Total))
		for k := range a.Kind {
			sh.kind[k] += int64(a.Kind[k])
		}
		for u := 0; u < len(a.Unit) && u < len(sh.unit); u++ {
			sh.unit[u] += int64(a.Unit[u])
		}
		for k := range a.Class {
			for c := range a.Class[k] {
				sh.class[k][c] += int64(a.Class[k][c])
			}
		}
	}
	if unchanged || w.telUseBefore {
		// telUseBefore: emitted == original, nothing was hidden.
		return
	}
	var before int64
	if w.telInline {
		// The guard priced the original order on its way to accepting
		// the changed schedule.
		before = w.telBefore
	} else {
		var err error
		before, err = s.sequenceCost(w.p, block)
		if err != nil {
			sh.replayErrs++
			return
		}
	}
	if d := before - after; d > 0 {
		// The never-costs-more guard makes this non-negative whenever
		// both orders price; clamp anyway so a pricing quirk can never
		// walk the counter backwards.
		sh.hidden += d
	}
}
