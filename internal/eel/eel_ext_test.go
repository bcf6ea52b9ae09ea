package eel_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"eel/internal/cfg"
	"eel/internal/eel"
	"eel/internal/exe"
	"eel/internal/obs"
	"eel/internal/qpt"
	"eel/internal/sim"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

const loopProgram = `
	mov 0, %g1
	set 100, %g2
loop:
	add %g1, 1, %g1
	cmp %g1, %g2
	bne loop
	nop
	set 300, %g3
	ta 0
`

func buildExe(t *testing.T, src string) *exe.Exe {
	t.Helper()
	insts, err := sparc.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	x := exe.New()
	for _, inst := range insts {
		x.Text = append(x.Text, sparc.MustEncode(inst))
	}
	x.AddSymbol("main", x.TextBase, true)
	return x
}

// staticAdder inserts "add %g4, 1, %g4" at the top of every block.
type staticAdder struct{}

func (a *staticAdder) Setup(ed *eel.Editor) error { return nil }
func (a *staticAdder) Instrument(b *cfg.Block) []sparc.Inst {
	inc := sparc.NewALUImm(sparc.OpAdd, sparc.G4, sparc.G4, 1)
	inc.Instrumented = true
	return []sparc.Inst{inc}
}

// TestEditIdentity: an edit with no tool and no scheduling reproduces the
// text exactly (same words, same entry, same symbols).
func TestEditIdentity(t *testing.T) {
	x := buildExe(t, loopProgram)
	x.AddSymbol("loop", x.TextBase+8, true)
	ed, err := eel.Open(x)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ed.Edit(nil, eel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Text, x.Text) {
		t.Error("identity edit changed the text")
	}
	if out.Entry != x.Entry {
		t.Error("identity edit moved the entry")
	}
	if !reflect.DeepEqual(out.Symbols, x.Symbols) {
		t.Error("identity edit changed symbols")
	}
}

// TestDoubleInstrumentation: instrumenting an already-instrumented binary
// works — EEL is closed under its own editing. Both profiles must be
// correct.
func TestDoubleInstrumentation(t *testing.T) {
	x := buildExe(t, loopProgram)
	ed, err := eel.Open(x)
	if err != nil {
		t.Fatal(err)
	}
	p1 := &qpt.SlowProfiler{}
	once, err := ed.Edit(p1, eel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ed2, err := eel.Open(once)
	if err != nil {
		t.Fatal(err)
	}
	p2 := &qpt.SlowProfiler{}
	twice, err := ed2.Edit(p2, eel.Options{
		Machine:  spawn.MustLoad(spawn.UltraSPARC),
		Schedule: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := sim.NewInterp(twice)
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Run(1e7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("doubly instrumented program did not halt")
	}
	if got := in.Reg(sparc.G1); got != 100 {
		t.Errorf("g1 = %d, want 100", got)
	}
	// The second profiler's counts are authoritative for the second CFG;
	// its loop block must count 100.
	counts, err := p2.Counts(in.Mem().Read32)
	if err != nil {
		t.Fatal(err)
	}
	max := uint64(0)
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max != 100 {
		t.Errorf("hottest block counted %d, want 100", max)
	}
}

// TestEditPreservesDataAndBSS: editing must copy, not alias, the data
// segment, and preserve BSS.
func TestEditPreservesDataAndBSS(t *testing.T) {
	x := buildExe(t, loopProgram)
	x.Data = []byte{1, 2, 3, 4}
	x.BSSSize = 128
	ed, err := eel.Open(x)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ed.Edit(&staticAdder{}, eel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.BSSSize != 128 {
		t.Errorf("BSS = %d", out.BSSSize)
	}
	out.Data[0] = 99
	if x.Data[0] != 1 {
		t.Error("edit aliased the original data segment")
	}
}

// TestConservativeVsRelaxedSchedules: on a block mixing original memory
// traffic with instrumentation, the paper's aliasing rule must never
// produce a slower schedule than the conservative one (on the scheduler's
// own model).
func TestConservativeVsRelaxedSchedules(t *testing.T) {
	src := `
	sethi %hi(0x40000000), %o0
loop:
	ld [%o0 + 0], %g1
	add %g1, 1, %g1
	st %g1, [%o0 + 0]
	ld [%o0 + 4], %g2
	add %g2, %g1, %g2
	st %g2, [%o0 + 4]
	subcc %g2, 1000, %g0
	bl loop
	nop
	ta 0
`
	x := buildExe(t, src)
	model := spawn.MustLoad(spawn.UltraSPARC)
	cfgT := sim.DefaultTiming(spawn.UltraSPARC)
	cfgT.ICacheSize = 0 // isolate the pipeline effect

	run := func(conservative bool) int64 {
		ed, err := eel.Open(x)
		if err != nil {
			t.Fatal(err)
		}
		opts := eel.Options{Machine: model, Schedule: true}
		opts.Sched.ConservativeMem = conservative
		out, err := ed.Edit(&qpt.SlowProfiler{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, tm, res, err := sim.RunMeasured(out, model, cfgT, 1e8)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Halted {
			t.Fatal("did not halt")
		}
		return tm.Cycles()
	}
	relaxed := run(false)
	conservative := run(true)
	if relaxed > conservative {
		t.Errorf("paper aliasing rule slower than conservative: %d vs %d",
			relaxed, conservative)
	}
}

// failingScheduler takes a moment and then fails every batch.
type failingScheduler struct{}

func (failingScheduler) ScheduleBlocksCtx(ctx context.Context, blocks [][]sparc.Inst) ([][]sparc.Inst, error) {
	time.Sleep(time.Millisecond)
	return nil, errors.New("injected scheduling failure")
}

// TestFailedScheduleEndsSpan: a scheduling error still closes the
// trace's eel.schedule span, so the error trace a flight recorder keeps
// shows where the time went. The instrumenter's Setup, which runs
// first, has its own closed eel.setup span.
func TestFailedScheduleEndsSpan(t *testing.T) {
	ed, err := eel.Open(buildExe(t, loopProgram))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("request")
	_, err = ed.EditCtx(obs.WithTrace(context.Background(), tr), &qpt.SlowProfiler{}, eel.Options{
		Machine:   spawn.MustLoad(spawn.UltraSPARC),
		Schedule:  true,
		Scheduler: failingScheduler{},
	})
	if err == nil || !strings.Contains(err.Error(), "injected scheduling failure") {
		t.Fatalf("EditCtx error = %v, want the scheduler's", err)
	}
	tr.Finish()
	requireEndedSpans(t, tr, "eel.setup", "eel.schedule")
}

// failingSetup is an instrumenter whose Setup takes a moment and fails.
type failingSetup struct{}

func (failingSetup) Setup(ed *eel.Editor) error {
	time.Sleep(time.Millisecond)
	return errors.New("injected setup failure")
}

func (failingSetup) Instrument(b *cfg.Block) []sparc.Inst { return nil }

// TestFailedSetupEndsSpan: an instrumenter setup error still closes the
// trace's eel.setup span.
func TestFailedSetupEndsSpan(t *testing.T) {
	ed, err := eel.Open(buildExe(t, loopProgram))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("request")
	_, err = ed.EditCtx(obs.WithTrace(context.Background(), tr), failingSetup{}, eel.Options{})
	if err == nil || !strings.Contains(err.Error(), "injected setup failure") {
		t.Fatalf("EditCtx error = %v, want the instrumenter's", err)
	}
	tr.Finish()
	requireEndedSpans(t, tr, "eel.setup")
}

// requireEndedSpans fails unless the finished trace holds each named
// span with a positive duration.
func requireEndedSpans(t *testing.T, tr *obs.Trace, names ...string) {
	t.Helper()
	dur := map[string]int64{}
	for _, sp := range tr.Export().Spans {
		dur[sp.Name] = sp.DurNs
	}
	for _, name := range names {
		d, ok := dur[name]
		if !ok {
			t.Errorf("trace has no %s span", name)
		} else if d <= 0 {
			t.Errorf("%s left open: dur_ns=%d", name, d)
		}
	}
}

// corruptingScheduler leaves every block in place except those ending in
// a CTI and its delay slot, which it returns through corrupt (on a copy).
type corruptingScheduler func(block []sparc.Inst) []sparc.Inst

func (c corruptingScheduler) ScheduleBlocksCtx(ctx context.Context, blocks [][]sparc.Inst) ([][]sparc.Inst, error) {
	out := make([][]sparc.Inst, len(blocks))
	for i, b := range blocks {
		out[i] = b
		if len(b) >= 2 && b[len(b)-2].IsCTI() {
			out[i] = c(append([]sparc.Inst(nil), b...))
		}
	}
	return out, nil
}

// TestEditRejectsCorruptSchedules: a scheduler that breaks a block's
// control transfer is caught at layout, before any text is encoded.
// loopProgram's loop block is add, cmp, bne loop, nop.
func TestEditRejectsCorruptSchedules(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(block []sparc.Inst) []sparc.Inst
		want    string
	}{
		{"second CTI", func(b []sparc.Inst) []sparc.Inst {
			return append([]sparc.Inst{b[len(b)-2]}, b...)
		}, "multiple CTIs after editing"},
		{"CTI moved to the top", func(b []sparc.Inst) []sparc.Inst {
			b[0], b[len(b)-2] = b[len(b)-2], b[0]
			return b
		}, "CTI not in terminal position"},
		{"delay slot dropped", func(b []sparc.Inst) []sparc.Inst {
			return b[:len(b)-1]
		}, "CTI not in terminal position"},
		{"CTI dropped", func(b []sparc.Inst) []sparc.Inst {
			return append(b[:len(b)-2], b[len(b)-1])
		}, "CTI not in terminal position"},
		{"target inside a block", func(b []sparc.Inst) []sparc.Inst {
			b[len(b)-2].Disp++
			return b
		}, "CTI target 3 is not a block leader"},
		{"target outside the text", func(b []sparc.Inst) []sparc.Inst {
			b[len(b)-2].Disp = 1000
			return b
		}, "CTI target 1004 is not a block leader"},
	}
	ed, err := eel.Open(buildExe(t, loopProgram))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := ed.Edit(nil, eel.Options{
				Machine:   spawn.MustLoad(spawn.UltraSPARC),
				Schedule:  true,
				Scheduler: corruptingScheduler(c.corrupt),
			})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Edit = %v, %v; want error containing %q", out, err, c.want)
			}
		})
	}
}
