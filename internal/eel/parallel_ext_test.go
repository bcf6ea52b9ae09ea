package eel_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"eel/internal/core"
	"eel/internal/eel"
	"eel/internal/exe"
	"eel/internal/qpt"
	"eel/internal/sim"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// manyBlocksProgram synthesizes a program with nblocks small basic
// blocks chained by conditional branches, ending in a trap halt.
func manyBlocksProgram(nblocks int) string {
	var b strings.Builder
	b.WriteString("\tmov 0, %g1\n\tset 100, %g2\n")
	for i := 0; i < nblocks; i++ {
		fmt.Fprintf(&b, "L%d:\n", i)
		fmt.Fprintf(&b, "\tadd %%g1, 1, %%g1\n")
		fmt.Fprintf(&b, "\tld [%%o0], %%g4\n")
		fmt.Fprintf(&b, "\tadd %%g3, %d, %%g3\n", i%7+1)
		fmt.Fprintf(&b, "\tst %%g3, [%%o0]\n")
		fmt.Fprintf(&b, "\tcmp %%g1, %%g2\n")
		fmt.Fprintf(&b, "\tbne L%d\n\tnop\n", i+1)
	}
	fmt.Fprintf(&b, "L%d:\n\tta 0\n", nblocks)
	return b.String()
}

// TestEditParallelByteIdentical is the end-to-end determinism gate: the
// instrumented, scheduled executable is byte-identical for every worker
// count (including Workers: 1) on all three machine descriptions.
func TestEditParallelByteIdentical(t *testing.T) {
	src := manyBlocksProgram(60)
	for _, machine := range []spawn.Machine{spawn.SuperSPARC, spawn.UltraSPARC, spawn.HyperSPARC} {
		model := spawn.MustLoad(machine)
		edit := func(workers int) *exe.Exe {
			t.Helper()
			ed, err := eel.Open(buildExe(t, src))
			if err != nil {
				t.Fatal(err)
			}
			out, err := ed.Edit(&qpt.SlowProfiler{}, eel.Options{
				Machine:  model,
				Schedule: true,
				Sched:    core.Options{Workers: workers},
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", machine, workers, err)
			}
			return out
		}
		want := edit(1)
		for _, workers := range []int{2, 4, 8, 0} {
			got := edit(workers)
			if !reflect.DeepEqual(got.Text, want.Text) {
				t.Fatalf("%s: workers=%d text differs from sequential edit", machine, workers)
			}
			if got.Entry != want.Entry || !reflect.DeepEqual(got.Symbols, want.Symbols) {
				t.Fatalf("%s: workers=%d entry/symbols differ", machine, workers)
			}
		}
	}
}

// TestEditCachedRepeatIdentical: editing through the same OpenShared
// Editor twice (the second pass served by its schedule cache) yields
// byte-identical output, and the program still behaves.
func TestEditCachedRepeatIdentical(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	ed, err := eel.OpenShared(buildExe(t, manyBlocksProgram(40)), core.NewCache(0))
	if err != nil {
		t.Fatal(err)
	}
	opts := eel.Options{Machine: model, Schedule: true}
	first, err := ed.Edit(&qpt.SlowProfiler{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ed.Edit(&qpt.SlowProfiler{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Text, second.Text) {
		t.Fatal("repeated edit through one editor changed the output")
	}
	in, err := sim.NewInterp(second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Run(1e7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("cached-edit program did not halt")
	}
	// Every block increments %g1 once and the branches all fall through
	// to the next block.
	if got := in.Reg(sparc.G1); got != 40 {
		t.Errorf("g1 = %d, want 40", got)
	}
}

// TestRescheduleParallelPreservesBehavior: a parallel rescheduling pass
// still produces a program that runs to the same result.
func TestRescheduleParallelPreservesBehavior(t *testing.T) {
	model := spawn.MustLoad(spawn.SuperSPARC)
	ed, err := eel.Open(buildExe(t, manyBlocksProgram(30)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ed.Reschedule(model, core.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	in, err := sim.NewInterp(out)
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Run(1e7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("rescheduled program did not halt")
	}
	if got := in.Reg(sparc.G1); got != 30 {
		t.Errorf("g1 = %d, want 30", got)
	}
}
