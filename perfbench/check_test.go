package main

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"eel/internal/core"
	"eel/internal/exe"
	"eel/internal/qpt"
	"eel/internal/sparc"
	"eel/internal/spawn"
	"eel/internal/workload"
)

// editedImage generates a small suite image and edits it the way the
// edit workload does, returning the original, the output and the
// profiler layout that reads the output's counters.
func editedImage(t *testing.T) (orig, edited *exe.Exe, prof *qpt.SlowProfiler) {
	t.Helper()
	b, _ := workload.ByName("130.li", spawn.UltraSPARC)
	im, err := genImage(b, spawn.UltraSPARC, 1, b.Name)
	if err != nil {
		t.Fatal(err)
	}
	out, err := editOnce(im.raw, spawn.MustLoad(spawn.UltraSPARC))
	if err != nil {
		t.Fatal(err)
	}
	if edited, err = exe.Unmarshal(out); err != nil {
		t.Fatal(err)
	}
	if prof, err = profileLayout(im.orig); err != nil {
		t.Fatal(err)
	}
	return im.orig, edited, prof
}

func TestCheckEditAcceptsEditorOutput(t *testing.T) {
	orig, edited, prof := editedImage(t)
	if err := checkEdit(orig, edited, prof); err != nil {
		t.Fatal(err)
	}
}

func TestCheckEditRejectsSwappedDependentPair(t *testing.T) {
	orig, edited, prof := editedImage(t)
	insts, err := sparc.DecodeAll(edited.Text)
	if err != nil {
		t.Fatal(err)
	}
	// The first counter load and the first later instruction reading
	// the loaded value.
	ld := slices.IndexFunc(insts, func(in sparc.Inst) bool {
		return in.Op == sparc.OpLd && in.Rd == qpt.ValReg && in.Rs1 == qpt.AddrReg
	})
	if ld < 0 {
		t.Fatal("no counter load in the edited text")
	}
	use := -1
	for i := ld + 1; i < len(insts) && use < 0; i++ {
		if slices.Contains(insts[i].Uses(nil), qpt.ValReg) {
			use = i
		}
	}
	if use < 0 {
		t.Fatal("counter load has no reader")
	}
	edited.Text[ld], edited.Text[use] = edited.Text[use], edited.Text[ld]
	if err := checkEdit(orig, edited, prof); err == nil {
		t.Fatalf("check passed an output with instructions %d and %d swapped", ld, use)
	}
}

func TestCheckEditRejectsCounterOffByOne(t *testing.T) {
	orig, edited, prof := editedImage(t)
	// Counters are big-endian words starting at zero; start the first at
	// one instead.
	edited.Data[prof.CounterBase()-edited.DataBase+3]++
	if err := checkEdit(orig, edited, prof); err == nil {
		t.Fatal("check passed an output with a counter off by one")
	}
}

func TestCheckScheduledRejectsDroppedInstruction(t *testing.T) {
	p, err := genPayload(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([][]sparc.Inst, len(p.blocks))
	for i, words := range p.blocks {
		for _, w := range words {
			inst, err := sparc.Decode(w)
			if err != nil {
				t.Fatal(err)
			}
			blocks[i] = append(blocks[i], inst)
		}
	}
	s := core.New(spawn.MustLoad(spawn.UltraSPARC), core.Options{})
	defer s.Close()
	scheduled, err := s.ScheduleBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	for i, block := range scheduled {
		var resp []uint32
		for _, inst := range block {
			w, err := sparc.Encode(inst)
			if err != nil {
				t.Fatal(err)
			}
			resp = append(resp, w)
		}
		if err := checkScheduled(p.blocks[i], resp); err != nil {
			t.Fatalf("block %d: scheduler output rejected: %v", i, err)
		}
		dropped := append([]uint32(nil), resp[1:]...)
		if err := checkScheduled(p.blocks[i], dropped); err == nil {
			t.Fatalf("block %d: check passed a response with an instruction dropped", i)
		}
	}
}

func TestInputsDeterministic(t *testing.T) {
	const span = 2 * time.Second
	a, err := genInputs(7, span)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genInputs(7, span)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genInputs(8, span)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest() != b.digest() {
		t.Error("one seed gave two different input sets")
	}
	if a.digest() == c.digest() {
		t.Error("two seeds gave the same input set")
	}
}
