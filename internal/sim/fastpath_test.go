package sim

import (
	"testing"

	"eel/internal/exe"
	"eel/internal/spawn"
)

// TestMemoryPageBoundary pins halfword and word behavior at the edges of
// the 4 KiB pages: SPARC alignment means an access never spans two pages,
// so the last halfword/word of one page and the first of the next must
// land in different pages without touching each other.
func TestMemoryPageBoundary(t *testing.T) {
	m := NewMemory()
	const edge = pageSize // first address of page 1

	m.Write16(edge-2, 0xBEEF) // last halfword of page 0
	m.Write16(edge, 0xCAFE)   // first halfword of page 1
	m.Write32(edge-4, 0x11223344)
	if got := m.Read16(edge - 2); got != 0x3344 {
		t.Errorf("halfword at page end = %#x, want 0x3344 (low half of the word write)", got)
	}
	if got := m.Read16(edge); got != 0xCAFE {
		t.Errorf("first halfword of next page = %#x, want 0xCAFE", got)
	}
	m.Write32(edge, 0x55667788)
	if got := m.Read32(edge - 4); got != 0x11223344 {
		t.Errorf("last word of page 0 = %#x, want 0x11223344", got)
	}
	if got := m.Read32(edge); got != 0x55667788 {
		t.Errorf("first word of page 1 = %#x, want 0x55667788", got)
	}
	// Bytes assemble big-endian across the boundary-adjacent words.
	if got := m.Read8(edge - 1); got != 0x44 {
		t.Errorf("last byte of page 0 = %#x, want 0x44", got)
	}
	if got := m.Read8(edge); got != 0x55 {
		t.Errorf("first byte of page 1 = %#x, want 0x55", got)
	}
}

// TestMemoryMRUInterleave cycles accesses over three pages — one more
// than the MRU cache holds — so every probe pattern (hit slot 0, hit
// slot 1 with promotion, miss to the map) is exercised, including
// far-apart pages that share nothing.
func TestMemoryMRUInterleave(t *testing.T) {
	m := NewMemory()
	addrs := []uint32{0x1000, 0x2000, 0x40000000, 0x7ffff000 - pageSize}
	for round := uint32(0); round < 3; round++ {
		for i, a := range addrs {
			m.Write32(a+4*round, round<<16|uint32(i))
		}
	}
	for round := uint32(0); round < 3; round++ {
		for i, a := range addrs {
			if got, want := m.Read32(a+4*round), round<<16|uint32(i); got != want {
				t.Errorf("page %#x round %d = %#x, want %#x", a, round, got, want)
			}
		}
	}
	// Unwritten addresses stay zero-filled even after heavy cache churn.
	if got := m.Read32(0x3000); got != 0 {
		t.Errorf("untouched page reads %#x, want 0", got)
	}
}

// TestMemoryPoolZeroFill checks the Measurer's page recycling invariant:
// a page released to the pool and handed to a fresh Memory reads as
// zeroes, exactly like a newly allocated one.
func TestMemoryPoolZeroFill(t *testing.T) {
	var pool pagePool
	m1 := newMemoryWith(&pool)
	for a := uint32(0); a < 4*pageSize; a += 8 {
		m1.Write32(a, 0xDEADBEEF)
	}
	m1.release()
	m2 := newMemoryWith(&pool)
	for a := uint32(0); a < 4*pageSize; a += 8 {
		if got := m2.Read32(a); got != 0 {
			t.Fatalf("recycled page leaks %#x at %#x", got, a)
		}
	}
}

// timingFor builds an UltraSPARC timing observer for x with the
// instruction cache disabled, so branch penalties are the only fetch
// effects.
func timingFor(t *testing.T, x *exe.Exe) *Timing {
	t.Helper()
	model, err := spawn.Load(spawn.UltraSPARC)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TimingConfig{Rules: MachineRules(spawn.UltraSPARC), ClockMHz: 167}
	return NewProgramTiming(model, cfg, x.TextBase, len(x.Text))
}

// Mispredicts and Redirects expose the branch statistics the counter
// tests check; the product never reads them.
func (t *Timing) Mispredicts() uint64 { return t.mispredicts }
func (t *Timing) Redirects() uint64   { return t.redirects }

// TestTimingBackwardBranchCounters runs a counted loop: the backward
// conditional is taken N-1 times (predicted taken on the UltraSPARC, so
// no mispredicts, one redirect each) and falls through once (the lone
// mispredict).
func TestTimingBackwardBranchCounters(t *testing.T) {
	const n = 25
	x := buildExe(t, `
	mov 0, %g1
	set 25, %g2
loop:
	add %g1, 1, %g1
	cmp %g1, %g2
	bne loop
	nop
	ta 0
`)
	tm := timingFor(t, x)
	in, err := NewInterp(x)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := in.Run(1e6, tm.Observe); err != nil || !res.Halted {
		t.Fatalf("run: %v halted=%v", err, res.Halted)
	}
	if got := tm.Redirects(); got != n-1 {
		t.Errorf("redirects = %d, want %d (one per taken backward branch)", got, n-1)
	}
	if got := tm.Mispredicts(); got != 1 {
		t.Errorf("mispredicts = %d, want 1 (the final fall-through)", got)
	}
	if tm.Cycles() <= 0 || tm.Instructions() == 0 {
		t.Errorf("cycles = %d, instructions = %d", tm.Cycles(), tm.Instructions())
	}
}

// TestTimingForwardBranchCounters takes a forward conditional, which the
// UltraSPARC predicts untaken: one redirect and one mispredict.
func TestTimingForwardBranchCounters(t *testing.T) {
	x := buildExe(t, `
	mov 0, %g1
	cmp %g1, 0
	be skip
	nop
	mov 99, %g3
skip:
	mov 7, %g4
	ta 0
`)
	tm := timingFor(t, x)
	in, err := NewInterp(x)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := in.Run(1e6, tm.Observe); err != nil || !res.Halted {
		t.Fatalf("run: %v halted=%v", err, res.Halted)
	}
	if got := tm.Redirects(); got != 1 {
		t.Errorf("redirects = %d, want 1", got)
	}
	if got := tm.Mispredicts(); got != 1 {
		t.Errorf("mispredicts = %d, want 1 (forward taken against the static prediction)", got)
	}
}

// TestProgramTimingMatchesPlain runs the same program through the
// per-static-index memo path (NewProgramTiming), the per-instruction
// resolve-cache fallback (NewTiming), and a pooled re-run (ResetFor),
// and requires identical measurements from all three. A last ResetFor
// onto a different, shorter program must not reuse the first program's
// memo slots.
func TestProgramTimingMatchesPlain(t *testing.T) {
	x := buildExe(t, `
	mov 0, %g1
	set 200, %g2
loop:
	add %g1, 1, %g1
	ld [%sp], %g3
	st %g1, [%sp]
	cmp %g1, %g2
	bne loop
	nop
	ta 0
`)
	model, err := spawn.Load(spawn.UltraSPARC)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTiming(spawn.UltraSPARC)

	runWith := func(tm *Timing) (int64, uint64, uint64) {
		t.Helper()
		in, err := NewInterp(x)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := in.Run(1e6, tm.Observe); err != nil || !res.Halted {
			t.Fatalf("run: %v halted=%v", err, res.Halted)
		}
		return tm.Cycles(), tm.Mispredicts(), tm.Redirects()
	}

	plainC, plainM, plainR := runWith(NewTiming(model, cfg, x.TextBase))
	prog := NewProgramTiming(model, cfg, x.TextBase, len(x.Text))
	progC, progM, progR := runWith(prog)
	if progC != plainC || progM != plainM || progR != plainR {
		t.Errorf("program timing (%d,%d,%d) != plain timing (%d,%d,%d)",
			progC, progM, progR, plainC, plainM, plainR)
	}
	prog.ResetFor(x.TextBase, len(x.Text))
	againC, againM, againR := runWith(prog)
	if againC != plainC || againM != plainM || againR != plainR {
		t.Errorf("ResetFor re-run (%d,%d,%d) != fresh timing (%d,%d,%d)",
			againC, againM, againR, plainC, plainM, plainR)
	}

	other := buildExe(t, `
	mov 0, %g1
	set 300, %g2
loop:
	ld [%sp], %g3
	add %g1, 1, %g1
	cmp %g1, %g2
	bne loop
	nop
	ta 0
`)
	in, err := NewInterp(other)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewProgramTiming(model, cfg, other.TextBase, len(other.Text))
	if _, err := in.Run(1e6, fresh.Observe); err != nil {
		t.Fatal(err)
	}
	x = other
	prog.ResetFor(other.TextBase, len(other.Text))
	if c, m, r := runWith(prog); c != fresh.Cycles() || m != fresh.Mispredicts() || r != fresh.Redirects() {
		t.Errorf("ResetFor onto another program (%d,%d,%d) != fresh timing (%d,%d,%d)",
			c, m, r, fresh.Cycles(), fresh.Mispredicts(), fresh.Redirects())
	}
}

// TestMeasurerMatchesRunMeasured checks that the pooled path returns the
// same measurement as the one-shot API, run after run.
func TestMeasurerMatchesRunMeasured(t *testing.T) {
	x := buildExe(t, `
	mov 0, %g1
	set 500, %g2
loop:
	add %g1, 1, %g1
	cmp %g1, %g2
	bne loop
	nop
	ta 0
`)
	model, err := spawn.Load(spawn.UltraSPARC)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTiming(spawn.UltraSPARC)
	_, tm0, res0, err := RunMeasured(x, model, cfg, 1e6)
	if err != nil || !res0.Halted {
		t.Fatalf("RunMeasured: %v halted=%v", err, res0.Halted)
	}
	meas := NewMeasurer(model, cfg)
	for i := 0; i < 3; i++ {
		in, tm, res, err := meas.Run(x, 1e6)
		if err != nil || !res.Halted {
			t.Fatalf("Measurer.Run %d: %v halted=%v", i, err, res.Halted)
		}
		if tm.Cycles() != tm0.Cycles() || tm.Instructions() != tm0.Instructions() {
			t.Errorf("run %d: pooled (%d cycles, %d insts) != one-shot (%d, %d)",
				i, tm.Cycles(), tm.Instructions(), tm0.Cycles(), tm0.Instructions())
		}
		meas.Release(in, tm)
	}
}
