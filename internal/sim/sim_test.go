package sim

import (
	"math"
	"testing"

	"eel/internal/exe"
	"eel/internal/pipe"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// buildExe assembles a program into an executable image.
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

func run(t *testing.T, x *exe.Exe, max uint64) *Interp {
	t.Helper()
	in, err := NewInterp(x)
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Run(max, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("program did not halt")
	}
	return in
}

func TestInterpCountingLoop(t *testing.T) {
	x := buildExe(t, `
	mov 0, %g1
	set 1000, %g2
loop:
	add %g1, 1, %g1
	cmp %g1, %g2
	bne loop
	nop
	ta 0
`)
	in := run(t, x, 1e7)
	if got := in.Reg(sparc.G1); got != 1000 {
		t.Errorf("g1 = %d, want 1000", got)
	}
}

func TestInterpMemorySum(t *testing.T) {
	// Sum 10 words stored via the data segment.
	x := buildExe(t, `
	sethi %hi(0x40000000), %o0
	mov 0, %g1
	mov 0, %g2
loop:
	sll %g2, 2, %g3
	ld [%o0 + %g3], %g4
	add %g1, %g4, %g1
	add %g2, 1, %g2
	cmp %g2, 10
	bl loop
	nop
	sethi %hi(0x40000400), %o1
	st %g1, [%o1]
	ta 0
`)
	x.Data = make([]byte, 0x500)
	for i := 0; i < 10; i++ {
		v := uint32((i + 1) * 3)
		x.Data[4*i] = byte(v >> 24)
		x.Data[4*i+1] = byte(v >> 16)
		x.Data[4*i+2] = byte(v >> 8)
		x.Data[4*i+3] = byte(v)
	}
	in := run(t, x, 1e6)
	want := uint32(3 * 55)
	if got := in.Reg(sparc.G1); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	if got := in.Mem().Read32(0x40000400); got != want {
		t.Errorf("stored sum = %d, want %d", got, want)
	}
}

func TestInterpCallReturn(t *testing.T) {
	x := buildExe(t, `
	mov 5, %o0
	call double
	nop
	mov %o0, %g1
	ta 0
double:
	retl
	add %o0, %o0, %o0
`)
	in := run(t, x, 1e6)
	if got := in.Reg(sparc.G1); got != 10 {
		t.Errorf("g1 = %d, want 10", got)
	}
}

func TestInterpFloatKernel(t *testing.T) {
	// out = 2.5 * 4.0 + 1.5 (double precision via data segment).
	x := buildExe(t, `
	sethi %hi(0x40000000), %o0
	ldd [%o0], %f0       ! 2.5
	ldd [%o0 + 8], %f2   ! 4.0
	ldd [%o0 + 16], %f4  ! 1.5
	fmuld %f0, %f2, %f6
	faddd %f6, %f4, %f8
	std %f8, [%o0 + 24]
	ta 0
`)
	x.Data = make([]byte, 32)
	put64 := func(off int, v float64) {
		bits := float64bits(v)
		for i := 0; i < 8; i++ {
			x.Data[off+i] = byte(bits >> (56 - 8*i))
		}
	}
	put64(0, 2.5)
	put64(8, 4.0)
	put64(16, 1.5)
	in := run(t, x, 1e6)
	hi := uint64(in.Mem().Read32(0x40000018))
	lo := uint64(in.Mem().Read32(0x4000001c))
	got := float64frombits(hi<<32 | lo)
	if got != 11.5 {
		t.Errorf("fp result = %v, want 11.5", got)
	}
}

func TestInterpConditionCodes(t *testing.T) {
	cases := []struct {
		src  string
		want uint32
	}{
		{"mov 5, %g2\ncmp %g2, 5\nbe yes\nnop\nmov 0, %g1\nba out\nnop\nyes: mov 1, %g1\nout: ta 0", 1},
		{"mov 5, %g2\ncmp %g2, 9\nbl yes\nnop\nmov 0, %g1\nba out\nnop\nyes: mov 1, %g1\nout: ta 0", 1},
		{"mov 9, %g2\ncmp %g2, 5\nbg yes\nnop\nmov 0, %g1\nba out\nnop\nyes: mov 1, %g1\nout: ta 0", 1},
		{"mov 0, %g2\nsub %g2, 1, %g2\ncmp %g2, 0\nbl yes\nnop\nmov 0, %g1\nba out\nnop\nyes: mov 1, %g1\nout: ta 0", 1},
		// Unsigned: 0xffffffff > 1 unsigned.
		{"mov 0, %g2\nsub %g2, 1, %g2\ncmp %g2, 1\nbgu yes\nnop\nmov 0, %g1\nba out\nnop\nyes: mov 1, %g1\nout: ta 0", 1},
	}
	for i, c := range cases {
		in := run(t, buildExe(t, c.src), 1e5)
		if got := in.Reg(sparc.G1); got != c.want {
			t.Errorf("case %d: g1 = %d, want %d", i, got, c.want)
		}
	}
}

func TestInterpAnnulledBranch(t *testing.T) {
	// ba,a skips its delay slot.
	x := buildExe(t, `
	mov 0, %g1
	ba,a out
	mov 99, %g1
out:
	ta 0
`)
	in := run(t, x, 1e5)
	if got := in.Reg(sparc.G1); got != 0 {
		t.Errorf("annulled delay slot executed: g1 = %d", got)
	}
	// Untaken annulled conditional also skips the slot.
	x = buildExe(t, `
	mov 0, %g1
	cmp %g1, 1
	be,a out
	mov 99, %g1
	mov 7, %g2
out:
	ta 0
`)
	in = run(t, x, 1e5)
	if got := in.Reg(sparc.G1); got != 0 {
		t.Errorf("untaken annulled slot executed: g1 = %d", got)
	}
	if got := in.Reg(sparc.G2); got != 7 {
		t.Errorf("fallthrough path skipped: g2 = %d", got)
	}
	// Taken annulled conditional executes the slot.
	x = buildExe(t, `
	mov 1, %g1
	cmp %g1, 1
	be,a out
	mov 99, %g1
out:
	ta 0
`)
	in = run(t, x, 1e5)
	if got := in.Reg(sparc.G1); got != 99 {
		t.Errorf("taken annulled slot skipped: g1 = %d", got)
	}
}

func TestInterpMulDiv(t *testing.T) {
	x := buildExe(t, `
	mov 1000, %g2
	mov 1000, %g3
	umul %g2, %g3, %g1   ! 1e6
	wr %g0, %g0, %y
	mov 7, %g4
	udiv %g1, %g4, %g5   ! 142857
	ta 0
`)
	in := run(t, x, 1e5)
	if got := in.Reg(sparc.G1); got != 1000000 {
		t.Errorf("umul = %d", got)
	}
	if got := in.Reg(sparc.G5); got != 142857 {
		t.Errorf("udiv = %d", got)
	}
}

func TestInterpErrors(t *testing.T) {
	// Step limit.
	x := buildExe(t, "loop: ba loop\nnop")
	in, err := NewInterp(x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(100, nil); err == nil {
		t.Error("infinite loop did not hit the step limit")
	}
	// Misaligned load.
	x = buildExe(t, "sethi %hi(0x40000000), %o0\nld [%o0 + 2], %g1\nta 0")
	in, _ = NewInterp(x)
	if _, err := in.Run(100, nil); err == nil {
		t.Error("misaligned load not rejected")
	}
	// Division by zero.
	x = buildExe(t, "wr %g0, %g0, %y\nudiv %g1, %g0, %g2\nta 0")
	in, _ = NewInterp(x)
	if _, err := in.Run(100, nil); err == nil {
		t.Error("division by zero not rejected")
	}
	// Jmpl to a bad address.
	x = buildExe(t, "jmpl %g1 + 2, %g0\nnop\nta 0")
	in, _ = NewInterp(x)
	if _, err := in.Run(100, nil); err == nil {
		t.Error("wild jmpl not rejected")
	}
}

func TestObserverSeesDynamicStream(t *testing.T) {
	x := buildExe(t, `
	mov 0, %g1
loop:
	add %g1, 1, %g1
	cmp %g1, 3
	bne loop
	nop
	ta 0
`)
	in, err := NewInterp(x)
	if err != nil {
		t.Fatal(err)
	}
	var count uint64
	res, err := in.Run(1e5, func(idx int, inst *sparc.Inst) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	if count != res.Steps {
		t.Errorf("observer saw %d, result says %d", count, res.Steps)
	}
	// 1 mov + 3 iterations * 4 + ta = 14.
	if count != 14 {
		t.Errorf("dynamic count = %d, want 14", count)
	}
}

func TestCacheBasics(t *testing.T) {
	c := NewCache(1024, 32, 1) // 32 lines direct-mapped
	if c.Access(0) {
		t.Error("cold miss reported as hit")
	}
	if !c.Access(0) || !c.Access(4) || !c.Access(31) {
		t.Error("same-line access missed")
	}
	if c.Access(1024) {
		t.Error("conflicting line hit")
	}
	if c.Access(0) {
		t.Error("evicted line hit")
	}
	if c.MissRate() <= 0 || c.MissRate() >= 1 {
		t.Errorf("miss rate = %f", c.MissRate())
	}
	c.Reset()
	if c.Hits != 0 || c.Misses != 0 {
		t.Error("reset did not clear counters")
	}
}

func TestCacheAssociativity(t *testing.T) {
	c := NewCache(1024, 32, 2) // 16 sets, 2-way
	c.Access(0)
	c.Access(512) // same set, second way
	if !c.Access(0) || !c.Access(512) {
		t.Error("2-way set should hold both lines")
	}
	c.Access(1024) // evicts LRU (0)
	if c.Access(0) {
		t.Error("LRU line not evicted")
	}
	// That refill evicted 512 (now LRU); 1024 must survive as MRU.
	if !c.Access(1024) {
		t.Error("MRU line evicted")
	}
}

func TestTimingMonotoneAndSensible(t *testing.T) {
	src := `
	mov 0, %g1
	set 10000, %g2
loop:
	add %g1, 1, %g1
	cmp %g1, %g2
	bne loop
	nop
	ta 0
`
	x := buildExe(t, src)
	model := spawn.MustLoad(spawn.UltraSPARC)
	_, tm, res, err := RunMeasured(x, model, DefaultTiming(spawn.UltraSPARC), 1e7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("did not halt")
	}
	cycles := tm.Cycles()
	if cycles <= 0 {
		t.Fatal("no cycles measured")
	}
	ipc := float64(res.Steps) / float64(cycles)
	// A dependent loop with a taken branch per 4 instructions lands well
	// below the 4-wide peak but should exceed 0.3 IPC.
	if ipc < 0.3 || ipc > 4 {
		t.Errorf("IPC = %.2f, outside sane range", ipc)
	}
	if tm.Instructions() != res.Steps {
		t.Errorf("timing saw %d instructions, interp ran %d", tm.Instructions(), res.Steps)
	}
	if tm.Seconds() <= 0 {
		t.Error("Seconds() not positive")
	}
}

func TestTimingICacheEffect(t *testing.T) {
	// The same loop measured with and without the icache: the cache
	// version must not be faster, and a loop fitting in the cache should
	// have a near-zero miss rate.
	src := `
	mov 0, %g1
	set 50000, %g2
loop:
	add %g1, 1, %g1
	cmp %g1, %g2
	bne loop
	nop
	ta 0
`
	x := buildExe(t, src)
	model := spawn.MustLoad(spawn.UltraSPARC)
	cfg := DefaultTiming(spawn.UltraSPARC)
	_, with, _, err := RunMeasured(x, model, cfg, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.ICacheSize = 0
	_, without, _, err := RunMeasured(x, model, cfg2, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	if with.Cycles() < without.Cycles() {
		t.Errorf("icache made execution faster: %d < %d", with.Cycles(), without.Cycles())
	}
	if mr := with.ICache().MissRate(); mr > 0.001 {
		t.Errorf("tiny loop miss rate = %f", mr)
	}
	if without.ICache() != nil {
		t.Error("disabled icache still present")
	}
}

func TestHWPipelineGroupingRules(t *testing.T) {
	model := spawn.MustLoad(spawn.SuperSPARC)
	// Without rules, a load can co-issue with a following add; with
	// MemEndsGroup the add lands in the next cycle.
	free := pipe.NewHardwareState(model, pipe.Rules{})
	_, c1, err := free.Issue(sparc.NewLoad(sparc.OpLd, sparc.G1, sparc.O0, 0))
	if err != nil {
		t.Fatal(err)
	}
	_, c2, err := free.Issue(sparc.NewALUImm(sparc.OpAdd, sparc.G2, sparc.G3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("free rules: add at %d, load at %d; should co-issue", c2, c1)
	}

	strict := pipe.NewHardwareState(model, pipe.Rules{MemEndsGroup: true})
	_, c1, _ = strict.Issue(sparc.NewLoad(sparc.OpLd, sparc.G1, sparc.O0, 0))
	_, c2, _ = strict.Issue(sparc.NewALUImm(sparc.OpAdd, sparc.G2, sparc.G3, 1))
	if c2 != c1+1 {
		t.Errorf("MemEndsGroup: add at %d, load at %d; want next cycle", c2, c1)
	}
}

func TestHWPipelineMatchesPipeOnPlainCode(t *testing.T) {
	// With no extra rules the hardware engine and the SADL pipeline agree
	// on issue cycles for a simple independent sequence.
	model := spawn.MustLoad(spawn.UltraSPARC)
	hw := pipe.NewHardwareState(model, pipe.Rules{})
	seq := []sparc.Inst{
		sparc.NewSethi(sparc.G1, 0x10000),
		sparc.NewLoad(sparc.OpLd, sparc.G2, sparc.G1, 0x40),
		sparc.NewALUImm(sparc.OpAdd, sparc.G2, sparc.G2, 1),
		sparc.NewStore(sparc.OpSt, sparc.G2, sparc.G1, 0x40),
	}
	want := []int64{0, 0, 2, 3}
	for i, inst := range seq {
		_, c, err := hw.Issue(inst)
		if err != nil {
			t.Fatal(err)
		}
		if c != want[i] {
			t.Errorf("inst %d at cycle %d, want %d", i, c, want[i])
		}
	}
}

func float64bits(v float64) uint64     { return math.Float64bits(v) }
func float64frombits(b uint64) float64 { return math.Float64frombits(b) }

func float32bits(v float32) uint32 { return math.Float32bits(v) }
