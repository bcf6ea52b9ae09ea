package pipe

import (
	"math/rand"
	"os"
	"strings"
	"testing"

	"eel/internal/sparc"
	"eel/internal/spawn"
)

func TestRingRows(t *testing.T) {
	for _, c := range []struct{ horizon, rows int64 }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {20, 32}, {25, 32}, {32, 32}, {33, 64},
	} {
		if got := RingRows(c.horizon); got != c.rows {
			t.Errorf("RingRows(%d) = %d, want %d", c.horizon, got, c.rows)
		}
	}
}

// longDivideModel is the hyperSPARC description with a 29-cycle integer
// divide: its horizon is 32, a power of two, so the ring has no spare
// rows and the window covers all of it.
func longDivideModel(t *testing.T) *spawn.Model {
	t.Helper()
	src, err := os.ReadFile("../spawn/descriptions/hypersparc.sadl")
	if err != nil {
		t.Fatal(err)
	}
	const div = "A MULDIV, D 17, x:=div32"
	if !strings.Contains(string(src), div) {
		t.Fatalf("hypersparc.sadl no longer contains %q", div)
	}
	m, err := spawn.Analyze("longdiv", strings.Replace(string(src), div, "A MULDIV, D 29, x:=div32", 1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFastStateRingBoundaries drives FastState and the reference State
// with sequences built to stall as long as the model allows: a divide,
// then an overwrite or a second divide. Each such commit moves the clock
// most of a window at once and lands usage at offsets from the old clock
// in [horizon, rows) (rows past the old window that must already be
// zero) and at or beyond rows (rows that wrap onto cycles just retired).
// No placement waits horizon cycles or more, since every unit, read and
// write of an instruction lies within its span, so the longest gap
// between successive issues is horizon-1. Stalls and issue cycles must
// match the reference throughout, and every model must place usage in
// both offset ranges.
func TestFastStateRingBoundaries(t *testing.T) {
	g1, g2, g3 := sparc.G1, sparc.G2, sparc.G3
	f4 := sparc.FReg(4)
	udiv := sparc.NewALU(sparc.OpUdiv, g1, g2, g3)
	sethi := sparc.NewSethi(g1, 5)
	fdivd := sparc.NewALU(sparc.OpFdivd, f4, sparc.F0, sparc.FReg(2))
	fmovs := sparc.NewALU(sparc.OpFmovs, f4, sparc.F0, sparc.FReg(6))
	ld := sparc.NewLoad(sparc.OpLd, g2, sparc.O0, 8)
	add := sparc.NewALU(sparc.OpAdd, g3, g1, g2)
	faddd := sparc.NewALU(sparc.OpFaddd, sparc.FReg(8), f4, sparc.F0)
	handmade := [][]sparc.Inst{
		// Divide, then overwrite its result (WAW) or divide again
		// (structural): the gap is nearly the divide's span.
		{udiv, sethi, add, udiv, sethi, ld, add},
		{udiv, udiv, sethi, sethi, udiv, add, sethi},
		{fdivd, fmovs, faddd, fdivd, fdivd, fmovs},
		{fdivd, udiv, sethi, fmovs, add, faddd, udiv, sethi},
	}
	pool := []sparc.Inst{udiv, sethi, fdivd, fmovs, ld, add, faddd,
		sparc.NewALU(sparc.OpSdiv, g2, g1, g3),
		sparc.NewSethi(g2, 9),
		sparc.NewALU(sparc.OpFsqrtd, f4, sparc.F0, sparc.FReg(2)),
		sparc.NewStore(sparc.OpSt, g1, sparc.O0, 4),
	}

	models := []*spawn.Model{
		spawn.MustLoad(spawn.HyperSPARC),
		spawn.MustLoad(spawn.SuperSPARC),
		spawn.MustLoad(spawn.UltraSPARC),
		longDivideModel(t),
	}
	for _, m := range models {
		fast := NewFastState(m)
		ref := NewState(m)
		tab := m.Compiled()
		horizon, rows := fast.horizon, fast.mask+1
		var maxGap int64
		var pastWindow, pastRows bool
		run := func(seq []sparc.Inst) {
			t.Helper()
			fast.Reset()
			ref.Reset()
			for i, inst := range seq {
				fs, ferr := fast.Stalls(inst)
				rs, rerr := ref.Stalls(inst)
				if fs != rs || (ferr == nil) != (rerr == nil) {
					t.Fatalf("%s: probe %d (%v): fast (%d,%v), reference (%d,%v)", m.Machine, i, inst, fs, ferr, rs, rerr)
				}
				before := fast.Clock()
				fs, fi := fast.MustIssue(inst)
				rs, ri := ref.MustIssue(inst)
				if fs != rs || fi != ri {
					t.Fatalf("%s: issue %d (%v): fast (%d,%d), reference (%d,%d)", m.Machine, i, inst, fs, fi, rs, ri)
				}
				maxGap = max(maxGap, fi-before)
				g, err := m.GroupOf(inst)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range tab.Groups[g.ID].NZ {
					off := fi + int64(e.Cycle) - before
					pastWindow = pastWindow || (off >= horizon && off < rows)
					pastRows = pastRows || off >= rows
				}
			}
		}
		for _, seq := range handmade {
			run(seq)
		}
		r := rand.New(rand.NewSource(1))
		for trial := 0; trial < 200; trial++ {
			seq := make([]sparc.Inst, 40)
			for i := range seq {
				seq[i] = pool[r.Intn(len(pool))]
			}
			run(seq)
		}
		if (horizon < rows && !pastWindow) || !pastRows {
			t.Errorf("%s: usage never reached ring offsets [%d, %d) and >= %d (longest gap %d)",
				m.Machine, horizon, rows, rows, maxGap)
		}
		t.Logf("%s: horizon %d, rows %d, longest gap %d", m.Machine, horizon, rows, maxGap)
	}
}
