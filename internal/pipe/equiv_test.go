package pipe

import (
	"math/rand"
	"testing"

	"eel/internal/sparc"
	"eel/internal/spawn"
	hyper "eel/internal/spawn/gen/hypersparc"
	super "eel/internal/spawn/gen/supersparc"
)

// genState abstracts the three generated packages for equivalence tests.
type genState interface {
	Stalls(gid int, reads, writes []genRegTime, commit bool) int
	Clock() int64
	GroupFor(mnemonic, variant string) int
}

type genRegTime struct{ Reg, Cycle int }

type hyperAdapter struct{ s *hyper.State }

func (a hyperAdapter) Stalls(g int, r, w []genRegTime, c bool) int {
	return a.s.Stalls(g, conv[hyper.RegTime](r), conv[hyper.RegTime](w), c)
}
func (a hyperAdapter) Clock() int64             { return a.s.Clock() }
func (a hyperAdapter) GroupFor(m, v string) int { return hyper.GroupFor(m, v) }

type superAdapter struct{ s *super.State }

func (a superAdapter) Stalls(g int, r, w []genRegTime, c bool) int {
	return a.s.Stalls(g, conv[super.RegTime](r), conv[super.RegTime](w), c)
}
func (a superAdapter) Clock() int64             { return a.s.Clock() }
func (a superAdapter) GroupFor(m, v string) int { return super.GroupFor(m, v) }

func conv[T ~struct{ Reg, Cycle int }](in []genRegTime) []T {
	out := make([]T, len(in))
	for i, r := range in {
		out[i] = T{Reg: r.Reg, Cycle: r.Cycle}
	}
	return out
}

// TestGeneratedEquivalenceAllMachines extends the UltraSPARC equivalence
// check to the hyperSPARC and SuperSPARC generated tables.
func TestGeneratedEquivalenceAllMachines(t *testing.T) {
	cases := []struct {
		machine spawn.Machine
		mk      func() genState
	}{
		{spawn.HyperSPARC, func() genState { return hyperAdapter{hyper.NewState()} }},
		{spawn.SuperSPARC, func() genState { return superAdapter{super.NewState()} }},
	}
	regs := []sparc.Reg{sparc.G1, sparc.G2, sparc.G3, sparc.O0, sparc.O1, sparc.L0}
	for _, c := range cases {
		model := spawn.MustLoad(c.machine)
		r := rand.New(rand.NewSource(99))
		for trial := 0; trial < 100; trial++ {
			interp := NewState(model)
			gen := c.mk()
			for i := 0; i < 10; i++ {
				var inst sparc.Inst
				switch r.Intn(5) {
				case 0:
					inst = sparc.NewALU(sparc.OpAdd, regs[r.Intn(len(regs))], regs[r.Intn(len(regs))], regs[r.Intn(len(regs))])
				case 1:
					inst = sparc.NewALUImm(sparc.OpSub, regs[r.Intn(len(regs))], regs[r.Intn(len(regs))], int32(r.Intn(64)))
				case 2:
					inst = sparc.NewLoad(sparc.OpLd, regs[r.Intn(len(regs))], regs[r.Intn(len(regs))], int32(4*r.Intn(32)))
				case 3:
					inst = sparc.NewStore(sparc.OpSt, regs[r.Intn(len(regs))], regs[r.Intn(len(regs))], int32(4*r.Intn(32)))
				default:
					inst = sparc.NewSethi(regs[r.Intn(len(regs))], int32(r.Intn(1<<20)))
				}
				g, err := model.GroupOf(inst)
				if err != nil {
					t.Fatal(err)
				}
				reads, writes := interp.resolver.Resolve(g, inst)
				gr := make([]genRegTime, len(reads))
				for j, ra := range reads {
					gr[j] = genRegTime{Reg: int(ra.Reg), Cycle: int(ra.Cycle)}
				}
				gw := make([]genRegTime, len(writes))
				for j, wa := range writes {
					gw[j] = genRegTime{Reg: int(wa.Reg), Cycle: int(wa.Cycle)}
				}
				variant := "r"
				if inst.UseImm {
					variant = "i"
				}
				gid := gen.GroupFor(inst.Op.Name(), variant)
				if gid != g.ID {
					t.Fatalf("%s: group mismatch for %v", c.machine, inst)
				}
				want, _, err := interp.Issue(inst)
				if err != nil {
					t.Fatal(err)
				}
				if got := gen.Stalls(gid, gr, gw, true); got != want {
					t.Fatalf("%s trial %d: stalls %d vs %d for %v", c.machine, trial, got, want, inst)
				}
			}
			if interp.Clock() != gen.Clock() {
				t.Fatalf("%s: clocks diverge", c.machine)
			}
		}
	}
}
