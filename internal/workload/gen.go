package workload

import (
	"fmt"
	"math"
	"math/rand"

	"eel/internal/eel"
	"eel/internal/exe"
	"eel/internal/sim"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// Config tunes generation.
type Config struct {
	Machine spawn.Machine
	// DynamicInsts is the approximate dynamic length of a full run.
	DynamicInsts uint64
	// Seed makes generation deterministic; the benchmark name is mixed in.
	Seed int64
	// SkipPreschedule emits the raw generated code without the
	// vendor-compiler-equivalent scheduling pass (ablation).
	SkipPreschedule bool
	// SkipCalibration disables the measure-and-adjust pass for the
	// dynamic block-size target (faster; used by small tests).
	SkipCalibration bool
}

func (c Config) withDefaults() Config {
	if c.Machine == "" {
		c.Machine = spawn.UltraSPARC
	}
	if c.DynamicInsts == 0 {
		c.DynamicInsts = 1 << 20
	}
	return c
}

// Data segment layout of generated programs.
const (
	fpArrayOff  = 0x0000 // 4 KiB of doubles
	intArrayOff = 0x1000 // 1 KiB of words
	storeOff    = 0x2000 // 4 KiB scratch for stores
	dataSize    = 0x3000
)

// Base registers established by the prologue and reserved thereafter.
const (
	fpBase    = sparc.O0
	intBase   = sparc.O1
	storeBase = sparc.O2
)

// innerCounter and its parity drive loop control and branch outcomes;
// they are reserved too, as are %g5/%g6/%g7 (claimed by the QPT profiling
// and tracing instrumentation).
const innerCounter = sparc.L7

// intPool is the register pool for generated integer content.
var intPool = []sparc.Reg{
	sparc.G1, sparc.G2, sparc.G3, sparc.G4,
	sparc.O3, sparc.O4, sparc.O5,
	sparc.L0, sparc.L1, sparc.L2, sparc.L3, sparc.L4, sparc.L5,
	sparc.I1, sparc.I2, sparc.I3, sparc.I4, sparc.I5,
}

// Generate builds the synthetic benchmark executable: generated kernels,
// then (unless disabled) a pre-scheduling pass against the machine's
// *hardware* model — the stand-in for the Sun compilers' optimizer. The
// result is calibrated so its measured dynamic average block size tracks
// Benchmark.AvgBlockSize.
func Generate(b Benchmark, cfg Config) (*exe.Exe, error) {
	cfg = cfg.withDefaults()
	target := b.AvgBlockSize
	aim := target
	var out *exe.Exe
	var err error
	rounds := 3
	if cfg.SkipCalibration {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		out, err = generateOnce(b, cfg, aim)
		if err != nil {
			return nil, err
		}
		if round == rounds-1 {
			break
		}
		measured, merr := MeasureAvgBlockSize(out, 200_000)
		if merr != nil {
			return nil, merr
		}
		if math.Abs(measured-target)/target < 0.03 {
			break
		}
		aim *= target / measured
		if aim < 2 {
			aim = 2
		}
	}
	return out, nil
}

// generateOnce emits one executable aiming at dynamic block size m.
func generateOnce(b Benchmark, cfg Config, m float64) (*exe.Exe, error) {
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(hashName(b.Name))))
	a := sparc.NewAssembler()

	// Estimate per-iteration cost to size the outer loop.
	instsPerIter, _ := planShape(m)
	perCall := float64(b.Inner)*instsPerIter + 6
	perOuter := float64(b.Kernels)*(perCall+2) + 4
	outer := int(float64(cfg.DynamicInsts)/perOuter) + 1

	// Prologue: establish base registers and the outer counter.
	emitSet(a, uint32(exe.DefaultDataBase+fpArrayOff), fpBase)
	emitSet(a, uint32(exe.DefaultDataBase+intArrayOff), intBase)
	emitSet(a, uint32(exe.DefaultDataBase+storeOff), storeBase)
	emitSet(a, uint32(outer), sparc.I0)

	a.Label("outer")
	for k := 0; k < b.Kernels; k++ {
		a.EmitCall(fmt.Sprintf("k%d", k))
		a.Emit(sparc.NewNop())
	}
	a.Emit(sparc.NewALUImm(sparc.OpSubcc, sparc.I0, sparc.I0, 1))
	a.EmitBranch(sparc.CondNE, "outer")
	a.Emit(sparc.NewNop())
	a.Emit(sparc.NewTrap(0))

	for k := 0; k < b.Kernels; k++ {
		genKernel(a, b, k, m, rng)
	}

	insts, err := a.Finish()
	if err != nil {
		return nil, err
	}

	x := exe.New()
	x.Text = make([]uint32, len(insts))
	for i, inst := range insts {
		w, err := sparc.Encode(inst)
		if err != nil {
			return nil, fmt.Errorf("workload: %s instruction %d (%v): %w", b.Name, i, inst, err)
		}
		x.Text[i] = w
	}
	x.Data = initialData()
	x.AddSymbol("main", x.TextBase, true)

	if cfg.SkipPreschedule {
		return x, nil
	}
	// "Compile" the program: schedule every block against the hardware
	// model (grouping rules included), like the Sun optimizer did.
	model, err := spawn.Load(cfg.Machine)
	if err != nil {
		return nil, err
	}
	ed, err := eel.Open(x)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", b.Name, err)
	}
	return ed.Edit(nil, eel.Options{
		Machine:   model,
		Schedule:  true,
		Scheduler: newCompilerScheduler(model, sim.MachineRules(cfg.Machine).Rules),
	})
}

// planShape returns the expected instructions per inner iteration and the
// echo-block count for the branchy plan (0 for the big-block plan).
func planShape(m float64) (instsPerIter float64, echoes int) {
	if m >= 4.5 {
		return m, 0
	}
	// Branchy plan: head(3+padA) + arm(avg 1.75+armPad) + 2*nE + tail(3+padD).
	bestN, bestErr := 0, math.Inf(1)
	for nE := 0; nE <= 10; nE++ {
		pad := m*float64(nE+3) - 7.75 - 2*float64(nE)
		if pad < 0 {
			pad = 0
		}
		mean := (7.75 + 2*float64(nE) + pad) / float64(nE+3)
		if e := math.Abs(mean - m); e < bestErr {
			bestErr, bestN = e, nE
		}
	}
	pad := m*float64(bestN+3) - 7.75 - 2*float64(bestN)
	if pad < 0 {
		pad = 0
	}
	return 7.75 + 2*float64(bestN) + pad, bestN
}

// genKernel emits one leaf procedure.
func genKernel(a *sparc.Assembler, b Benchmark, k int, m float64, rng *rand.Rand) {
	name := fmt.Sprintf("k%d", k)
	loop := name + "_loop"
	a.Label(name)
	emitSet(a, uint32(b.Inner), innerCounter)
	a.Label(loop)

	g := &contentGen{fp: b.FP, rng: rng}
	if m >= 4.5 {
		// One big block per iteration: content then loop control.
		n := int(m + 0.5)
		g.emit(a, n-3)
	} else {
		_, nE := planShape(m)
		padTotal := m*float64(nE+3) - 7.75 - 2*float64(nE)
		if padTotal < 0 {
			padTotal = 0
		}
		// Distribute padding across head, arms and tail.
		padA := int(padTotal/3 + 0.5)
		padArm := int(padTotal/3 + 0.5)
		padD := int(padTotal) - padA - padArm
		if padD < 0 {
			padD = 0
		}

		elseL := fmt.Sprintf("%s_else", name)
		joinL := fmt.Sprintf("%s_join", name)

		// Head block: content, phase test, branch. Comparing the loop
		// counter against the midpoint makes the outcome constant within
		// each half of the loop — predictable, like real branches.
		g.emit(a, padA)
		a.Emit(sparc.NewALUImm(sparc.OpSubcc, sparc.G0, innerCounter, int32(b.Inner/2)))
		a.EmitBranch(sparc.CondLEU, elseL)
		a.Emit(sparc.NewNop())
		// Then arm.
		g.emit(a, padArm)
		a.EmitBranch(sparc.CondA, joinL)
		a.Emit(sparc.NewNop())
		// Else arm (falls through to join).
		a.Label(elseL)
		g.emit(a, padArm+1)
		// Echo blocks: conditional branches whose target is also the
		// fallthrough — pure block boundaries, as in branchy integer code.
		a.Label(joinL)
		for e := 0; e < nE; e++ {
			el := fmt.Sprintf("%s_e%d", name, e)
			a.EmitBranch(sparc.CondNE, el)
			a.Emit(sparc.NewNop())
			a.Label(el)
		}
		// Tail content before loop control.
		g.emit(a, padD)
	}

	a.Emit(sparc.NewALUImm(sparc.OpSubcc, innerCounter, innerCounter, 1))
	a.EmitBranch(sparc.CondNE, loop)
	a.Emit(sparc.NewNop())
	a.Emit(sparc.NewJmpl(sparc.G0, sparc.O7, 8)) // retl
	a.Emit(sparc.NewNop())
}

// contentGen emits straight-line filler with realistic dependence chains.
type contentGen struct {
	fp  bool
	rng *rand.Rand
	// recent destination registers, for building chains.
	recentInt []sparc.Reg
	recentFP  []int // even double register numbers
}

func (g *contentGen) intReg() sparc.Reg {
	return intPool[g.rng.Intn(len(intPool))]
}

// srcInt picks a source: usually a recently-written register (a chain),
// sometimes a fresh one.
func (g *contentGen) srcInt() sparc.Reg {
	if len(g.recentInt) > 0 && g.rng.Float64() < 0.55 {
		return g.recentInt[g.rng.Intn(len(g.recentInt))]
	}
	return g.intReg()
}

func (g *contentGen) noteInt(r sparc.Reg) {
	g.recentInt = append(g.recentInt, r)
	if len(g.recentInt) > 4 {
		g.recentInt = g.recentInt[1:]
	}
}

func (g *contentGen) fpDst() int { return 2 * g.rng.Intn(16) }

func (g *contentGen) srcFP() int {
	if len(g.recentFP) > 0 && g.rng.Float64() < 0.4 {
		return g.recentFP[g.rng.Intn(len(g.recentFP))]
	}
	return g.fpDst()
}

func (g *contentGen) noteFP(n int) {
	g.recentFP = append(g.recentFP, n)
	if len(g.recentFP) > 6 {
		g.recentFP = g.recentFP[1:]
	}
}

var intOps = []sparc.Op{
	sparc.OpAdd, sparc.OpSub, sparc.OpAnd, sparc.OpOr, sparc.OpXor,
}

// emit appends n content instructions.
func (g *contentGen) emit(a *sparc.Assembler, n int) {
	for i := 0; i < n; i++ {
		if g.fp {
			g.emitFP(a)
		} else {
			g.emitInt(a)
		}
	}
}

func (g *contentGen) emitInt(a *sparc.Assembler) {
	switch r := g.rng.Float64(); {
	case r < 0.25: // load
		rd := g.intReg()
		a.Emit(sparc.NewLoad(sparc.OpLd, rd, intBase, int32(4*g.rng.Intn(256))))
		g.noteInt(rd)
	case r < 0.37: // store
		a.Emit(sparc.NewStore(sparc.OpSt, g.srcInt(), storeBase, int32(4*g.rng.Intn(256))))
	case r < 0.45: // address/constant formation
		rd := g.intReg()
		a.Emit(sparc.NewSethi(rd, int32(g.rng.Intn(1<<22))))
		g.noteInt(rd)
	case r < 0.55: // shift
		rd := g.intReg()
		op := sparc.OpSll
		if g.rng.Intn(2) == 0 {
			op = sparc.OpSra
		}
		a.Emit(sparc.NewALUImm(op, rd, g.srcInt(), int32(1+g.rng.Intn(7))))
		g.noteInt(rd)
	default: // ALU
		rd := g.intReg()
		op := intOps[g.rng.Intn(len(intOps))]
		if g.rng.Intn(2) == 0 {
			a.Emit(sparc.NewALUImm(op, rd, g.srcInt(), int32(g.rng.Intn(1024))))
		} else {
			a.Emit(sparc.NewALU(op, rd, g.srcInt(), g.srcInt()))
		}
		g.noteInt(rd)
	}
}

func (g *contentGen) emitFP(a *sparc.Assembler) {
	switch r := g.rng.Float64(); {
	case r < 0.40: // array load — SPEC FP loops are memory bound
		rd := g.fpDst()
		a.Emit(sparc.NewLoad(sparc.OpLddf, sparc.FReg(rd), fpBase, int32(8*g.rng.Intn(128))))
		g.noteFP(rd)
	case r < 0.56: // array store
		a.Emit(sparc.NewStore(sparc.OpStdf, sparc.FReg(g.srcFP()), storeBase, int32(8*g.rng.Intn(128))))
	case r < 0.60: // index arithmetic on the integer side
		rd := g.intReg()
		a.Emit(sparc.NewALUImm(sparc.OpAdd, rd, g.srcInt(), int32(g.rng.Intn(64))))
		g.noteInt(rd)
	case r < 0.72: // multiply
		rd := g.fpDst()
		a.Emit(sparc.NewALU(sparc.OpFmuld, sparc.FReg(rd), sparc.FReg(g.srcFP()), sparc.FReg(g.srcFP())))
		g.noteFP(rd)
	default: // add/sub
		rd := g.fpDst()
		op := sparc.OpFaddd
		if g.rng.Intn(3) == 0 {
			op = sparc.OpFsubd
		}
		a.Emit(sparc.NewALU(op, sparc.FReg(rd), sparc.FReg(g.srcFP()), sparc.FReg(g.srcFP())))
		g.noteFP(rd)
	}
}

// emitSet materializes a 32-bit constant.
func emitSet(a *sparc.Assembler, v uint32, rd sparc.Reg) {
	if int32(v) >= -(1<<12) && int32(v) < 1<<12 {
		a.Emit(sparc.NewALUImm(sparc.OpOr, rd, sparc.G0, int32(v)))
		return
	}
	a.Emit(sparc.NewSethi(rd, int32(v>>10)))
	if low := v & 0x3ff; low != 0 {
		a.Emit(sparc.NewALUImm(sparc.OpOr, rd, rd, int32(low)))
	}
}

// initialData fills the data segment: doubles in [1,2) for the fp array,
// small words for the integer array.
func initialData() []byte {
	data := make([]byte, dataSize)
	for i := 0; i < 512; i++ {
		bits := math.Float64bits(1.0 + float64(i)/512.0)
		for b := 0; b < 8; b++ {
			data[fpArrayOff+8*i+b] = byte(bits >> (56 - 8*b))
		}
	}
	for i := 0; i < 256; i++ {
		v := uint32(i * 7)
		data[intArrayOff+4*i] = byte(v >> 24)
		data[intArrayOff+4*i+1] = byte(v >> 16)
		data[intArrayOff+4*i+2] = byte(v >> 8)
		data[intArrayOff+4*i+3] = byte(v)
	}
	return data
}

func hashName(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// MeasureAvgBlockSize runs the program (capped at maxSteps) and returns
// dynamic instructions per basic-block entry — the paper's "Avg. BB Size".
func MeasureAvgBlockSize(x *exe.Exe, maxSteps uint64) (float64, error) {
	ed, err := eel.Open(x)
	if err != nil {
		return 0, err
	}
	// Interp observes only in-range text indices, so a slice indexed by
	// instruction holds the block starts.
	starts := make([]bool, len(ed.Insts()))
	for _, b := range ed.Graph().Blocks {
		starts[b.Start] = true
	}
	in, err := sim.NewInterp(x)
	if err != nil {
		return 0, err
	}
	var entries, steps uint64
	_, runErr := in.Run(maxSteps, func(idx int, inst *sparc.Inst) {
		steps++
		if starts[idx] {
			entries++
		}
	})
	// Hitting the step cap is fine for measurement purposes.
	if runErr != nil && in.Steps() < maxSteps {
		return 0, runErr
	}
	if entries == 0 {
		return 0, fmt.Errorf("workload: no block entries observed")
	}
	return float64(steps) / float64(entries), nil
}
