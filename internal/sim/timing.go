package sim

import (
	"eel/internal/core"
	"eel/internal/exe"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// TimingConfig selects the hardware timing features of a machine.
type TimingConfig struct {
	Rules Rules
	// Instruction cache geometry; Size 0 disables the cache model.
	ICacheSize  int
	ICacheLine  int
	ICacheWays  int
	MissPenalty int64
	// ClockMHz converts cycles to seconds for reporting.
	ClockMHz float64
}

// DefaultTiming returns the per-machine hardware configuration used by the
// benchmark harness. Clock rates follow the paper's testbeds: a 50 MHz
// SuperSPARC SPARCstation 20 and a 167 MHz UltraSPARC Enterprise.
func DefaultTiming(m spawn.Machine) TimingConfig {
	switch m {
	case spawn.HyperSPARC:
		return TimingConfig{
			Rules:      MachineRules(m),
			ICacheSize: 8 << 10, ICacheLine: 32, ICacheWays: 1,
			MissPenalty: 8, ClockMHz: 66,
		}
	case spawn.SuperSPARC:
		return TimingConfig{
			Rules:      MachineRules(m),
			ICacheSize: 16 << 10, ICacheLine: 32, ICacheWays: 4,
			MissPenalty: 9, ClockMHz: 50,
		}
	default: // UltraSPARC
		return TimingConfig{
			Rules:      MachineRules(m),
			ICacheSize: 16 << 10, ICacheLine: 32, ICacheWays: 2,
			MissPenalty: 8, ClockMHz: 167,
		}
	}
}

// Timing measures the execution of a dynamic instruction stream on the
// hardware model: the spawn-model units and latencies, the machine Rules,
// the instruction cache, and branch redirect/misprediction penalties.
// Feed it to Interp.Run as the observer.
type Timing struct {
	hw     *HW
	cfg    TimingConfig
	icache *Cache
	base   uint32 // text base for fetch addresses

	// prog memoizes each static instruction's timing-group resolution and
	// held-unit placement inputs per text index, in the scheduler's
	// structure-of-arrays block representation (core.BlockSoA, sized via
	// ResizePrep: only the Prep and Flags arrays are used; a Prep slot
	// with a nil Group is not yet resolved). Empty when the text length
	// is unknown — plain NewTiming callers — in which case Observe falls
	// back to HW's per-instruction resolve cache. A 600k-step run
	// touches only a few thousand static instructions, so each is
	// resolved at most once.
	prog core.BlockSoA

	lastIdx int
	// Pending conditional branch, for misprediction accounting.
	pendIdx  int // index of the conditional CTI, -1 if none
	pendDisp int32
	sinceCTI int

	instructions uint64
	mispredicts  uint64
	redirects    uint64
}

// NewTiming builds a timing observer for an executable's text base.
func NewTiming(model *spawn.Model, cfg TimingConfig, textBase uint32) *Timing {
	t := &Timing{
		hw:      NewHW(model, cfg.Rules),
		cfg:     cfg,
		base:    textBase,
		lastIdx: -1,
		pendIdx: -1,
	}
	if cfg.ICacheSize > 0 {
		t.icache = NewCache(cfg.ICacheSize, cfg.ICacheLine, cfg.ICacheWays)
	}
	return t
}

// NewProgramTiming is NewTiming for a program of known text length: each
// static instruction's placement inputs are resolved once, on first
// execution, instead of on every dynamic instruction.
func NewProgramTiming(model *spawn.Model, cfg TimingConfig, textBase uint32, textLen int) *Timing {
	t := NewTiming(model, cfg, textBase)
	t.prog.ResizePrep(textLen)
	return t
}

// ResetFor prepares the observer for a fresh run of a (possibly different)
// executable, reusing the hardware engine, the instruction-cache arrays
// and the static-instruction memo storage. It leaves the observer exactly
// as NewProgramTiming would build it.
func (t *Timing) ResetFor(textBase uint32, textLen int) {
	t.hw.Reset()
	if t.icache != nil {
		t.icache.Reset()
	}
	t.base = textBase
	t.lastIdx, t.pendIdx = -1, -1
	t.pendDisp, t.sinceCTI = 0, 0
	t.instructions, t.mispredicts, t.redirects = 0, 0, 0
	t.prog.ResizePrep(textLen)
}

// Observe consumes one executed instruction. It matches sim.Observer.
func (t *Timing) Observe(idx int, inst *sparc.Inst) {
	t.instructions++

	// Fetch: cache lookup and redirect bubbles.
	if t.icache != nil {
		if !t.icache.Access(t.base + 4*uint32(idx)) {
			t.hw.Delay(t.hw.Clock() + t.cfg.MissPenalty)
		}
	}
	if t.lastIdx >= 0 && idx != t.lastIdx+1 {
		// Non-sequential fetch: a taken transfer redirected the stream.
		t.redirects++
		t.hw.Delay(t.hw.Clock() + t.cfg.Rules.RedirectPenalty)
	}

	// Misprediction accounting for the pending conditional branch: the
	// second instruction after it reveals the outcome.
	if t.pendIdx >= 0 {
		t.sinceCTI++
		if t.sinceCTI >= 2 || idx != t.lastIdx+1 {
			taken := idx != t.pendIdx+2
			predictTaken := t.cfg.Rules.PredictBackwardTaken && t.pendDisp < 0
			if t.cfg.Rules.MispredictPenalty > 0 && taken != predictTaken {
				t.mispredicts++
				t.hw.Delay(t.hw.Clock() + t.cfg.Rules.MispredictPenalty)
			}
			t.pendIdx = -1
		}
	}

	var issue int64
	var err error
	if idx < len(t.prog.Prep) {
		p := &t.prog.Prep[idx]
		if p.Group() == nil {
			err = t.hw.prepare(p, inst)
			if err == nil {
				t.prog.Flags[idx] = core.InstFlagsOf(*inst)
			}
		}
		if err == nil {
			issue, err = t.hw.placePrepared(p, t.prog.Flags[idx], inst, true)
		}
	} else {
		issue, err = t.hw.place(inst, true)
	}
	if err != nil {
		// The stream already executed functionally; a timing-model gap is
		// a bug, so make it loud.
		panic(err)
	}
	if t.cfg.Rules.CTIEndsGroup && inst.IsCTI() {
		t.hw.Delay(issue + 1)
	}

	if (inst.Op == sparc.OpBicc || inst.Op == sparc.OpFBfcc) && !inst.IsUncond() {
		t.pendIdx = idx
		t.pendDisp = inst.Disp
		t.sinceCTI = 0
	}
	t.lastIdx = idx
}

// Cycles returns the cycle count so far.
func (t *Timing) Cycles() int64 { return t.hw.Clock() }

// Seconds converts the cycle count at the configured clock rate.
func (t *Timing) Seconds() float64 {
	return float64(t.hw.Clock()) / (t.cfg.ClockMHz * 1e6)
}

// Instructions returns the number of observed instructions.
func (t *Timing) Instructions() uint64 { return t.instructions }

// ICache exposes the cache model (nil if disabled).
func (t *Timing) ICache() *Cache { return t.icache }

// RunMeasured executes x functionally while measuring it on the machine's
// timing model, returning the finished interpreter (for reading counters),
// the timing observer and the run result.
func RunMeasured(x *exe.Exe, model *spawn.Model, cfg TimingConfig, maxSteps uint64) (*Interp, *Timing, Result, error) {
	in, err := NewInterp(x)
	if err != nil {
		return nil, nil, Result{}, err
	}
	t := NewProgramTiming(model, cfg, x.TextBase, len(x.Text))
	res, err := in.Run(maxSteps, t.Observe)
	if err != nil {
		return nil, nil, res, err
	}
	return in, t, res, nil
}
