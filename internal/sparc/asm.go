package sparc

import (
	"fmt"
	"strconv"
	"strings"
)

// Assembler translates SPARC assembler text into instructions. It supports
// the subset of syntax the examples and tests use:
//
//	label:                         ; labels end with a colon
//	add %g1, %g2, %g3              ; three-operand ALU
//	add %g1, 12, %g3               ; register + immediate
//	sethi %hi(0x12345400), %g1     ; or: sethi 0x48d15, %g1
//	ld [%g1 + 8], %g2              ; loads
//	st %g2, [%g1 + 8]              ; stores
//	bne loop                       ; branches to labels (delay slot explicit)
//	ba,a done                      ; annulled branch
//	call fn                        ; call to label
//	jmpl %o7 + 8, %g0              ; indirect jump ("retl")
//	ta 0                           ; software trap
//	nop
//	cmp %g1, %g2                   ; pseudo: subcc %g1, %g2, %g0
//	mov 5, %g1                     ; pseudo: or %g0, 5, %g1
//	set 0x12345678, %g1            ; pseudo: sethi+or pair (may emit 2 words)
//	! comment, or # comment
//
// Branch displacements are resolved in a second pass.
type Assembler struct {
	insts  []Inst
	labels map[string]int
	// fixups maps instruction index -> label for pc-relative operands.
	fixups map[int]string
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{labels: make(map[string]int), fixups: make(map[int]string)}
}

// Assemble is a convenience wrapper: assemble full source text.
func Assemble(src string) ([]Inst, error) {
	a := NewAssembler()
	for ln, line := range strings.Split(src, "\n") {
		if err := a.Line(line); err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
	}
	return a.Finish()
}

// Label defines a label at the current position.
func (a *Assembler) Label(name string) {
	a.labels[name] = len(a.insts)
}

// Emit appends an already-built instruction.
func (a *Assembler) Emit(i Inst) {
	a.insts = append(a.insts, i)
}

// EmitBranch appends a Bicc targeting a label (resolved by Finish).
func (a *Assembler) EmitBranch(cond Cond, label string) {
	a.fixups[len(a.insts)] = label
	a.Emit(Inst{Op: OpBicc, Cond: cond})
}

// EmitCall appends a call targeting a label.
func (a *Assembler) EmitCall(label string) {
	a.fixups[len(a.insts)] = label
	a.Emit(Inst{Op: OpCall})
}

// Len returns the number of instructions emitted so far.
func (a *Assembler) Len() int { return len(a.insts) }

// Line assembles one line of text (possibly empty or comment-only).
func (a *Assembler) Line(line string) error {
	if idx := strings.IndexAny(line, "!#"); idx >= 0 {
		line = line[:idx]
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return nil
	}
	for {
		colon := strings.Index(line, ":")
		if colon < 0 {
			break
		}
		label := strings.TrimSpace(line[:colon])
		if strings.ContainsAny(label, " \t") {
			return fmt.Errorf("bad label %q", label)
		}
		a.Label(label)
		line = strings.TrimSpace(line[colon+1:])
	}
	if line == "" {
		return nil
	}
	return a.instruction(line)
}

func (a *Assembler) instruction(line string) error {
	mnem := line
	rest := ""
	if sp := strings.IndexAny(line, " \t"); sp >= 0 {
		mnem, rest = line[:sp], strings.TrimSpace(line[sp+1:])
	}
	mnem = strings.ToLower(mnem)

	annul := false
	if strings.HasSuffix(mnem, ",a") {
		annul = true
		mnem = strings.TrimSuffix(mnem, ",a")
	}

	// Branches: b<cond> / fb<cond>.
	if cond, ok := parseBranchCond(mnem, "b", condNames[:]); ok {
		return a.branch(OpBicc, cond, annul, rest)
	}
	if cond, ok := parseBranchCond(mnem, "fb", fcondNames[:]); ok {
		return a.branch(OpFBfcc, cond, annul, rest)
	}

	args := splitArgs(rest)
	switch mnem {
	case "nop":
		a.Emit(NewNop())
		return nil
	case "call":
		if len(args) != 1 {
			return fmt.Errorf("call takes one operand")
		}
		if strings.HasPrefix(args[0], ".") {
			d, err := parseImm(args[0][1:])
			if err != nil {
				return fmt.Errorf("bad call displacement %q", args[0])
			}
			a.Emit(NewCall(d))
			return nil
		}
		a.fixups[len(a.insts)] = args[0]
		a.Emit(NewCall(0))
		return nil
	case "ta":
		n, err := parseImm(args[0])
		if err != nil {
			return err
		}
		a.Emit(NewTrap(n))
		return nil
	case "retl":
		a.Emit(NewJmpl(G0, O7, 8))
		return nil
	case "ret":
		a.Emit(NewJmpl(G0, I7, 8))
		return nil
	case "sethi":
		if len(args) != 2 {
			return fmt.Errorf("sethi takes two operands")
		}
		imm, err := parseHiImm(args[0])
		if err != nil {
			return err
		}
		rd, err := ParseReg(args[1])
		if err != nil {
			return err
		}
		a.Emit(NewSethi(rd, imm))
		return nil
	case "set":
		if len(args) != 2 {
			return fmt.Errorf("set takes two operands")
		}
		v, err := parseImm(args[0])
		if err != nil {
			return err
		}
		rd, err := ParseReg(args[1])
		if err != nil {
			return err
		}
		a.emitSet(uint32(v), rd)
		return nil
	case "mov":
		if len(args) != 2 {
			return fmt.Errorf("mov takes two operands")
		}
		rd, err := ParseReg(args[1])
		if err != nil {
			return err
		}
		if src, err := ParseReg(args[0]); err == nil {
			a.Emit(NewALU(OpOr, rd, G0, src))
			return nil
		}
		v, err := parseImm(args[0])
		if err != nil {
			return err
		}
		a.Emit(NewALUImm(OpOr, rd, G0, v))
		return nil
	case "cmp":
		if len(args) != 2 {
			return fmt.Errorf("cmp takes two operands")
		}
		rs1, err := ParseReg(args[0])
		if err != nil {
			return err
		}
		if rs2, err := ParseReg(args[1]); err == nil {
			a.Emit(NewALU(OpSubcc, G0, rs1, rs2))
			return nil
		}
		v, err := parseImm(args[1])
		if err != nil {
			return err
		}
		a.Emit(NewALUImm(OpSubcc, G0, rs1, v))
		return nil
	case "wr":
		// wr rs1, rs2|imm, %y
		if len(args) != 3 || args[2] != "%y" {
			return fmt.Errorf("wr takes rs1, reg_or_imm, %%y")
		}
		rs1, err := ParseReg(args[0])
		if err != nil {
			return err
		}
		if rs2, err := ParseReg(args[1]); err == nil {
			a.Emit(Inst{Op: OpWry, Rs1: rs1, Rs2: rs2})
			return nil
		}
		v, err := parseImm(args[1])
		if err != nil {
			return err
		}
		a.Emit(Inst{Op: OpWry, Rs1: rs1, Imm: v, UseImm: true})
		return nil
	case "rd":
		// rd %y, rd
		if len(args) != 2 || args[0] != "%y" {
			return fmt.Errorf("rd takes %%y, rd")
		}
		rd, err := ParseReg(args[1])
		if err != nil {
			return err
		}
		a.Emit(Inst{Op: OpRdy, Rd: rd})
		return nil
	case "jmpl":
		if len(args) != 2 {
			return fmt.Errorf("jmpl takes two operands")
		}
		// Accept both "jmpl %o7 + 8, %g0" and "jmpl [%o7 + 8], %g0".
		addr := args[0]
		if !strings.HasPrefix(addr, "[") {
			addr = "[" + addr + "]"
		}
		rs1, rs2, imm, useImm, err := parseAddr(addr)
		if err != nil {
			return err
		}
		rd, err := ParseReg(args[1])
		if err != nil {
			return err
		}
		inst := Inst{Op: OpJmpl, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm, UseImm: useImm}
		a.Emit(inst)
		return nil
	}

	op, ok := opByName[mnem]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnem)
	}
	switch op.Class() {
	case ClassLoad:
		if len(args) != 2 {
			return fmt.Errorf("%s takes [addr], rd", mnem)
		}
		rs1, rs2, imm, useImm, err := parseAddr(args[0])
		if err != nil {
			return err
		}
		rd, err := ParseReg(args[1])
		if err != nil {
			return err
		}
		op = fixFPMem(op, rd)
		a.Emit(Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm, UseImm: useImm})
		return nil
	case ClassStore:
		if len(args) != 2 {
			return fmt.Errorf("%s takes rd, [addr]", mnem)
		}
		rd, err := ParseReg(args[0])
		if err != nil {
			return err
		}
		rs1, rs2, imm, useImm, err := parseAddr(args[1])
		if err != nil {
			return err
		}
		op = fixFPMem(op, rd)
		a.Emit(Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm, UseImm: useImm})
		return nil
	case ClassFPAdd, ClassFPMul, ClassFPDiv:
		return a.fpop(op, args)
	}
	// Integer ALU / shift / muldiv / save / restore.
	if len(args) != 3 {
		return fmt.Errorf("%s takes three operands", mnem)
	}
	rs1, err := ParseReg(args[0])
	if err != nil {
		return err
	}
	rd, err := ParseReg(args[2])
	if err != nil {
		return err
	}
	if rs2, err := ParseReg(args[1]); err == nil {
		a.Emit(NewALU(op, rd, rs1, rs2))
		return nil
	}
	v, err := parseImm(args[1])
	if err != nil {
		return err
	}
	a.Emit(NewALUImm(op, rd, rs1, v))
	return nil
}

func (a *Assembler) fpop(op Op, args []string) error {
	inst := Inst{Op: op}
	regs := make([]Reg, len(args))
	for i, s := range args {
		r, err := ParseReg(s)
		if err != nil {
			return err
		}
		regs[i] = r
	}
	switch {
	case op == OpFcmps || op == OpFcmpd:
		if len(regs) != 2 {
			return fmt.Errorf("%s takes two operands", op.Name())
		}
		inst.Rs1, inst.Rs2 = regs[0], regs[1]
	case inst.fpSingleSrc():
		if len(regs) != 2 {
			return fmt.Errorf("%s takes two operands", op.Name())
		}
		inst.Rs2, inst.Rd = regs[0], regs[1]
	default:
		if len(regs) != 3 {
			return fmt.Errorf("%s takes three operands", op.Name())
		}
		inst.Rs1, inst.Rs2, inst.Rd = regs[0], regs[1], regs[2]
	}
	a.Emit(inst)
	return nil
}

func (a *Assembler) branch(op Op, cond Cond, annul bool, rest string) error {
	target := strings.TrimSpace(rest)
	if target == "" {
		return fmt.Errorf("branch needs a target label")
	}
	// Numeric displacement form, as the disassembler prints: ".+8", ".-4".
	if strings.HasPrefix(target, ".") {
		d, err := parseImm(target[1:])
		if err != nil {
			return fmt.Errorf("bad branch displacement %q", target)
		}
		a.Emit(Inst{Op: op, Cond: cond, Annul: annul, Disp: d})
		return nil
	}
	a.fixups[len(a.insts)] = target
	a.Emit(Inst{Op: op, Cond: cond, Annul: annul})
	return nil
}

// emitSet expands the "set" pseudo-op into sethi/or as needed.
func (a *Assembler) emitSet(v uint32, rd Reg) {
	if int32(v) >= -(1<<12) && int32(v) < 1<<12 {
		a.Emit(NewALUImm(OpOr, rd, G0, int32(v)))
		return
	}
	a.Emit(NewSethi(rd, int32(v>>10)))
	if low := v & 0x3ff; low != 0 {
		a.Emit(NewALUImm(OpOr, rd, rd, int32(low)))
	}
}

// Finish resolves label fixups and returns the instruction list.
func (a *Assembler) Finish() ([]Inst, error) {
	for idx, label := range a.fixups {
		target, ok := a.labels[label]
		if !ok {
			return nil, fmt.Errorf("undefined label %q", label)
		}
		a.insts[idx].Disp = int32(target - idx)
	}
	return a.insts, nil
}

func parseBranchCond(mnem, prefix string, names []string) (Cond, bool) {
	if !strings.HasPrefix(mnem, prefix) {
		return 0, false
	}
	suffix := mnem[len(prefix):]
	if prefix == "b" && mnem == "b" {
		return CondA, true // "b" == "ba"
	}
	for i, n := range names {
		if suffix == n {
			return Cond(i), true
		}
	}
	return 0, false
}

func splitArgs(s string) []string {
	if s == "" {
		return nil
	}
	// Commas inside [...] belong to the address expression; there are none
	// in our syntax, so a simple split suffices.
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// parseAddr parses "[%r1 + %r2]", "[%r1 + imm]", "[%r1 - imm]", "[%r1]".
func parseAddr(s string) (rs1, rs2 Reg, imm int32, useImm bool, err error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, 0, false, fmt.Errorf("bad address %q", s)
	}
	body := strings.TrimSpace(s[1 : len(s)-1])
	neg := false
	var lhs, rhs string
	if i := strings.IndexAny(body, "+-"); i >= 0 {
		neg = body[i] == '-'
		lhs, rhs = strings.TrimSpace(body[:i]), strings.TrimSpace(body[i+1:])
	} else {
		lhs = body
	}
	rs1, err = ParseReg(lhs)
	if err != nil {
		return 0, 0, 0, false, err
	}
	if rhs == "" {
		return rs1, G0, 0, true, nil
	}
	if r, rerr := ParseReg(rhs); rerr == nil {
		if neg {
			return 0, 0, 0, false, fmt.Errorf("cannot subtract a register in %q", s)
		}
		return rs1, r, 0, false, nil
	}
	imm, err = parseImm(rhs)
	if err != nil {
		return 0, 0, 0, false, err
	}
	if neg {
		imm = -imm
	}
	return rs1, G0, imm, true, nil
}

func parseImm(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	if v < -(1<<31) || v > 1<<32-1 {
		return 0, fmt.Errorf("immediate %q out of range", s)
	}
	return int32(uint32(v)), nil
}

// parseHiImm parses either "%hi(0x12345400)" (returning the high 22 bits)
// or a plain immediate already in imm22 form.
func parseHiImm(s string) (int32, error) {
	if strings.HasPrefix(s, "%hi(") && strings.HasSuffix(s, ")") {
		v, err := parseImm(s[4 : len(s)-1])
		if err != nil {
			return 0, err
		}
		return int32(uint32(v) >> 10), nil
	}
	return parseImm(s)
}

// fixFPMem rewrites the integer ld/st/ldd/std mnemonics to their fp forms
// when the data register is a floating-point register, matching assembler
// convention where "ld [%o0], %f0" means ldf.
func fixFPMem(op Op, rd Reg) Op {
	if !rd.IsFloat() {
		return op
	}
	switch op {
	case OpLd:
		return OpLdf
	case OpLdd:
		return OpLddf
	case OpSt:
		return OpStf
	case OpStd:
		return OpStdf
	}
	return op
}
