package qpt

import (
	"encoding/binary"
	"fmt"

	"eel/internal/cfg"
	"eel/internal/eel"
	"eel/internal/sparc"
)

// BlockTracer is the tracing counterpart of slow profiling: every
// instrumented block appends its block id to an in-memory trace buffer, in
// execution order — the program tracing qpt performed (Larus, IEEE
// Computer '93). The sequence is six instructions, so it stresses the
// scheduler harder than the counter sequence:
//
//	sethi %hi(cursorAddr), %g6
//	ld    [%g6 + %lo(cursorAddr)], %g7   ; current cursor
//	st    blockIDreg, [%g7]              ; append id (id materialized first)
//	add   %g7, 4, %g7
//	st    %g7, [%g6 + %lo(cursorAddr)]   ; bump cursor
//
// Block ids up to 4095 are materialized into %g5 with one or-immediate;
// larger ids need sethi+or. The trace buffer follows the cursor word in
// the data segment.
type BlockTracer struct {
	// Entries is the trace buffer capacity (number of 32-bit records).
	// Zero means 64k entries. The program traps (run error) if the buffer
	// overflows and Wrap is false.
	Entries int
	// Wrap makes the buffer circular by masking the cursor. Entries must
	// then be a power of two.
	Wrap bool

	cursorAddr uint32
	bufAddr    uint32
	graph      *cfg.Graph
}

var _ eel.Instrumenter = (*BlockTracer)(nil)

// Setup allocates the cursor word and trace buffer.
func (t *BlockTracer) Setup(ed *eel.Editor) error {
	if t.Entries == 0 {
		t.Entries = 1 << 16
	}
	if t.Wrap && t.Entries&(t.Entries-1) != 0 {
		return fmt.Errorf("qpt: wrap requires a power-of-two trace size, got %d", t.Entries)
	}
	if t.Wrap && 4*t.Entries-1 > 4095 {
		// The wrap mask must fit a simm13 and-immediate.
		return fmt.Errorf("qpt: wrap supports at most 1024 entries, got %d", t.Entries)
	}
	t.graph = ed.Graph()
	x := ed.Exe()
	base := x.DataEnd()
	if rem := base % 4; rem != 0 {
		x.Data = append(x.Data, make([]byte, 4-rem)...)
		base += 4 - rem
	}
	t.cursorAddr = base
	t.bufAddr = base + 4
	buf := make([]byte, 4+4*t.Entries)
	// The cursor starts at the buffer base.
	binary.BigEndian.PutUint32(buf, t.bufAddr)
	x.Data = append(x.Data, buf...)
	x.AddSymbol("__qpt_trace_cursor", t.cursorAddr, false)
	x.AddSymbol("__qpt_trace_buf", t.bufAddr, false)
	return nil
}

// Instrument emits the trace-append sequence for every block.
func (t *BlockTracer) Instrument(b *cfg.Block) []sparc.Inst {
	hi := int32(t.cursorAddr >> 10)
	lo := int32(t.cursorAddr & 0x3ff)
	var seq []sparc.Inst
	// Materialize the block id into %g5.
	id := int32(b.Index)
	if id < 1<<12 {
		seq = append(seq, sparc.NewALUImm(sparc.OpOr, sparc.G5, sparc.G0, id))
	} else {
		seq = append(seq,
			sparc.NewSethi(sparc.G5, id>>10),
			sparc.NewALUImm(sparc.OpOr, sparc.G5, sparc.G5, id&0x3ff))
	}
	seq = append(seq,
		sparc.NewSethi(AddrReg, hi),
		sparc.NewLoad(sparc.OpLd, ValReg, AddrReg, lo),
		sparc.NewStore(sparc.OpSt, sparc.G5, ValReg, 0),
		sparc.NewALUImm(sparc.OpAdd, ValReg, ValReg, 4),
	)
	if t.Wrap {
		// cursor = buf + ((cursor + 4 - buf) & mask) needs the buffer
		// base; keep it simple: mask the offset via and after subtract.
		// wrap: off = (cursor - buf) & (4*Entries - 1); cursor = buf + off
		// Requires the buffer base in a register; materialize into %g5
		// (the id is already stored).
		seq = append(seq,
			sparc.NewSethi(sparc.G5, int32(t.bufAddr>>10)),
			sparc.NewALUImm(sparc.OpOr, sparc.G5, sparc.G5, int32(t.bufAddr&0x3ff)),
			sparc.NewALU(sparc.OpSub, ValReg, ValReg, sparc.G5),
			sparc.NewALUImm(sparc.OpAnd, ValReg, ValReg, int32(4*t.Entries-1)),
			sparc.NewALU(sparc.OpAdd, ValReg, ValReg, sparc.G5),
		)
	}
	seq = append(seq, sparc.NewStore(sparc.OpSt, ValReg, AddrReg, lo))
	for i := range seq {
		seq[i].Instrumented = true
	}
	return seq
}

// Trace decodes the recorded block ids from a finished run's memory.
func (t *BlockTracer) Trace(read32 func(addr uint32) uint32) ([]int, error) {
	if t.graph == nil {
		return nil, fmt.Errorf("qpt: Trace before Setup")
	}
	cursor := read32(t.cursorAddr)
	if cursor < t.bufAddr || cursor > t.bufAddr+uint32(4*t.Entries) {
		return nil, fmt.Errorf("qpt: trace cursor %#x outside buffer", cursor)
	}
	n := int(cursor-t.bufAddr) / 4
	out := make([]int, n)
	for i := 0; i < n; i++ {
		id := read32(t.bufAddr + uint32(4*i))
		if int(id) >= len(t.graph.Blocks) {
			return nil, fmt.Errorf("qpt: trace entry %d has bad block id %d", i, id)
		}
		out[i] = int(id)
	}
	return out, nil
}
