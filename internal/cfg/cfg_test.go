package cfg

import (
	"testing"

	"eel/internal/sparc"
)

func assemble(t *testing.T, src string) []sparc.Inst {
	t.Helper()
	insts, err := sparc.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return insts
}

const loopSrc = `
	mov 0, %g1
	set 10, %g2
loop:
	add %g1, 1, %g1
	cmp %g1, %g2
	bne loop
	nop
	ta 0
`

func TestBuildLoop(t *testing.T) {
	g, err := Build(assemble(t, loopSrc))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(g.Blocks))
	}
	b0, b1, b2 := g.Blocks[0], g.Blocks[1], g.Blocks[2]
	if b0.Size() != 2 || b0.HasCTI || !b0.FallsThrough {
		t.Errorf("entry block wrong: %+v", b0)
	}
	if b1.Size() != 4 || !b1.HasCTI {
		t.Errorf("loop block wrong: size=%d hasCTI=%v", b1.Size(), b1.HasCTI)
	}
	cti, delay, ok := b1.CTI()
	if !ok || cti.Op != sparc.OpBicc || !delay.IsNop() {
		t.Errorf("loop terminator wrong: %v / %v", cti, delay)
	}
	if len(b1.Body()) != 2 {
		t.Errorf("loop body = %d instructions, want 2", len(b1.Body()))
	}
	// Edges: b0->b1; b1->b1 (taken), b1->b2 (fallthrough).
	if len(b0.Succs) != 1 || b0.Succs[0] != b1 {
		t.Errorf("b0 succs wrong")
	}
	if len(b1.Succs) != 2 {
		t.Fatalf("b1 has %d succs, want 2", len(b1.Succs))
	}
	if b1.Succs[0] != b1 || b1.Succs[1] != b2 {
		t.Errorf("b1 succs wrong: %v", b1.Succs)
	}
	if len(b1.Preds) != 2 {
		t.Errorf("b1 preds = %d, want 2", len(b1.Preds))
	}
	// Loop depth: b1 is in a loop, b0 and b2 are not.
	if b1.LoopDepth != 1 || b0.LoopDepth != 0 || b2.LoopDepth != 0 {
		t.Errorf("loop depths: %d %d %d", b0.LoopDepth, b1.LoopDepth, b2.LoopDepth)
	}
}

func TestBuildDiamond(t *testing.T) {
	src := `
	cmp %o0, 0
	ble else
	nop
	mov 1, %o1
	ba join
	nop
else:
	mov 2, %o1
join:
	retl
	nop
`
	g, err := Build(assemble(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(g.Blocks))
	}
	head, then, els, join := g.Blocks[0], g.Blocks[1], g.Blocks[2], g.Blocks[3]
	if len(head.Succs) != 2 {
		t.Fatalf("head succs = %d", len(head.Succs))
	}
	if head.Succs[0] != els || head.Succs[1] != then {
		t.Error("head edges wrong")
	}
	// then: ba join — unconditional, no fallthrough edge.
	if len(then.Succs) != 1 || then.Succs[0] != join || then.FallsThrough {
		t.Errorf("then edges wrong: %v fallsThrough=%v", then.Succs, then.FallsThrough)
	}
	if len(els.Succs) != 1 || els.Succs[0] != join {
		t.Error("else edges wrong")
	}
	// join ends with jmpl: no static successors.
	if len(join.Succs) != 0 {
		t.Errorf("join should have no successors: %v", join.Succs)
	}
	if len(join.Preds) != 2 {
		t.Errorf("join preds = %d, want 2", len(join.Preds))
	}
}

func TestCallFallsThrough(t *testing.T) {
	src := `
	mov 1, %o0
	call fn
	nop
	mov 2, %o1
	ta 0
fn:
	retl
	nop
`
	g, err := Build(assemble(t, src))
	if err != nil {
		t.Fatal(err)
	}
	var callBlock *Block
	for _, b := range g.Blocks {
		if cti, _, ok := b.CTI(); ok && cti.Op == sparc.OpCall {
			callBlock = b
		}
	}
	if callBlock == nil {
		t.Fatal("no call block found")
	}
	if !callBlock.FallsThrough || len(callBlock.Succs) != 1 {
		t.Errorf("call block should fall through to the return point: %+v", callBlock)
	}
}

func TestBuildErrors(t *testing.T) {
	// CTI at end of text without delay slot.
	insts := []sparc.Inst{sparc.NewBranch(sparc.CondA, 0)}
	if _, err := Build(insts); err == nil {
		t.Error("CTI without delay slot accepted")
	}
	// CTI in delay slot.
	insts = []sparc.Inst{
		sparc.NewBranch(sparc.CondA, 2),
		sparc.NewBranch(sparc.CondA, 1),
		sparc.NewNop(),
	}
	if _, err := Build(insts); err == nil {
		t.Error("CTI in delay slot accepted")
	}
	// Branch out of range.
	insts = []sparc.Inst{sparc.NewBranch(sparc.CondA, 100), sparc.NewNop()}
	if _, err := Build(insts); err == nil {
		t.Error("out-of-range branch accepted")
	}
	// Branch into a delay slot.
	insts = []sparc.Inst{
		sparc.NewNop(),
		sparc.NewBranch(sparc.CondNE, 1), // targets the delay slot below
		sparc.NewNop(),                   // delay slot of the branch above
		sparc.NewTrap(0),
	}
	insts[1].Disp = 1 // targets index 2, the delay slot
	if _, err := Build(insts); err == nil {
		t.Error("branch into delay slot accepted")
	}
}

func TestEmptyAndTrivial(t *testing.T) {
	g, err := Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 0 {
		t.Error("empty text should have no blocks")
	}
	g, err = Build([]sparc.Inst{sparc.NewNop(), sparc.NewTrap(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 1 || g.Blocks[0].Size() != 2 {
		t.Errorf("trivial text: %d blocks", len(g.Blocks))
	}
}

func TestBlockAtAndAvgSize(t *testing.T) {
	g, err := Build(assemble(t, loopSrc))
	if err != nil {
		t.Fatal(err)
	}
	b, ok := g.BlockAt(3)
	if !ok || b.Index != 1 {
		t.Errorf("BlockAt(3) = %v, %v", b, ok)
	}
	if _, ok := g.BlockAt(100); ok {
		t.Error("BlockAt(100) should fail")
	}
	if avg := g.StaticAvgBlockSize(); avg < 2 || avg > 4 {
		t.Errorf("StaticAvgBlockSize = %f", avg)
	}
	var empty Graph
	if empty.StaticAvgBlockSize() != 0 {
		t.Error("empty graph avg size should be 0")
	}
}

func TestNestedLoopDepth(t *testing.T) {
	src := `
outer:
	mov 0, %g2
inner:
	add %g2, 1, %g2
	cmp %g2, 10
	bne inner
	nop
	add %g1, 1, %g1
	cmp %g1, 10
	bne outer
	nop
	ta 0
`
	g, err := Build(assemble(t, src))
	if err != nil {
		t.Fatal(err)
	}
	var innerDepth, outerTailDepth int
	for _, b := range g.Blocks {
		if cti, _, ok := b.CTI(); ok && cti.Op == sparc.OpBicc {
			if cti.Disp < 0 {
				continue
			}
		}
		_ = b
	}
	// Block 1 is the inner loop body; block 2 the outer tail.
	innerDepth = g.Blocks[1].LoopDepth
	outerTailDepth = g.Blocks[2].LoopDepth
	if innerDepth != 2 {
		t.Errorf("inner loop depth = %d, want 2", innerDepth)
	}
	if outerTailDepth != 1 {
		t.Errorf("outer tail depth = %d, want 1", outerTailDepth)
	}
}

// BlockAt returns the block containing instruction index i.
func (g *Graph) BlockAt(i int) (*Block, bool) {
	for _, b := range g.Blocks {
		if i >= b.Start && i < b.End {
			return b, true
		}
	}
	return nil, false
}

// StaticAvgBlockSize returns the mean block size in instructions.
func (g *Graph) StaticAvgBlockSize() float64 {
	if len(g.Blocks) == 0 {
		return 0
	}
	total := 0
	for _, b := range g.Blocks {
		total += b.Size()
	}
	return float64(total) / float64(len(g.Blocks))
}
