// Package cfg discovers basic blocks and builds the control-flow graph of
// a SPARC text segment — the "Analyse" stage of the paper's Figure 3. It
// understands SPARC delay slots: a control-transfer instruction and its
// delay-slot instruction belong to the same block, and the block boundary
// falls after the delay slot.
package cfg

import (
	"fmt"
	"sort"

	"eel/internal/sparc"
)

// Block is a basic block: a maximal straight-line instruction sequence
// with one entry (the first instruction) and one exit (the last).
type Block struct {
	Index int
	// Start and End delimit the half-open instruction index range
	// [Start, End) in the decoded text.
	Start, End int
	// Insts aliases the decoded text segment for the block's range.
	Insts []sparc.Inst

	Succs []*Block
	Preds []*Block

	// HasCTI reports whether the block ends with a control-transfer
	// instruction (at End-2) and its delay slot (at End-1).
	HasCTI bool
	// FallsThrough reports whether control may continue into the next
	// block in layout order.
	FallsThrough bool
	// LoopDepth is the number of natural-loop back edges enclosing the
	// block (approximate, from DFS back-edge detection).
	LoopDepth int
}

// Body returns the schedulable portion of the block: everything except a
// terminating CTI and its delay slot.
func (b *Block) Body() []sparc.Inst {
	if b.HasCTI {
		return b.Insts[:len(b.Insts)-2]
	}
	return b.Insts
}

// CTI returns the terminating control-transfer instruction and its delay
// slot instruction; ok is false if the block has none.
func (b *Block) CTI() (cti, delay sparc.Inst, ok bool) {
	if !b.HasCTI {
		return sparc.Inst{}, sparc.Inst{}, false
	}
	return b.Insts[len(b.Insts)-2], b.Insts[len(b.Insts)-1], true
}

// Size returns the number of instructions in the block.
func (b *Block) Size() int { return len(b.Insts) }

// Graph is the control-flow graph of a text segment.
type Graph struct {
	Blocks []*Block
	Insts  []sparc.Inst
}

// Build constructs the CFG of a decoded text segment. Branch displacements
// are instruction-index relative (as decoded). It rejects malformed
// layouts: CTIs in delay slots, branches out of range, and a CTI without a
// delay slot at the end of text.
func Build(insts []sparc.Inst) (*Graph, error) {
	n := len(insts)
	if n == 0 {
		return &Graph{}, nil
	}

	// Validate delay slots and find branch targets.
	leader := make([]bool, n)
	leader[0] = true
	for i := 0; i < n; i++ {
		inst := insts[i]
		if !inst.IsCTI() {
			continue
		}
		if i+1 >= n {
			return nil, fmt.Errorf("cfg: CTI at instruction %d has no delay slot", i)
		}
		if insts[i+1].IsCTI() {
			return nil, fmt.Errorf("cfg: CTI in delay slot at instruction %d", i+1)
		}
		if i+2 < n {
			leader[i+2] = true
		}
		switch inst.Op {
		case sparc.OpBicc, sparc.OpFBfcc:
			t := i + int(inst.Disp)
			if t < 0 || t >= n {
				return nil, fmt.Errorf("cfg: branch at instruction %d targets %d, outside text", i, t)
			}
			leader[t] = true
		case sparc.OpCall:
			// A call target is a procedure entry: it starts a block (so
			// the editor can retarget the call after layout) but adds no
			// intra-procedural edge.
			t := i + int(inst.Disp)
			if t < 0 || t >= n {
				return nil, fmt.Errorf("cfg: call at instruction %d targets %d, outside text", i, t)
			}
			leader[t] = true
		}
		// jmpl transfers indirectly; it ends the block with no static
		// target.
	}

	// A branch may not target a delay slot: the slot belongs to its CTI's
	// block.
	for i := 0; i < n; i++ {
		if insts[i].IsCTI() && i+1 < n && leader[i+1] {
			return nil, fmt.Errorf("cfg: branch targets the delay slot at instruction %d", i+1)
		}
	}

	// Find the block boundaries, then carve every block from one array.
	var ends []int
	start := 0
	flush := func(end int) {
		if end > start {
			ends = append(ends, end)
			start = end
		}
	}
	for i := 0; i < n; i++ {
		if i > start && leader[i] {
			flush(i)
		}
		if insts[i].IsCTI() {
			flush(i + 2)
			i++ // skip the delay slot; it belongs to the flushed block
		} else if insts[i].Op == sparc.OpTicc {
			// A trap ends its block (no delay slot). An unconditional
			// trap never falls through.
			flush(i + 1)
		}
	}
	flush(n)

	g := &Graph{Blocks: make([]*Block, len(ends)), Insts: insts}
	slab := make([]Block, len(ends))
	start = 0
	for bi, end := range ends {
		b := &slab[bi]
		*b = Block{Index: bi, Start: start, End: end, Insts: insts[start:end]}
		last := end - 2
		b.HasCTI = last >= start && insts[last].IsCTI()
		g.Blocks[bi] = b
		start = end
	}

	// Wire edges. A block has at most two successors (the branch target,
	// then the fallthrough), so one array backs every successor list.
	succs := make([]*Block, 2*len(g.Blocks))
	for bi, b := range g.Blocks {
		b.Succs = succs[2*bi : 2*bi : 2*bi+2]
	}
	for bi, b := range g.Blocks {
		if !b.HasCTI {
			last := b.Insts[len(b.Insts)-1]
			if last.Op == sparc.OpTicc && last.Cond == sparc.CondA {
				// Unconditional trap: execution stops here.
				continue
			}
			// Fallthrough into the next block, if any.
			if bi+1 < len(g.Blocks) {
				b.FallsThrough = true
				b.Succs = append(b.Succs, g.Blocks[bi+1])
			}
			continue
		}
		cti, _, _ := b.CTI()
		switch cti.Op {
		case sparc.OpBicc, sparc.OpFBfcc:
			t := b.End - 2 + int(cti.Disp)
			ti := blockStarting(g.Blocks, t)
			if ti < 0 {
				return nil, fmt.Errorf("cfg: branch target %d is not a block leader", t)
			}
			b.Succs = append(b.Succs, g.Blocks[ti])
			if !cti.IsUncond() && cti.Cond != sparc.CondN {
				if bi+1 < len(g.Blocks) {
					b.FallsThrough = true
					b.Succs = append(b.Succs, g.Blocks[bi+1])
				}
			}
		case sparc.OpCall:
			// The callee returns: control continues after the delay slot.
			if bi+1 < len(g.Blocks) {
				b.FallsThrough = true
				b.Succs = append(b.Succs, g.Blocks[bi+1])
			}
		case sparc.OpJmpl:
			// Indirect transfer (return or computed jump): no static
			// successors.
		}
	}
	// Predecessor lists are counted, carved from one array, and filled in
	// edge order.
	npred := make([]int, len(g.Blocks))
	edges := 0
	for _, b := range g.Blocks {
		for _, t := range b.Succs {
			npred[t.Index]++
			edges++
		}
	}
	preds := make([]*Block, edges)
	for bi, b := range g.Blocks {
		b.Preds, preds = preds[:0:npred[bi]], preds[npred[bi]:]
	}
	for _, b := range g.Blocks {
		for _, t := range b.Succs {
			t.Preds = append(t.Preds, b)
		}
	}

	g.computeLoopDepth()
	return g, nil
}

// blockStarting returns the index of the block starting at instruction
// i, or -1 if none does. blocks are in layout order.
func blockStarting(blocks []*Block, i int) int {
	bi := sort.Search(len(blocks), func(k int) bool { return blocks[k].Start >= i })
	if bi < len(blocks) && blocks[bi].Start == i {
		return bi
	}
	return -1
}

// computeLoopDepth finds DFS back edges from the entry block and marks
// every block in each natural loop with its nesting count.
func (g *Graph) computeLoopDepth() {
	if len(g.Blocks) == 0 {
		return
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(g.Blocks))
	type backEdge struct{ from, to *Block }
	var backs []backEdge

	var dfs func(b *Block)
	dfs = func(b *Block) {
		color[b.Index] = gray
		for _, s := range b.Succs {
			switch color[s.Index] {
			case white:
				dfs(s)
			case gray:
				backs = append(backs, backEdge{b, s})
			}
		}
		color[b.Index] = black
	}
	dfs(g.Blocks[0])

	// For each back edge from->to, the natural loop is to plus all blocks
	// that reach from without passing through to.
	for _, be := range backs {
		inLoop := map[int]bool{be.to.Index: true}
		stack := []*Block{be.from}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if inLoop[b.Index] {
				continue
			}
			inLoop[b.Index] = true
			for _, p := range b.Preds {
				stack = append(stack, p)
			}
		}
		for idx := range inLoop {
			g.Blocks[idx].LoopDepth++
		}
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
