package qpt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"eel/internal/cfg"
	"eel/internal/eel"
	"eel/internal/exe"
	"eel/internal/sim"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

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

const diamondLoop = `
	mov 0, %g1
	set 50, %g2
loop:
	and %g1, 1, %g3
	cmp %g3, 0
	be even
	nop
	add %g1, 1, %g1
	ba next
	nop
even:
	add %g1, 1, %g1
next:
	cmp %g1, %g2
	bne loop
	nop
	ta 0
`

// trueCounts runs the ORIGINAL program with an observer that counts block
// entries, giving ground truth for the profile.
func trueCounts(t *testing.T, x *exe.Exe, ed *eel.Editor) map[int]uint64 {
	t.Helper()
	in, err := sim.NewInterp(x)
	if err != nil {
		t.Fatal(err)
	}
	g := ed.Graph()
	startOf := make(map[int]int) // inst index -> block index
	for _, b := range g.Blocks {
		startOf[b.Start] = b.Index
	}
	counts := make(map[int]uint64)
	_, err = in.Run(1e7, func(idx int, inst *sparc.Inst) {
		if bi, ok := startOf[idx]; ok {
			counts[bi]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

func profileAndCompare(t *testing.T, src string, schedule bool, disableOpt bool) {
	t.Helper()
	x := buildExe(t, src)
	ed, err := eel.Open(x)
	if err != nil {
		t.Fatal(err)
	}
	want := trueCounts(t, x, ed)

	prof := &SlowProfiler{DisablePlacementOpt: disableOpt}
	opts := eel.Options{}
	if schedule {
		opts.Machine = spawn.MustLoad(spawn.UltraSPARC)
		opts.Schedule = true
	}
	out, err := ed.Edit(prof, opts)
	if err != nil {
		t.Fatal(err)
	}

	in, err := sim.NewInterp(out)
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Run(1e7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("instrumented program did not halt")
	}

	got, err := prof.Counts(in.Mem().Read32)
	if err != nil {
		t.Fatal(err)
	}
	for bi, w := range want {
		if got[bi] != w {
			t.Errorf("block %d: profiled %d, true %d (schedule=%v opt=%v)",
				bi, got[bi], w, schedule, !disableOpt)
		}
	}
	// A block never entered must profile zero.
	for bi, g := range got {
		if want[bi] == 0 && g != 0 {
			t.Errorf("block %d: profiled %d but never executed", bi, g)
		}
	}
}

func TestProfileCountsMatchGroundTruth(t *testing.T) {
	profileAndCompare(t, diamondLoop, false, false)
}

func TestProfileCountsWithScheduling(t *testing.T) {
	profileAndCompare(t, diamondLoop, true, false)
}

func TestProfileCountsNoPlacementOpt(t *testing.T) {
	profileAndCompare(t, diamondLoop, false, true)
}

func TestPlacementOptimizationSkipsBlocks(t *testing.T) {
	// A call block falls through to its return point: the return-point
	// block has a single single-exit predecessor, so it needs no counter.
	src := `
	mov 1, %g1
	call f
	nop
	mov 2, %g2
	ta 0
f:
	retl
	nop
`
	x := buildExe(t, src)
	ed, err := eel.Open(x)
	if err != nil {
		t.Fatal(err)
	}
	full := &SlowProfiler{DisablePlacementOpt: true}
	if err := full.Setup(ed); err != nil {
		t.Fatal(err)
	}
	opt := &SlowProfiler{}
	ed2, err := eel.Open(buildExe(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Setup(ed2); err != nil {
		t.Fatal(err)
	}
	if opt.NumCounters() >= full.NumCounters() {
		t.Errorf("placement optimization saved nothing: %d vs %d",
			opt.NumCounters(), full.NumCounters())
	}
}

func TestInstrumentSequenceShape(t *testing.T) {
	x := buildExe(t, diamondLoop)
	ed, err := eel.Open(x)
	if err != nil {
		t.Fatal(err)
	}
	prof := &SlowProfiler{}
	if err := prof.Setup(ed); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, b := range ed.Graph().Blocks {
		seq := prof.Instrument(b)
		if seq == nil {
			continue
		}
		found = true
		if len(seq) != 4 {
			t.Fatalf("sequence has %d instructions, want 4", len(seq))
		}
		if seq[0].Op != sparc.OpSethi || seq[1].Op != sparc.OpLd ||
			seq[2].Op != sparc.OpAdd || seq[3].Op != sparc.OpSt {
			t.Errorf("sequence shape wrong: %v", seq)
		}
		for i, inst := range seq {
			if !inst.Instrumented {
				t.Errorf("instruction %d not marked Instrumented", i)
			}
		}
		// The load and store must address the same counter.
		if seq[1].Imm != seq[3].Imm || seq[1].Rs1 != seq[3].Rs1 {
			t.Error("load/store address mismatch")
		}
	}
	if !found {
		t.Fatal("no block instrumented")
	}
	if prof.CounterBase() < ed.Exe().DataBase {
		t.Error("counters below the data segment")
	}
}

func TestCountsBeforeSetupFails(t *testing.T) {
	p := &SlowProfiler{}
	if _, err := p.Counts(func(uint32) uint32 { return 0 }); err == nil {
		t.Error("Counts before Setup succeeded")
	}
}

func TestReadCounterData(t *testing.T) {
	data := []byte{0, 0, 0, 5, 0, 0, 0, 9}
	vals, err := ReadCounterData(data, 0x1000, 0x1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 5 || vals[1] != 9 {
		t.Errorf("vals = %v", vals)
	}
	if _, err := ReadCounterData(data, 0x1000, 0x1004, 2); err == nil {
		t.Error("out-of-range counters accepted")
	}
}

// TestSelfLoopGetsCounter: a block that is its own predecessor must keep
// its counter (the donor rules exclude self edges).
func TestSelfLoopGetsCounter(t *testing.T) {
	src := `
	mov 0, %g1
loop:
	add %g1, 1, %g1
	cmp %g1, 10
	bne loop
	nop
	ta 0
`
	x := buildExe(t, src)
	ed, err := eel.Open(x)
	if err != nil {
		t.Fatal(err)
	}
	prof := &SlowProfiler{}
	if err := prof.Setup(ed); err != nil {
		t.Fatal(err)
	}
	var loopBlock int = -1
	for _, b := range ed.Graph().Blocks {
		for _, s := range b.Succs {
			if s == b {
				loopBlock = b.Index
			}
		}
	}
	if loopBlock < 0 {
		t.Fatal("no self-loop block found")
	}
	if !prof.Instrumented(loopBlock) {
		t.Error("self-loop block lost its counter")
	}
}

// refPlacement is the map-based counter placement SlowProfiler used
// before placement became linear, kept as the oracle that the linear
// version must match block for block.
type refPlacement struct {
	DisablePlacementOpt bool

	counterOf   map[int]int // block index -> counter slot
	derivedFrom map[int]int // skipped block -> donor block
	graph       *cfg.Graph
	numCounters int
}

// referenceSetup is the old Setup's placement, verbatim but for the
// data-segment allocation, which both implementations share.
func (p *refPlacement) referenceSetup(g *cfg.Graph) {
	p.graph = g
	p.counterOf = make(map[int]int)
	p.derivedFrom = make(map[int]int)

	instrumented := make([]bool, len(g.Blocks))
	for i := range instrumented {
		instrumented[i] = true
	}
	if !p.DisablePlacementOpt {
		for _, b := range g.Blocks {
			// Edges are deduplicated: a conditional branch whose target is
			// its own fallthrough contributes one logical edge.
			preds := uniqueBlocks(b.Preds)
			// Single instrumented single-exit predecessor: the
			// predecessor's counter counts this block too.
			if len(preds) == 1 {
				pred := preds[0]
				if pred != b && len(uniqueBlocks(pred.Succs)) == 1 && instrumented[pred.Index] {
					instrumented[b.Index] = false
					p.derivedFrom[b.Index] = pred.Index
					continue
				}
			}
			// Single instrumented single-entry successor.
			succs := uniqueBlocks(b.Succs)
			if len(succs) == 1 {
				succ := succs[0]
				if succ != b && len(uniqueBlocks(succ.Preds)) == 1 && instrumented[succ.Index] {
					instrumented[b.Index] = false
					p.derivedFrom[b.Index] = succ.Index
				}
			}
		}
	}

	// Break donor cycles (possible in unreachable block pairs): any block
	// whose donor chain never reaches an instrumented block is
	// re-instrumented.
	for _, b := range g.Blocks {
		idx := b.Index
		steps := 0
		for !instrumented[idx] {
			next, ok := p.derivedFrom[idx]
			if !ok || steps > len(g.Blocks) {
				instrumented[b.Index] = true
				delete(p.derivedFrom, b.Index)
				break
			}
			idx = next
			steps++
		}
	}

	for _, b := range g.Blocks {
		if instrumented[b.Index] {
			p.counterOf[b.Index] = p.numCounters
			p.numCounters++
		}
	}
}

// counts is the old Counts: skipped blocks resolve through their donor
// block, following chains.
func (p *refPlacement) counts(counterBase uint32, read32 func(addr uint32) uint32) (map[int]uint64, error) {
	out := make(map[int]uint64, len(p.graph.Blocks))
	for _, b := range p.graph.Blocks {
		idx := b.Index
		seen := 0
		for {
			if slot, ok := p.counterOf[idx]; ok {
				out[b.Index] = uint64(read32(counterBase + uint32(4*slot)))
				break
			}
			donor, ok := p.derivedFrom[idx]
			if !ok {
				return nil, fmt.Errorf("qpt: block %d has no counter and no donor", idx)
			}
			idx = donor
			if seen++; seen > len(p.graph.Blocks) {
				return nil, fmt.Errorf("qpt: donor cycle at block %d", b.Index)
			}
		}
	}
	return out, nil
}

// uniqueBlocks deduplicates an edge list in place-order.
func uniqueBlocks(bs []*cfg.Block) []*cfg.Block {
	out := bs[:0:0]
	for _, b := range bs {
		dup := false
		for _, o := range out {
			if o == b {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, b)
		}
	}
	return out
}

// placementsAgree requires the linear placement of g to match the
// reference: the same instrumented blocks, the same counter slots, and
// the same Counts for counter memory where every word differs.
func placementsAgree(t *testing.T, g *cfg.Graph, disableOpt bool) *SlowProfiler {
	t.Helper()
	ref := &refPlacement{DisablePlacementOpt: disableOpt}
	ref.referenceSetup(g)
	p := &SlowProfiler{DisablePlacementOpt: disableOpt}
	p.place(g)
	if p.NumCounters() != ref.numCounters {
		t.Fatalf("%d counters, reference %d", p.NumCounters(), ref.numCounters)
	}
	for _, b := range g.Blocks {
		slot, ok := ref.counterOf[b.Index]
		if p.Instrumented(b.Index) != ok {
			t.Fatalf("block %d: instrumented %v, reference %v", b.Index, p.Instrumented(b.Index), ok)
		}
		if ok && int(p.slot[b.Index]) != slot {
			t.Fatalf("block %d: slot %d, reference %d", b.Index, p.slot[b.Index], slot)
		}
	}
	read32 := func(addr uint32) uint32 { return addr*2654435761 + 7 }
	got, err := p.Counts(read32)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.counts(0, read32)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d counts, reference %d", len(got), len(want))
	}
	for b, w := range want {
		if got[b] != w {
			t.Fatalf("block %d: count %d, reference %d", b, got[b], w)
		}
	}
	return p
}

// newGraph returns a graph of n edgeless blocks.
func newGraph(n int) *cfg.Graph {
	g := &cfg.Graph{Blocks: make([]*cfg.Block, n)}
	for i := range g.Blocks {
		g.Blocks[i] = &cfg.Block{Index: i}
	}
	return g
}

func link(g *cfg.Graph, from, to int) {
	f, t := g.Blocks[from], g.Blocks[to]
	f.Succs = append(f.Succs, t)
	t.Preds = append(t.Preds, f)
}

// randomGraph builds a control-flow graph with the shapes that stress
// counter placement: random edges (self-loops and duplicate edges
// included), a SESE chain, and unreachable 2-cycles.
func randomGraph(rng *rand.Rand, n, chain, cycles int) *cfg.Graph {
	g := newGraph(n + chain + 2*cycles)
	for e := rng.Intn(2 * n); e > 0; e-- {
		from, to := rng.Intn(n), rng.Intn(n)
		link(g, from, to)
		if rng.Intn(4) == 0 {
			link(g, from, to)
		}
	}
	// The chain hangs off a random block and may rejoin the body.
	if chain > 0 {
		link(g, rng.Intn(n), n)
		for i := n; i < n+chain-1; i++ {
			link(g, i, i+1)
		}
		if rng.Intn(2) == 0 {
			link(g, n+chain-1, rng.Intn(n))
		}
	}
	for c := 0; c < cycles; c++ {
		a := n + chain + 2*c
		link(g, a, a+1)
		link(g, a+1, a)
	}
	return g
}

// FuzzCounterPlacement differentially checks the linear placement
// against the reference on random graphs, with the optimisation on and
// off.
func FuzzCounterPlacement(f *testing.F) {
	f.Add(int64(1), 8, 0, 1)
	f.Add(int64(2), 1, 40, 0)
	f.Add(int64(3), 30, 5, 3)
	f.Add(int64(4), 64, 200, 2)
	f.Fuzz(func(t *testing.T, seed int64, n, chain, cycles int) {
		if n < 1 || n > 256 || chain < 0 || chain > 512 || cycles < 0 || cycles > 8 {
			return
		}
		g := randomGraph(rand.New(rand.NewSource(seed)), n, chain, cycles)
		placementsAgree(t, g, false)
		placementsAgree(t, g, true)
	})
}

// TestLongSESEChain: on a chain every block defers to its successor, so
// the last block's one counter counts them all. The old walk was
// quadratic here.
func TestLongSESEChain(t *testing.T) {
	const n = 100_000
	g := newGraph(n)
	for i := 0; i+1 < n; i++ {
		link(g, i, i+1)
	}
	p := &SlowProfiler{}
	p.place(g)
	if p.NumCounters() != 1 || !p.Instrumented(n-1) {
		t.Fatalf("%d counters (last block instrumented: %v), want only the last block's",
			p.NumCounters(), p.Instrumented(n-1))
	}
	counts, err := p.Counts(func(uint32) uint32 { return 42 })
	if err != nil {
		t.Fatal(err)
	}
	for b, c := range counts {
		if c != 42 {
			t.Fatalf("block %d: count %d, want the shared counter's 42", b, c)
		}
	}
	// A shorter chain against the reference, which is quadratic.
	g = newGraph(2000)
	for i := 0; i+1 < 2000; i++ {
		link(g, i, i+1)
	}
	placementsAgree(t, g, false)
}

// TestResolveDonorsBreaksCycles: placement itself never makes a donor
// cycle, so the guard is driven directly. A block on or leading into a
// cycle gets its counter back in block order, as in the old walk.
func TestResolveDonorsBreaksCycles(t *testing.T) {
	for _, tc := range []struct {
		name  string
		donor []int32 // -1: the block keeps its counter
		want  []int32 // the root each block resolves to
	}{
		{"2-cycle", []int32{1, 0}, []int32{0, 0}},
		{"tail into cycle", []int32{1, 2, 3, 2}, []int32{0, 1, 2, 2}},
		{"cycle then tail", []int32{1, 0, 0, 2, -1}, []int32{0, 0, 0, 0, 4}},
		{"chain to counter", []int32{1, 2, 3, -1}, []int32{3, 3, 3, 3}},
	} {
		root := make([]int32, len(tc.donor))
		for b, d := range tc.donor {
			root[b] = -1
			if d < 0 {
				root[b] = int32(b)
			}
		}
		resolveDonors(root, append([]int32(nil), tc.donor...))
		for b := range root {
			if root[b] != tc.want[b] {
				t.Errorf("%s: block %d resolves to %d, want %d", tc.name, b, root[b], tc.want[b])
			}
		}
		if got, want := root, walkRoots(tc.donor); !slices.Equal(got, want) {
			t.Errorf("%s: roots %v, step-bounded walk %v", tc.name, got, want)
		}
	}
}

// TestResolveDonorsMatchesWalk compares the memoised walk with the old
// step-bounded one on random donor functions, cycles and all.
func TestResolveDonorsMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(40)
		donor := make([]int32, n)
		root := make([]int32, n)
		for b := range donor {
			donor[b], root[b] = int32(rng.Intn(n)), -1
			if rng.Intn(3) == 0 {
				donor[b], root[b] = -1, int32(b)
			}
		}
		want := walkRoots(donor)
		resolveDonors(root, append([]int32(nil), donor...))
		if !slices.Equal(root, want) {
			t.Fatalf("donors %v: roots %v, step-bounded walk %v", donor, root, want)
		}
	}
}

// walkRoots runs the old cycle-breaking walk over a donor function (-1:
// the block keeps its counter) and reports each block's root.
func walkRoots(donor []int32) []int32 {
	instrumented := make([]bool, len(donor))
	derivedFrom := make(map[int]int)
	for b, d := range donor {
		if d < 0 {
			instrumented[b] = true
		} else {
			derivedFrom[b] = int(d)
		}
	}
	for b := range donor {
		idx := b
		steps := 0
		for !instrumented[idx] {
			next, ok := derivedFrom[idx]
			if !ok || steps > len(donor) {
				instrumented[b] = true
				delete(derivedFrom, b)
				break
			}
			idx = next
			steps++
		}
	}
	roots := make([]int32, len(donor))
	for b := range donor {
		idx := b
		for !instrumented[idx] {
			idx = derivedFrom[idx]
		}
		roots[b] = int32(idx)
	}
	return roots
}
