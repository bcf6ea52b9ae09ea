package core

import (
	"math/rand"
	"testing"

	"eel/internal/sparc"
	"eel/internal/spawn"
)

// TestBlockSoABuildZeroAllocSteadyState extends the zero-alloc
// commitment to the SoA build path itself: once a BlockSoA's arrays
// have grown to a block's size, rebuilding it — same block or smaller —
// must not allocate at all. This is the property that lets a warmed
// worker run block after block with a flat heap profile.
func TestBlockSoABuildZeroAllocSteadyState(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(31)), 16)
	var soa BlockSoA
	for _, b := range blocks { // grow to the workload's high-water mark
		if err := soa.Build(model, b, false); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if err := soa.Build(model, blocks[i%len(blocks)], false); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("warmed BlockSoA.Build allocates %.1f times per block, want 0", allocs)
	}
}

// TestInstArenaTake checks the arena's aliasing and validity contract:
// takes never overlap, filled slices stay intact across chunk turnover,
// and appending past a take's capacity reallocates privately instead of
// clobbering the arena.
func TestInstArenaTake(t *testing.T) {
	var a instArena
	first := a.take(4)
	for i := 0; i < 4; i++ {
		first = append(first, sparc.Inst{Imm: int32(i)})
	}
	second := a.take(4)
	for i := 0; i < 4; i++ {
		second = append(second, sparc.Inst{Imm: int32(100 + i)})
	}
	// Overflowing the first take must not touch the second's storage.
	first = append(first, sparc.Inst{Imm: 999})
	for i := 0; i < 4; i++ {
		if first[i].Imm != int32(i) || second[i].Imm != int32(100+i) {
			t.Fatalf("takes alias: first=%v second=%v", first, second)
		}
	}
	// Survive a chunk turnover: earlier slices must stay valid.
	for i := 0; i < 8; i++ {
		a.take(arenaChunk / 2)
	}
	for i := 0; i < 4; i++ {
		if second[i].Imm != int32(100+i) {
			t.Fatalf("slice corrupted by chunk turnover at %d: %v", i, second[i].Imm)
		}
	}
	// An oversized take gets its own chunk and full capacity.
	big := a.take(arenaChunk * 2)
	if cap(big) < arenaChunk*2 || len(big) != 0 {
		t.Fatalf("oversized take: len=%d cap=%d", len(big), cap(big))
	}
}
