package pipe

import "eel/internal/sparc"

// Checkpoint is a saved copy of a FastState's placement state — clock,
// fetch floor, unit-usage ring and register horizons — so a search can issue
// speculatively and rewind. The exact optimal scheduler (core/optimal.go)
// keeps one Checkpoint per DFS depth and restores on backtrack, reusing
// the prepared probes it already resolved; that is what makes a
// branch-and-bound node one memcpy plus one placement instead of a
// replay of the whole prefix.
//
// A Checkpoint only captures placement state: the resolution memo and
// any attached attribution sink are left alone (probes never touch them,
// and a search never attributes). Restore must be given a state of the
// same model shape (same unit count and horizon) as the Save; in
// practice that means the same FastState the Checkpoint came from.
type Checkpoint struct {
	clock   int64
	floor   int64
	ring    []int32
	writeCy [sparc.NumRegs]int64
	readCy  [sparc.NumRegs]int64
}

// Save copies s's placement state into c, reusing c's storage.
func (s *FastState) Save(c *Checkpoint) {
	c.clock, c.floor = s.clock, s.floor
	if cap(c.ring) < len(s.ring) {
		c.ring = make([]int32, len(s.ring))
	}
	c.ring = c.ring[:len(s.ring)]
	copy(c.ring, s.ring)
	c.writeCy = s.writeCy
	c.readCy = s.readCy
}

// Restore rewinds s to the state captured by a prior Save on the same
// FastState. It panics if the checkpoint's ring does not match s's
// (a checkpoint from a different model).
func (s *FastState) Restore(c *Checkpoint) {
	if len(c.ring) != len(s.ring) {
		panic("pipe: Restore with a checkpoint from a different model")
	}
	s.clock, s.floor = c.clock, c.floor
	copy(s.ring, c.ring)
	s.writeCy = c.writeCy
	s.readCy = c.readCy
}
