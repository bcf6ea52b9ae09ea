package pipe

import "eel/internal/sparc"

// Test-only exports: attr.go's recording methods are unexported because
// only the oracles call them, but the accumulator tests live in the
// external pipe_test package alongside the differential harness. The
// MustIssue helpers serve tests on both sides of the package boundary.

// RecordDataForTest records one data-hazard stall cycle.
func (a *StallAttr) RecordDataForTest(k HazardKind, r sparc.Reg) { a.data(k, r) }

// RecordStructuralForTest records one structural stall cycle.
func (a *StallAttr) RecordStructuralForTest(unit int) { a.structural(unit) }

// MustIssue is Issue for instructions known to be schedulable; it panics
// on model lookup failure.
func (s *State) MustIssue(inst sparc.Inst) (stalls int, issueCycle int64) {
	st, issue, err := s.Issue(inst)
	if err != nil {
		panic(err)
	}
	return st, issue
}

// MustIssue is Issue for instructions known to be schedulable; it panics
// on model lookup failure.
func (s *FastState) MustIssue(inst sparc.Inst) (stalls int, issueCycle int64) {
	st, issue, err := s.Issue(inst)
	if err != nil {
		panic(err)
	}
	return st, issue
}
