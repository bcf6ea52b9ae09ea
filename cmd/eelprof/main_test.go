package main

import (
	"reflect"
	"testing"
)

// TestHottestBreaksTiesByBlock: equal counts list in block order, so the
// report is the same on every run whatever the map's iteration order.
func TestHottestBreaksTiesByBlock(t *testing.T) {
	counts := map[int]uint64{7: 70, 3: 70, 12: 5, 0: 900, 9: 70, 4: 70, 1: 0}
	want := []blockCount{{0, 900}, {3, 70}, {4, 70}, {7, 70}, {9, 70}}
	for run := 0; run < 20; run++ {
		if got := hottest(counts, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("hottest(counts, 5) = %v, want %v", got, want)
		}
	}
	all := hottest(counts, 10)
	if len(all) != len(counts) {
		t.Fatalf("hottest kept %d of %d blocks with room for 10", len(all), len(counts))
	}
	if last := all[len(all)-1]; last != (blockCount{1, 0}) {
		t.Errorf("coldest block = %v, want {1 0}", last)
	}
	if got := hottest(nil, 10); len(got) != 0 {
		t.Errorf("hottest(nil) = %v, want none", got)
	}
}
