package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestSmokeGolden runs the CI smoke configuration and byte-compares its
// JSON report with the committed golden.
func TestSmokeGolden(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-machines", "ultrasparc", "-benchmarks", "130.li,102.swim",
		"-insts", "20000", "-budget", "20000", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../testdata/ci/schedgap_smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("report differs from testdata/ci/schedgap_smoke.json:\n%s", out.String())
	}
}

func TestUnknownBenchmark(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-machines", "ultrasparc", "-benchmarks", "130.li,999.nothere",
		"-insts", "20000"}, &out)
	if err == nil || !strings.Contains(err.Error(), "999.nothere") {
		t.Fatalf("err = %v, want one naming 999.nothere", err)
	}
}
