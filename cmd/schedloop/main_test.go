package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeGolden runs the CI smoke configuration and byte-compares its
// JSON report with the committed golden.
func TestSmokeGolden(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-machines", "ultrasparc", "-benchmarks", "101.tomcatv,102.swim",
		"-insts", "50000", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../testdata/ci/schedloop_smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("report differs from testdata/ci/schedloop_smoke.json:\n%s", out.String())
	}
}

// TestDumpAcrossWorkers checks that the pipelined images do not depend
// on the scheduling worker count.
func TestDumpAcrossWorkers(t *testing.T) {
	var dirs [2]string
	for i, workers := range []string{"1", "4"} {
		dirs[i] = t.TempDir()
		err := run([]string{"-machines", "ultrasparc", "-benchmarks", "102.swim,146.wave5",
			"-workers", workers, "-dump", dirs[i]}, &bytes.Buffer{})
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
	}
	for _, name := range []string{"ultrasparc_102.swim.exe", "ultrasparc_146.wave5.exe"} {
		a, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between -workers 1 and 4", name)
		}
	}
}

func TestUnknownBenchmark(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-machines", "ultrasparc", "-benchmarks", "130.li,999.nothere",
		"-insts", "50000"}, &out)
	if err == nil || !strings.Contains(err.Error(), "999.nothere") {
		t.Fatalf("err = %v, want one naming 999.nothere", err)
	}
}
