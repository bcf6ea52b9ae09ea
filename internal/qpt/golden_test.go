package qpt

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eel/internal/eel"
	"eel/internal/exe"
	"eel/internal/spawn"
	"eel/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/edit_sha256.golden from the current code")

// goldenInsts keeps the suite small enough for tier-1 while still giving
// every benchmark its generated loop shapes.
const goldenInsts = 20_000

const goldenPath = "testdata/edit_sha256.golden"

// TestEditOutputsGolden pins the bytes of QPT-instrumented, scheduled
// edits of every suite benchmark on every machine, with and without the
// counter placement optimisation. Counter placement, the generator and
// the editor may be rewritten for speed, but never for output; a
// deliberate output change regenerates the golden with
//
//	go test ./internal/qpt -run TestEditOutputsGolden -update
func TestEditOutputsGolden(t *testing.T) {
	var lines []string
	for _, m := range spawn.Machines() {
		model := spawn.MustLoad(m)
		for _, b := range workload.Suite(m) {
			x, err := workload.Generate(b, workload.Config{Machine: m, DynamicInsts: goldenInsts})
			if err != nil {
				t.Fatalf("%s/%s: generate: %v", m, b.Name, err)
			}
			opt := editHash(t, x, model, false)
			full := editHash(t, x, model, true)
			lines = append(lines, fmt.Sprintf("%s %s in=%s qpt=%s full=%s",
				m, b.Name, digest(x.Marshal()), opt, full))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d cases, run produced %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("output changed:\n got %s\nwant %s", lines[i], wantLines[i])
		}
	}
}

func editHash(t *testing.T, x *exe.Exe, model *spawn.Model, disableOpt bool) string {
	t.Helper()
	ed, err := eel.Open(x)
	if err != nil {
		t.Fatal(err)
	}
	defer ed.Close()
	out, err := ed.Edit(&SlowProfiler{DisablePlacementOpt: disableOpt},
		eel.Options{Machine: model, Schedule: true})
	if err != nil {
		t.Fatal(err)
	}
	return digest(out.Marshal())
}

// digest is a 64-bit prefix of the image's SHA-256, enough to pin bytes.
func digest(raw []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(raw))[:16]
}
