package qpt

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eel/internal/core"
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
// the editor may be rewritten for speed, but never for output. Each edit
// is also repeated through one OpenShared editor, cold then warm, which
// must give the bytes eel.Open gives. A deliberate output change
// regenerates the golden with
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
			name := fmt.Sprintf("%s/%s", m, b.Name)
			opt := editHash(t, name, x, model, false)
			full := editHash(t, name, x, model, true)
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

// editHash digests the QPT-scheduled edit of x through eel.Open, and
// fails the test unless two edits through one OpenShared editor (a cold
// then a warm schedule cache) produce the same bytes.
func editHash(t *testing.T, name string, x *exe.Exe, model *spawn.Model, disableOpt bool) string {
	t.Helper()
	edit := func(ed *eel.Editor) string {
		t.Helper()
		out, err := ed.Edit(&SlowProfiler{DisablePlacementOpt: disableOpt},
			eel.Options{Machine: model, Schedule: true})
		if err != nil {
			t.Fatal(err)
		}
		return digest(out.Marshal())
	}
	ed, err := eel.Open(x)
	if err != nil {
		t.Fatal(err)
	}
	defer ed.Close()
	want := edit(ed)

	cache := core.NewCache(0)
	shared, err := eel.OpenShared(x, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	for _, pass := range []string{"cold", "warm"} {
		if got := edit(shared); got != want {
			t.Errorf("%s (placement opt off: %v): %s-cache OpenShared edit %s, eel.Open edit %s",
				name, disableOpt, pass, got, want)
		}
	}
	if hits, _ := cache.Stats(); hits == 0 {
		t.Errorf("%s: the warm OpenShared edit never hit the cache", name)
	}
	return want
}

// digest is a 64-bit prefix of the image's SHA-256, enough to pin bytes.
func digest(raw []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(raw))[:16]
}
