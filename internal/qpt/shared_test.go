package qpt

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"eel/internal/core"
	"eel/internal/eel"
	"eel/internal/spawn"
	"eel/internal/workload"
)

// TestSharedEditorConcurrentEdits runs QPT edits from eight goroutines on
// one shared editor, the way eeld serves them. Setup must treat the
// editor's graph as read-only, so every output must equal a serial edit's
// bytes; under -race, any write to the shared graph is reported.
func TestSharedEditorConcurrentEdits(t *testing.T) {
	m := spawn.UltraSPARC
	b, _ := workload.ByName("126.gcc", m)
	x, err := workload.Generate(b, workload.Config{Machine: m, DynamicInsts: goldenInsts})
	if err != nil {
		t.Fatal(err)
	}
	ed, err := eel.OpenShared(x, core.NewCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer ed.Close()
	opts := eel.Options{Machine: spawn.MustLoad(m), Schedule: true}
	want, err := ed.Edit(&SlowProfiler{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantRaw := want.Marshal()

	const goroutines = 8
	outs := make([][]byte, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := ed.EditCtx(context.Background(), &SlowProfiler{}, opts)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = out.Marshal()
		}()
	}
	wg.Wait()
	for i := range goroutines {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], wantRaw) {
			t.Errorf("goroutine %d: output differs from the serial edit", i)
		}
	}
}
