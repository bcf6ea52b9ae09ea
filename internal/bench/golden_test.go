package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"eel/internal/spawn"
)

var update = flag.Bool("update", false, "rewrite testdata/tables_20k.golden from the current code")

const tablesGoldenPath = "testdata/tables_20k.golden"

// goldenTables are the three experiments of the paper's Tables 1-3, as
// the repo benchmark sweeps them, at a size tier-1 can afford.
var goldenTables = []struct {
	Name string
	Cfg  TableConfig
}{
	{"table1", TableConfig{Machine: spawn.UltraSPARC}},
	{"table2", TableConfig{Machine: spawn.UltraSPARC, RescheduleBaseline: true}},
	{"table3", TableConfig{Machine: spawn.SuperSPARC}},
}

// TestTablesGolden pins every row of Tables 1-3 at 20k dynamic
// instructions: cycles, simulated seconds, ratios and % hidden. The
// generator, editor, scheduler and simulator may be rewritten for speed,
// but never for a table. A deliberate output change regenerates the
// golden with
//
//	go test ./internal/bench -run TestTablesGolden -update
func TestTablesGolden(t *testing.T) {
	type table struct {
		Name string
		Rows []Row
	}
	var tabs []table
	for _, g := range goldenTables {
		cfg := g.Cfg
		cfg.DynamicInsts = 20_000
		cfg.ValidateCounts = true
		tab, err := RunTable(cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		tabs = append(tabs, table{g.Name, tab.Rows})
	}
	got, err := json.MarshalIndent(tabs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(tablesGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tablesGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(tablesGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("tables changed at golden line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("tables changed: golden has %d lines, run produced %d", len(wantLines), len(gotLines))
}
