package spawn

import (
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"

	"eel/internal/sparc"
)

func TestLoadAllMachines(t *testing.T) {
	for _, machine := range Machines() {
		m, err := Load(machine)
		if err != nil {
			t.Fatalf("%s: %v", machine, err)
		}
		if m.Machine != machine {
			t.Errorf("%s: Machine field = %q", machine, m.Machine)
		}
		if len(m.Groups) == 0 {
			t.Fatalf("%s: no timing groups", machine)
		}
		// Every supported opcode must resolve in both variants.
		for op := sparc.Op(1); op < sparc.NumOps; op++ {
			for _, imm := range []bool{false, true} {
				g, err := m.GroupFor(op, imm)
				if err != nil {
					t.Errorf("%s: GroupFor(%s, imm=%v): %v", machine, op.Name(), imm, err)
					continue
				}
				if g.Cycles <= 0 {
					t.Errorf("%s: %s has non-positive cycle count %d", machine, op.Name(), g.Cycles)
				}
			}
		}
	}
}

func TestLoadCaches(t *testing.T) {
	a, err := Load(UltraSPARC)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(UltraSPARC)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Load should cache models")
	}
	if _, err := Load(Machine("pdp11")); err == nil {
		t.Error("Load(pdp11) succeeded")
	}
}

func TestIssueWidths(t *testing.T) {
	widths := map[Machine]int{HyperSPARC: 2, SuperSPARC: 3, UltraSPARC: 4}
	for machine, want := range widths {
		m := MustLoad(machine)
		if m.IssueWidth != want {
			t.Errorf("%s: IssueWidth = %d, want %d", machine, m.IssueWidth, want)
		}
	}
}

func TestGroupSharingAndVariants(t *testing.T) {
	m := MustLoad(UltraSPARC)
	add, _ := m.GroupFor(sparc.OpAdd, false)
	sub, _ := m.GroupFor(sparc.OpSub, false)
	if add.ID != sub.ID {
		t.Error("add and sub should share a timing group")
	}
	addImm, _ := m.GroupFor(sparc.OpAdd, true)
	if addImm.ID == add.ID {
		t.Error("register and immediate add should differ (one fewer port read)")
	}
	ld, _ := m.GroupFor(sparc.OpLd, true)
	if ld.ID == add.ID {
		t.Error("ld and add should not share a group")
	}
	if !ld.HasMarker("isLoad") {
		t.Error("ld group should carry isLoad")
	}
	st, _ := m.GroupFor(sparc.OpSt, true)
	if !st.HasMarker("isStore") {
		t.Error("st group should carry isStore")
	}
	sll, _ := m.GroupFor(sparc.OpSll, true)
	if !sll.HasMarker("isShift") {
		t.Error("sll group should carry isShift")
	}
}

// TestModelTimings pins the latencies DESIGN.md calls out: ALU results
// available next cycle, loads with the documented use latency, sethi
// usable by an instruction issued in the same cycle.
func TestModelTimings(t *testing.T) {
	cases := []struct {
		machine   Machine
		op        sparc.Op
		wantAvail int
	}{
		{HyperSPARC, sparc.OpAdd, 2},
		{SuperSPARC, sparc.OpAdd, 2},
		{UltraSPARC, sparc.OpAdd, 2},
		{HyperSPARC, sparc.OpLd, 2}, // 1-cycle load latency (paper §4.1)
		{SuperSPARC, sparc.OpLd, 3}, // 2-cycle load latency
		{UltraSPARC, sparc.OpLd, 3}, // 2-cycle load latency
		{HyperSPARC, sparc.OpSethi, 1},
		{UltraSPARC, sparc.OpSethi, 1},
	}
	for _, c := range cases {
		m := MustLoad(c.machine)
		g, err := m.GroupFor(c.op, true)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, w := range g.Writes {
			if w.Field == "rd" {
				found = true
				if w.Cycle != c.wantAvail {
					t.Errorf("%s %s: rd available at %d, want %d",
						c.machine, c.op.Name(), w.Cycle, c.wantAvail)
				}
			}
		}
		if !found {
			t.Errorf("%s %s: no rd write recorded", c.machine, c.op.Name())
		}
	}
}

func TestFPDivLatencies(t *testing.T) {
	super := MustLoad(SuperSPARC)
	ultra := MustLoad(UltraSPARC)
	sg, _ := super.GroupFor(sparc.OpFdivd, false)
	ug, _ := ultra.GroupFor(sparc.OpFdivd, false)
	if sg.Cycles >= ug.Cycles {
		t.Errorf("SuperSPARC fdivd (%d cycles) should be shorter than UltraSPARC (%d)",
			sg.Cycles, ug.Cycles)
	}
	if !ug.HasMarker("isFPDiv") {
		t.Error("fdivd should carry isFPDiv")
	}
}

func TestUnitIndex(t *testing.T) {
	m := MustLoad(UltraSPARC)
	if m.UnitIndex("Group") != m.GroupUnit {
		t.Error("UnitIndex(Group) != GroupUnit")
	}
	if m.UnitIndex("NoSuchUnit") != -1 {
		t.Error("UnitIndex of unknown unit should be -1")
	}
	if m.Units[m.UnitIndex("ALU")].Count != 2 {
		t.Errorf("UltraSPARC ALU count = %d, want 2", m.Units[m.UnitIndex("ALU")].Count)
	}
}

func TestAnalyzeRejectsIncompleteDescriptions(t *testing.T) {
	// A description lacking most instruction semantics must be rejected
	// with a list of the missing mnemonics.
	src := `
unit Group 2
register untyped{32} R[32]
sem add is (AR Group, D 1)
`
	_, err := Analyze("partial", src)
	if err == nil {
		t.Fatal("Analyze accepted incomplete description")
	}
	if !strings.Contains(err.Error(), "sub") {
		t.Errorf("error should list missing mnemonics: %v", err)
	}
}

func TestAnalyzeRequiresGroupUnit(t *testing.T) {
	if _, err := Analyze("nogroup", "unit ALU 1\nsem add is (AR ALU, D 1)"); err == nil {
		t.Error("Analyze accepted description without issue unit")
	}
}

func TestGenerateParsesAndCovers(t *testing.T) {
	for _, machine := range Machines() {
		m := MustLoad(machine)
		src, err := Generate(m, string(machine))
		if err != nil {
			t.Fatalf("%s: %v", machine, err)
		}
		fset := token.NewFileSet()
		if _, err := parser.ParseFile(fset, "gen.go", src, parser.AllErrors); err != nil {
			t.Fatalf("%s: generated source does not parse: %v", machine, err)
		}
		for _, want := range []string{
			"package " + string(machine),
			"DO NOT EDIT",
			"var GroupCycles",
			"var GroupAcquire",
			"var GroupRelease",
			"var GroupReads",
			"var GroupWrites",
			"var OpGroups",
			"func (s *State) Stalls",
			`"add/r":`,
			`"fdivd/r":`,
		} {
			if !strings.Contains(src, want) {
				t.Errorf("%s: generated source lacks %q", machine, want)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m := MustLoad(SuperSPARC)
	a, err := Generate(m, "supersparc")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(m, "supersparc")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Generate is not deterministic")
	}
}

func TestDescribe(t *testing.T) {
	m := MustLoad(UltraSPARC)
	d := m.Describe()
	for _, want := range []string{
		"machine ultrasparc: 4-way issue",
		"Group×4",
		"ld/i",
		"isLoad",
		"avail@",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe lacks %q", want)
		}
	}
}

func TestLatencyTable(t *testing.T) {
	m := MustLoad(UltraSPARC)
	lt := m.LatencyTable()
	if lt["add"][1] != 2 {
		t.Errorf("add availability = %d, want 2", lt["add"][1])
	}
	if lt["ld"][1] != 3 {
		t.Errorf("ld availability = %d, want 3", lt["ld"][1])
	}
	if lt["fdivd"][0] < 20 {
		t.Errorf("fdivd cycles = %d, want long", lt["fdivd"][0])
	}
	names := SortedOpNames(lt)
	if len(names) != len(lt) || names[0] > names[len(names)-1] {
		t.Error("SortedOpNames wrong")
	}
}

// LatencyTable returns, per opcode name, (cycles, result-availability) for
// the immediate variant — the summary a scheduling engineer compares with
// the processor manual's latency tables.
func (m *Model) LatencyTable() map[string][2]int {
	out := make(map[string][2]int)
	for op := sparc.Op(1); op < sparc.NumOps; op++ {
		g, err := m.GroupFor(op, true)
		if err != nil {
			continue
		}
		avail := g.Cycles
		for _, w := range g.Writes {
			if w.Field == "rd" {
				avail = w.Cycle
			}
		}
		out[op.Name()] = [2]int{g.Cycles, avail}
	}
	return out
}

// SortedOpNames returns the op names of a latency table in stable order.
func SortedOpNames(t map[string][2]int) []string {
	names := make([]string, 0, len(t))
	for n := range t {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
