package spawn

import (
	"fmt"
	"strings"
)

// Describe renders a human-readable summary of the analyzed model: units,
// timing groups and per-instruction timing — the report a microarchitect
// reviews when validating a new SADL description against the vendor
// manual.
func (m *Model) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine %s: %d-way issue, %d units, %d timing groups\n",
		m.Machine, m.IssueWidth, len(m.Units), len(m.Groups))
	b.WriteString("units:")
	for _, u := range m.Units {
		fmt.Fprintf(&b, " %s×%d", u.Name, u.Count)
	}
	b.WriteString("\n\ngroups:\n")
	for _, g := range m.Groups {
		fmt.Fprintf(&b, "  group %2d: %2d cycles", g.ID, g.Cycles)
		if len(g.Markers) > 0 {
			fmt.Fprintf(&b, " %v", g.Markers)
		}
		b.WriteString("\n    ops:")
		for _, ov := range g.Ops {
			variant := "r"
			if ov.UseImm {
				variant = "i"
			}
			fmt.Fprintf(&b, " %s/%s", ov.Op.Name(), variant)
		}
		b.WriteString("\n")
		for c := range g.Acquire {
			if len(g.Acquire[c]) == 0 && len(g.Release[c]) == 0 {
				continue
			}
			fmt.Fprintf(&b, "    cycle %d:", c)
			for _, e := range g.Acquire[c] {
				fmt.Fprintf(&b, " +%s×%d", m.Units[e.Unit].Name, e.Num)
			}
			for _, e := range g.Release[c] {
				fmt.Fprintf(&b, " -%s×%d", m.Units[e.Unit].Name, e.Num)
			}
			b.WriteString("\n")
		}
		for _, r := range g.Reads {
			fmt.Fprintf(&b, "    read  %s.%s%s @%d\n", r.File, r.Field, idx(r), r.Cycle)
		}
		for _, w := range g.Writes {
			fmt.Fprintf(&b, "    write %s.%s%s avail@%d\n", w.File, w.Field, idx(w), w.Cycle)
		}
	}
	return b.String()
}

func idx(a FieldAccess) string {
	if a.Field == "" {
		return fmt.Sprintf("[%d]", a.Index)
	}
	return ""
}
