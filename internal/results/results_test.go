package results

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("My Title", "name", "value")
	tab.AddRow("alpha", 1.5)
	tab.AddRow("beta-longer", 42)
	out := tab.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title, underline, header, rule, two rows.
	if len(lines) != 6 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "My Title" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "name") {
		t.Errorf("header line = %q", lines[2])
	}
	if !strings.Contains(lines[4], "1.50") {
		t.Errorf("float cell not formatted: %q", lines[4])
	}
	if !strings.Contains(lines[5], "42") {
		t.Errorf("int cell missing: %q", lines[5])
	}
	// Columns align: "value" column starts at the same offset in all
	// data rows.
	h := strings.Index(lines[2], "value")
	if !strings.HasPrefix(lines[4][h:], "1.50") {
		t.Errorf("column misaligned:\n%s", out)
	}
}

func TestTableWithoutTitle(t *testing.T) {
	tab := NewTable("", "a")
	tab.AddRow("x")
	out := tab.String()
	if strings.Contains(out, "=") {
		t.Errorf("untitled table rendered a title underline:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("t", "a", "b")
	tab.AddRow("plain", "with,comma")
	tab.AddRow(`has"quote`, 7)
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if lines[0] != "a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != `plain,"with,comma"` {
		t.Errorf("comma cell not quoted: %q", lines[1])
	}
	if lines[2] != `"has""quote",7` {
		t.Errorf("quote cell not escaped: %q", lines[2])
	}
}
