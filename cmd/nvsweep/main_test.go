package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagSurface pins nvsweep's flags: the shared groups it reads
// parse, and -scale and -job, which it would ignore, are not defined.
func TestFlagSurface(t *testing.T) {
	rc, spec, err := parseFlags("nvsweep-test", []string{
		"-out", "artifacts",
		"-quick",
		"-parallel", "3",
		"-channels", "2",
		"-metrics-addr", "127.0.0.1:0",
		"-spec", "grid.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Out != "artifacts" || !rc.Quick || rc.Parallel != 3 || rc.Channels != 2 ||
		rc.MetricsAddr != "127.0.0.1:0" || spec != "grid.json" {
		t.Errorf("flags misparsed: %+v, spec %q", rc, spec)
	}
	for _, name := range []string{"-scale", "-job"} {
		_, _, err := parseFlags("nvsweep-test", []string{name, "1"})
		if err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: parse error %v, want flag not defined", name, err)
		}
	}
}

// TestSpecRejectsUnknownAxis: a -spec file is decoded strictly, so a
// misspelled axis fails the run (naming the field) instead of running
// the axis's default, and so does trailing data.
func TestSpecRejectsUnknownAxis(t *testing.T) {
	for _, tc := range []struct {
		name, body, want string
	}{
		{"misspelled-axis", `{"cache_kib":[64],"wayz":[4],"polices":["ddo-off"]}`, "wayz"},
		{"trailing-data", `{"cache_kib":[64]} {"ways":[4]}`, "trailing data"},
		{"trailing-brace", `{"cache_kib":[64]}}`, "trailing data"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "grid.json")
			if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(dir, "out")
			rc, spec, err := parseFlags("nvsweep-test", []string{"-spec", path, "-out", out})
			if err != nil {
				t.Fatal(err)
			}
			err = run(rc, spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run = %v, want error naming %q", err, tc.want)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("run created %s before failing", out)
			}
		})
	}
}
