// The cnnsim binary was folded into cmd/repro: its experiments run as
// `repro -experiment 'fig5|fig6|fig10|table2'`. This package holds no
// program, only these tests, which pin that replacement command line:
// it accepts the shared flags cnnsim had, selects exactly the CNN
// study's jobs, and rejects malformed shared flags before any job runs.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"twolm/internal/engine"
)

// selector is the -experiment expression that replaces cnnsim.
const selector = "fig5|fig6|fig10|table2"

// reproBin is cmd/repro, built once for this package's tests.
var reproBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cnnsim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	reproBin = filepath.Join(dir, "repro")
	build := exec.Command("go", "build", "-o", reproBin, "twolm/cmd/repro")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build twolm/cmd/repro: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// repro runs the built binary and returns its combined output.
func repro(args ...string) (string, error) {
	out, err := exec.Command(reproBin, args...).CombinedOutput()
	return string(out), err
}

// TestFlagSurface pins that repro carries every shared flag cnnsim
// had, that the CNN selector picks exactly the CNN study's suite jobs,
// and that a run with all shared flags set writes exactly those jobs'
// artifacts.
func TestFlagSurface(t *testing.T) {
	help, _ := repro("-h")
	for _, f := range []string{"-out", "-scale", "-quick", "-parallel", "-channels", "-metrics-addr", "-experiment"} {
		if !regexp.MustCompile(`(?m)^  ` + f + `( |$)`).MatchString(help) {
			t.Errorf("repro -h does not list %s:\n%s", f, help)
		}
	}

	re := regexp.MustCompile(selector)
	var got []string
	for _, j := range engine.Suite(engine.DefaultSuiteConfig(1024, true)) {
		if re.MatchString(j.Name) {
			got = append(got, j.Name)
		}
	}
	want := []string{"fig5_densenet", "fig6_dense_block_kernels", "fig10_autotm", "table2_cnn_2lm_vs_autotm"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("-experiment %q selects %v, want %v", selector, got, want)
	}

	out := t.TempDir()
	if msg, err := repro("-out", out, "-scale", "2048", "-quick", "-parallel", "3", "-channels", "6",
		"-experiment", selector); err != nil {
		t.Fatalf("repro: %v\n%s", err, msg)
	}
	ents, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		files = append(files, e.Name())
	}
	sort.Strings(files)
	wantFiles := []string{
		"fig10_autotm_phases.csv", "fig10_autotm_phases.txt", "fig10_autotm_trace.csv",
		"fig5_densenet_summary.csv", "fig5_densenet_summary.txt", "fig5_densenet_trace.csv",
		"fig5d_densenet_liveness.csv", "fig5d_densenet_liveness.txt", "fig5d_heatmap.txt",
		"fig6_dense_block_kernels.csv", "fig6_dense_block_kernels.txt",
		"table2_cnn_2lm_vs_autotm.csv", "table2_cnn_2lm_vs_autotm.txt",
	}
	if strings.Join(files, ",") != strings.Join(wantFiles, ",") {
		t.Errorf("selected run wrote %v, want %v", files, wantFiles)
	}
}

// TestFlagValidation pins that malformed shared flags on the CNN
// command line are rejected by runcfg validation before any job runs:
// the output directory is never created.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"bad-scale", []string{"-scale", "1000"}, "power of two"},
		{"bad-parallel", []string{"-parallel", "0"}, "-parallel"},
		{"bad-channels", []string{"-channels", "-2"}, "-channels"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out")
			msg, err := repro(append([]string{"-out", out, "-experiment", selector}, tc.args...)...)
			if err == nil || !strings.Contains(msg, tc.want) {
				t.Errorf("repro %v = %v, %q; want failure containing %q", tc.args, err, msg, tc.want)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("repro %v created %s before failing", tc.args, out)
			}
		})
	}
}
