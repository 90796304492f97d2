// The graphsim binary was folded into cmd/repro: the graph study runs
// as `repro -experiment graph_study`, with its geometry taken from
// engine.DefaultSuiteConfig. This package holds no program, only these
// tests, which pin that replacement: repro accepts the shared flags
// graphsim had, the selector picks exactly the graph study, -quick
// still shrinks its whole geometry, and malformed shared flags are
// rejected before any job runs.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"twolm/internal/engine"
)

// selector is the -experiment expression that replaces graphsim.
const selector = "graph_study"

// reproBin is cmd/repro, built once for this package's tests.
var reproBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "graphsim-test")
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

// TestFlagSurface pins that repro carries every shared flag graphsim
// had, that the selector picks exactly the graph study's suite job,
// and that the suite configuration holds the geometry graphsim's
// -small-scale/-large-scale/-pr-rounds defaults and -quick gave.
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
	if len(got) != 1 || got[0] != "graph_study" {
		t.Errorf("-experiment %q selects %v, want [graph_study]", selector, got)
	}

	full := engine.DefaultSuiteConfig(2048, false).Graph
	if full.SmallScale != 18 || full.LargeScale != 21 || full.PRRounds != 5 {
		t.Errorf("full graph geometry = %+v, want small 18, large 21, 5 PageRank rounds", full)
	}
	quick := engine.DefaultSuiteConfig(64, true).Graph
	if quick.Scale != 16384 || quick.SmallScale != 14 || quick.LargeScale != 19 || quick.PRRounds != 3 {
		t.Errorf("-quick graph geometry = %+v, want the sanity-pass shape", quick)
	}
}

// TestFlagValidation pins that malformed shared flags on the graph
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
