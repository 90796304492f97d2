package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"twolm/internal/engine"
)

// TestFlagSurface pins repro's flags: the shared runcfg groups it
// reads, -job, -experiment and the two profiles all parse.
func TestFlagSurface(t *testing.T) {
	o, err := parseFlags("repro-test", []string{
		"-out", "artifacts",
		"-scale", "2048",
		"-quick",
		"-parallel", "3",
		"-channels", "4",
		"-metrics-addr", "127.0.0.1:0",
		"-job", "spec.json",
		"-experiment", "fig2|table1",
		"-cpuprofile", "cpu.out",
		"-memprofile", "mem.out",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.rc.Out != "artifacts" || o.rc.Scale != 2048 || !o.rc.Quick || o.rc.Parallel != 3 ||
		o.rc.Channels != 4 || o.rc.MetricsAddr != "127.0.0.1:0" || o.rc.Job != "spec.json" {
		t.Errorf("shared flags misparsed: %+v", o.rc)
	}
	if o.experiment != "fig2|table1" || o.cpuprofile != "cpu.out" || o.memprofile != "mem.out" {
		t.Errorf("repro flags misparsed: %+v", o)
	}
}

// TestFlagValidation pins that malformed flags and -experiment
// selectors fail before any job runs: the output directory is never
// created.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"bad-scale", []string{"-scale", "1000"}, "power of two"},
		{"bad-parallel", []string{"-parallel", "0"}, "-parallel"},
		{"bad-channels", []string{"-channels", "-2"}, "-channels"},
		{"invalid-experiment", []string{"-experiment", "fig2("}, "-experiment"},
		{"unmatched-experiment", []string{"-experiment", "fig99"}, "matches no job"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out")
			o, err := parseFlags("repro-test", append([]string{"-quick", "-out", out}, tc.args...))
			if err != nil {
				t.Fatal(err)
			}
			err = o.run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("run(%v) created %s before failing", tc.args, out)
			}
		})
	}
}

// suiteOutcomes runs the -quick suite's jobs with the given names
// directly, without the command.
func suiteOutcomes(t *testing.T, names ...string) []engine.Outcome {
	t.Helper()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var jobs []engine.Job
	for _, j := range engine.Suite(engine.DefaultSuiteConfig(1024, true)) {
		if want[j.Name] {
			jobs = append(jobs, j)
		}
	}
	if len(jobs) != len(names) {
		t.Fatalf("suite has %d of the jobs %v", len(jobs), names)
	}
	outs := engine.RunJobs(jobs, 1)
	if err := engine.FirstError(outs); err != nil {
		t.Fatal(err)
	}
	return outs
}

// TestExperimentSelection: -experiment writes exactly the selected
// jobs' artifacts (no other job's, and no throughput measurement),
// byte-equal to rendering the same suite jobs directly.
func TestExperimentSelection(t *testing.T) {
	out := t.TempDir()
	o, err := parseFlags("repro-test", []string{
		"-quick", "-parallel", "2", "-out", out, "-experiment", "fig2a|table1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.run(); err != nil {
		t.Fatal(err)
	}

	want := map[string][]byte{}
	for _, oc := range suiteOutcomes(t, "fig2a_nvram_read_bw", "table1_access_amplification") {
		for _, a := range oc.Artifacts {
			if a.Table == nil {
				t.Fatalf("%s: artifact %s is not a table", oc.Job, a.Name)
			}
			var txt, csv bytes.Buffer
			if err := a.Table.Fprint(&txt); err != nil {
				t.Fatal(err)
			}
			if err := a.Table.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			want[a.Name+".txt"], want[a.Name+".csv"] = txt.Bytes(), csv.Bytes()
		}
	}

	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	var got, wantNames []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	for n := range want {
		wantNames = append(wantNames, n)
	}
	sort.Strings(wantNames)
	if fmt.Sprint(got) != fmt.Sprint(wantNames) {
		t.Fatalf("wrote %v, want exactly %v", got, wantNames)
	}
	for name, b := range want {
		data, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, b) {
			t.Errorf("%s differs from the directly rendered job artifact", name)
		}
	}
}

// TestSeriesArtifactsReachProm: with -metrics-addr, each counter
// series artifact is published on /metrics under its artifact name,
// carrying the series' cumulative totals.
func TestSeriesArtifactsReachProm(t *testing.T) {
	o, err := parseFlags("repro-test", []string{
		"-quick", "-out", t.TempDir(), "-experiment", "fig10", "-metrics-addr", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.run(); err != nil {
		if strings.Contains(err.Error(), "-metrics-addr") {
			t.Skipf("cannot bind loopback listener in this environment: %v", err)
		}
		t.Fatal(err)
	}

	var series *engine.Artifact
	for _, a := range suiteOutcomes(t, "fig10_autotm")[0].Artifacts {
		if a.Series != nil {
			series = &a
		}
	}
	if series == nil || series.Series.Len() == 0 {
		t.Fatal("fig10_autotm produced no counter series")
	}

	resp, err := http.Get("http://" + o.rc.BoundAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("twolm_llc_read_lines_total{source=%q} %d\n",
		series.Name, series.Series.Last().LLCRead)
	if !strings.Contains(string(body), line) {
		t.Errorf("exposition missing %q:\n%s", line, body)
	}
}
