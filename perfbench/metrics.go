package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// endToEnd lists the metrics every untraced run prints, with their
// units; BENCHMARK.json's end_to_end section must list the same names
// (TestMetricNamesMatchBenchmarkJSON). README.md defines each one per
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"throughput_alt_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// splitWays and splitPatterns are the sweep point-time splits.
var (
	splitWays     = []int{1, 4}
	splitPatterns = []string{"sequential", "random", "write"}
)

// cpuPackages are the packages the traced run's CPU profile is
// attributed to (runtime includes GC).
var cpuPackages = []string{"core", "imc", "cache", "dram", "nvram", "fastdiv", "lfsr", "engine", "sweep", "telemetry", "runtime"}

// perLayer lists the metrics every traced run prints.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.pass_ms", "ms"},
		{"core.self_ms", "ms"},
		{"imc.range_ns_per_line", "ns"},
		{"imc.scatter_ns_per_line.ways1", "ns"},
		{"imc.scatter_ns_per_line.ways4", "ns"},
		{"imc.hit_rate", "ratio"},
		{"imc.tag_miss_dirty", "count"},
		{"imc.ddo", "count"},
		{"imc.amplification", "ratio"},
		{"cache.probe_install_ns", "ns"},
		{"cache.stamp_ns_per_line", "ns"},
		{"dram.range_ns_per_line", "ns"},
		{"dram.line_ns", "ns"},
		{"dram.cas_reads", "count"},
		{"dram.cas_writes", "count"},
		{"dram.channel_imbalance", "ratio"},
		{"nvram.linerun_ns_per_line", "ns"},
		{"nvram.batch_ns_per_line", "ns"},
		{"nvram.media_reads", "count"},
		{"nvram.media_writes", "count"},
		{"nvram.write_amplification", "ratio"},
		{"lfsr.fill_ns_per_index", "ns"},
		{"sweep.expand_ms", "ms"},
		{"sweep.cold_run_ms", "ms"},
		{"sweep.point_ms_p50", "ms"},
		{"sweep.point_ms_p99", "ms"},
	}
	for _, w := range splitWays {
		for _, p := range splitPatterns {
			defs = append(defs, metricDef{fmt.Sprintf("sweep.point_ms_p50.ways%d.%s", w, p), "ms"})
		}
	}
	defs = append(defs,
		metricDef{"engine.worker_busy_share", "ratio"},
		metricDef{"sweep.render_ms", "ms"},
		metricDef{"jobspec.decode_us", "us"},
		metricDef{"jobspec.validate_us", "us"},
		metricDef{"simd.job_ms_p99", "ms"},
		metricDef{"simd.max_rate_jobs_per_s", "1/s"},
		metricDef{"simd.submit_ms_p50", "ms"},
		metricDef{"simd.submit_ms_p99", "ms"},
		metricDef{"simd.run_ms_mean", "ms"},
		metricDef{"simd.queue_wait_ms_p50", "ms"},
		metricDef{"simd.fetch_ms_p50", "ms"},
		metricDef{"simd.polls_per_job", "count"},
		metricDef{"simd.rejected", "count"},
		metricDef{"simd.rss_mib_per_1k_jobs", "MiB"},
		metricDef{"simd.gen_lag_ms_p99", "ms"},
	)
	for _, p := range cpuPackages {
		defs = append(defs, metricDef{p + ".cpu_share", "ratio"})
	}
	return append(defs, metricDef{"trace.overhead_ratio", "ratio"})
}()

type metricDef struct{ Name, Unit string }

// checkNames verifies the report carries exactly the defined metrics,
// each once and with its defined unit.
func checkNames(r *report, defs []metricDef) error {
	want := map[string]string{}
	for _, d := range defs {
		want[d.Name] = d.Unit
	}
	seen := map[string]bool{}
	var problems []string
	for _, m := range r.Metrics {
		u, ok := want[m.Name]
		switch {
		case !ok:
			problems = append(problems, "unexpected metric "+m.Name)
		case seen[m.Name]:
			problems = append(problems, "duplicate metric "+m.Name)
		case u != m.Unit:
			problems = append(problems, fmt.Sprintf("metric %s has unit %s, want %s", m.Name, m.Unit, u))
		}
		seen[m.Name] = true
	}
	for _, d := range defs {
		if !seen[d.Name] {
			problems = append(problems, "missing metric "+d.Name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metric set: %s", strings.Join(problems, "; "))
	}
	return nil
}

// fingerprint identifies the host and code a result was taken on;
// absolute figures only compare between equal fingerprints.
type fingerprint struct {
	CPU    string `json:"cpu"`
	NProc  int    `json:"nproc"`
	GOARCH string `json:"goarch"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
}

func (f fingerprint) String() string {
	b, _ := json.Marshal(f)
	return "host " + string(b)
}

func hostFingerprint(root string) fingerprint {
	f := fingerprint{CPU: "unknown", NProc: runtime.NumCPU(), GOARCH: runtime.GOARCH, Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	f.Commit = commitOf(root)
	return f
}

// commitOf returns the git commit of root, or — in a checkout without
// git metadata — "tree:" plus a digest of the Go sources, which
// identifies the code just as well for comparing results.
func commitOf(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	return fmt.Sprintf("tree:%x", h.Sum(nil)[:6])
}
