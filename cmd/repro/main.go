// Command repro regenerates the tables and figures of the paper's
// evaluation and writes the artifacts — rendered text tables, CSV data
// and trace files — into a results directory. It is the one
// reproduction front end: every experiment is an engine.Suite job, and
// -experiment selects which of them run.
//
// Usage:
//
//	repro [-out results] [-scale 1024] [-quick] [-parallel N] [-channels N]
//	      [-experiment regexp] [-job spec.json]
//	      [-metrics-addr host:port] [-cpuprofile f] [-memprofile f]
//
// -quick shrinks footprints (scale 8192, smaller graphs) for a fast
// sanity pass; the defaults match the calibrated study reported in
// EXPERIMENTS.md. -parallel runs the experiment suite on N workers
// (default: one per CPU); artifacts and report order are identical at
// every worker count because each experiment builds its own system and
// outcomes are merged by job order, not completion order. -channels
// sets the IMC channel count of the multichannel sharding self-check
// (default 6, the Cascade Lake socket).
//
// -experiment runs only the jobs whose names match the unanchored
// regular expression, like go test -run; the simulator-throughput
// measurement counts as the job "throughput". Empty (the default) runs
// everything. A selected job writes the same bytes it writes in a full
// run. For example:
//
//	repro -experiment 'fig2|table1|fig4'          # microbenchmarks
//	repro -experiment 'fig5|fig6|fig10|table2'    # CNN case study
//	repro -experiment graph_study                 # graph case study
//
// -job runs one versioned jobspec file instead (see internal/jobspec),
// writing the job_results artifacts cmd/simd serves for the same file.
//
// -metrics-addr serves the run live in Prometheus text exposition
// format at http://host:port/metrics: job-completion progress gauges,
// the multichannel scenarios' counter samples, every counter-series
// artifact under its artifact name, and the throughput measurement's
// bandwidth samples. Independent of the endpoint, the throughput
// measurement, whenever it runs, records a deterministic demand-indexed
// bandwidth trace to telemetry_throughput_trace.{csv,json} in the
// output directory.
//
// -cpuprofile and -memprofile write pprof profiles of the whole run,
// for chasing regressions in the simulator-throughput baseline that
// the suite also measures (BENCH_throughput.json in the output
// directory).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"twolm/internal/engine"
	"twolm/internal/jobspec"
	"twolm/internal/runcfg"
	"twolm/internal/sweep"
	"twolm/internal/telemetry"
)

// throughputJob is the name -experiment matches to select the
// simulator-throughput measurement, which runs after the suite jobs.
const throughputJob = "throughput"

// options is the parsed flag surface. Split from main so the parse
// and run logic is testable without exec-ing the binary.
type options struct {
	rc         runcfg.Common
	experiment string
	cpuprofile string
	memprofile string
}

// parseFlags builds the repro flag set over args (the arguments after
// the program name) and returns the parsed options.
func parseFlags(name string, args []string) (*options, error) {
	o := &options{rc: runcfg.Defaults()}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	o.rc.Register(fs)
	o.rc.RegisterScale(fs)
	o.rc.RegisterWorkers(fs)
	o.rc.RegisterJob(fs)
	fs.StringVar(&o.experiment, "experiment", "",
		"run only the jobs whose names match this regexp (\"throughput\" selects the throughput measurement); empty runs all")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

func main() {
	o, err := parseFlags("repro", os.Args[1:])
	if err == flag.ErrHelp {
		return
	} else if err != nil {
		os.Exit(2)
	}
	if err := o.profiled(); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

// profiled runs the reproduction under the requested pprof profiles.
func (o *options) profiled() error {
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := o.run(); err != nil {
		return err
	}
	if o.memprofile != "" {
		f, err := os.Create(o.memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows live objects
		return pprof.WriteHeapProfile(f)
	}
	return nil
}

// selectJobs keeps the jobs whose names match the -experiment regexp,
// in suite order, and reports whether the throughput measurement is
// selected too. An empty expression selects everything; an invalid
// one, or one that selects nothing, is an error.
func selectJobs(jobs []engine.Job, expr string) ([]engine.Job, bool, error) {
	if expr == "" {
		return jobs, true, nil
	}
	re, err := regexp.Compile(expr)
	if err != nil {
		return nil, false, fmt.Errorf("-experiment: %w", err)
	}
	var sel []engine.Job
	names := make([]string, 0, len(jobs)+1)
	for _, j := range jobs {
		if re.MatchString(j.Name) {
			sel = append(sel, j)
		}
		names = append(names, j.Name)
	}
	throughput := re.MatchString(throughputJob)
	if len(sel) == 0 && !throughput {
		return nil, false, fmt.Errorf("-experiment %q matches no job; jobs are %s",
			expr, strings.Join(append(names, throughputJob), ", "))
	}
	return sel, throughput, nil
}

// writeArtifact persists one artifact by payload type: tables as
// rendered .txt plus .csv data, counter series as .csv, text as .txt.
func writeArtifact(dir string, a engine.Artifact) error {
	switch {
	case a.Table != nil:
		fmt.Printf("== %s\n%s\n", a.Name, a.Table.String())
		txt, err := os.Create(filepath.Join(dir, a.Name+".txt"))
		if err != nil {
			return err
		}
		defer txt.Close()
		if err := a.Table.Fprint(txt); err != nil {
			return err
		}
		csv, err := os.Create(filepath.Join(dir, a.Name+".csv"))
		if err != nil {
			return err
		}
		defer csv.Close()
		return a.Table.WriteCSV(csv)
	case a.Series != nil:
		f, err := os.Create(filepath.Join(dir, a.Name+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return a.Series.WriteIntervalCSV(f)
	case a.Text != "":
		return os.WriteFile(filepath.Join(dir, a.Name+".txt"), []byte(a.Text), 0o644)
	}
	return nil
}

// run executes the selected suite jobs on the worker pool and writes
// artifacts in job order, so the report reads identically at any
// worker count. With -job it instead executes the one declared
// jobspec through the same shared path cmd/simd uses, writing the
// byte-identical job_results artifacts.
func (o *options) run() error {
	rc := &o.rc
	// Reject bad input up front: the pool reports job errors only after
	// the whole suite drains, which is the wrong place to learn about a
	// typo in a flag.
	if err := rc.Validate(); err != nil {
		return err
	}
	if js, err := rc.LoadJob(); err != nil {
		return err
	} else if js != nil {
		return runJob(*rc, js)
	}
	prom, err := rc.Metrics()
	if err != nil {
		return err
	}

	cfg := engine.DefaultSuiteConfig(rc.Scale, rc.Quick)
	cfg.Multi.Channels = rc.Channels
	if prom != nil {
		// The sharding self-check publishes each scenario's samples
		// under its scenario name; Prom locks internally, so it is safe
		// to share across parallel jobs.
		cfg.Multi.Telemetry = prom
		cfg.Multi.SampleEvery = 4096
	}
	jobs, throughput, err := selectJobs(engine.Suite(cfg), o.experiment)
	if err != nil {
		return err
	}
	if prom != nil {
		fmt.Printf("serving metrics at http://%s/metrics\n", rc.BoundAddr)
	}
	if err := os.MkdirAll(rc.Out, 0o755); err != nil {
		return err
	}
	start := time.Now()

	if rc.Parallel > 1 {
		fmt.Printf("running %d experiments on %d workers\n", len(jobs), rc.Parallel)
	}
	var observe func(engine.Outcome)
	if prom != nil {
		prom.SetGauge("jobs_total", "Experiment jobs in this run.", float64(len(jobs)))
		observe = func(engine.Outcome) {
			prom.AddGauge("jobs_completed", "Experiment jobs completed so far.", 1)
		}
	}
	outs := engine.RunJobsObserved(context.Background(), jobs, rc.Parallel, observe)

	for _, out := range outs {
		if out.Err != nil {
			return fmt.Errorf("%s: %w", out.Job, out.Err)
		}
		for _, a := range out.Artifacts {
			if err := writeArtifact(rc.Out, a); err != nil {
				return fmt.Errorf("%s: %w", out.Job, err)
			}
			if prom != nil && a.Series != nil {
				// On /metrics a series' totals belong under the
				// artifact's name, not its kernel or phase labels.
				for _, s := range a.Series.Samples() {
					s.Label = a.Name
					prom.Record(s)
				}
			}
		}
	}

	if throughput {
		if err := writeThroughput(rc.Out, prom); err != nil {
			return fmt.Errorf("throughput baseline: %w", err)
		}
	}

	fmt.Printf("all artifacts written to %s in %s\n", rc.Out, time.Since(start).Round(time.Millisecond))
	return nil
}

// runJob executes one declared jobspec end to end through the shared
// sweep.RunJob path — the same execution cmd/simd uses, so the
// artifacts under -out are byte-identical to a simd POST of the same
// file. A timeout_ms in the spec is
// honored here too.
func runJob(rc runcfg.Common, js *jobspec.Spec) error {
	ctx := context.Background()
	if d := js.Timeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	start := time.Now()
	res, err := sweep.RunJob(ctx, *js, rc.Parallel, nil)
	if err != nil {
		return err
	}
	if err := res.Write(rc.Out); err != nil {
		return err
	}
	fmt.Printf("job %q: %d points, %d demand lines, artifacts in %s (%s)\n",
		res.Spec.Name, len(res.Rows), res.Lines, rc.Out, time.Since(start).Round(time.Millisecond))
	return nil
}

// throughputSampleEvery is the demand-line sampling interval of the
// throughput bandwidth trace: at the default 1/8192 measurement scale
// one pass covers ~786k demand lines, so this yields a few dozen
// samples per stream configuration.
const throughputSampleEvery = 65536

// writeThroughput measures simulator throughput (the tracked perf
// baseline — see DESIGN.md) and writes BENCH_throughput.json, plus a
// deterministic demand-indexed bandwidth trace of the measured runs
// (telemetry_throughput_trace.{csv,json}), the Figure 5/9-style
// artifact of the telemetry surface.
func writeThroughput(dir string, prom *telemetry.Prom) error {
	trace := telemetry.NewTraceSink(dir, "telemetry_throughput_trace")
	cfg := engine.DefaultThroughputConfig()
	cfg.SampleEvery = throughputSampleEvery
	if prom != nil {
		cfg.Telemetry = telemetry.Tee(trace, prom)
	} else {
		cfg.Telemetry = trace
	}
	report, err := engine.MeasureThroughput(cfg)
	if err != nil {
		return err
	}
	if err := trace.Close(); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "BENCH_throughput.json"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.WriteThroughputJSON(f); err != nil {
		return err
	}
	for _, r := range report.Results {
		fmt.Printf("throughput %-22s %12.0f lines/s\n", r.Name, r.LinesPerSec)
	}
	return nil
}
