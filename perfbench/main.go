// Command perfbench is the repository benchmark: it drives the
// simulator through its public packages (and the simd daemon over
// loopback HTTP), checks every output against an oracle, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics)
// followed by one JSON result line. run.sh builds and invokes it; see
// README.md for the workloads and metric definitions.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root (BENCHMARK.json, span output)
	simd     string // path of the built simd binary (traced runs)
}

// workloads maps each workload name to its untraced run.
var workloads = map[string]func(runConfig, *tracer, *report) error{
	"seq-demand": func(c runConfig, tr *tracer, r *report) error {
		_, err := runDemand(c, false, tr, r)
		return err
	},
	"rand-demand": func(c runConfig, tr *tracer, r *report) error {
		_, err := runDemand(c, true, tr, r)
		return err
	},
	"sweep-grid": func(c runConfig, tr *tracer, r *report) error {
		_, err := runGrid(c, tr, r)
		return err
	},
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "seq-demand | rand-demand | sweep-grid")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.StringVar(&cfg.simd, "simd", "", "path of the built simd binary (the traced run's simd probe)")
	flag.Parse()
	cfg.trace = trace == 1

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if err := checkNames(rep, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.emit(os.Stdout, rep.Failed == 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one invocation and returns its report.
func run(cfg runConfig) (*report, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds %g must be positive", cfg.seconds)
	}
	rep := &report{}
	rep.Notes = append(rep.Notes, hostFingerprint(cfg.root).String())
	start := time.Now()
	var err error
	if cfg.trace {
		err = runTraced(cfg, rep)
	} else {
		err = w(cfg, nil, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.notef("workload %s seed %d finished in %.1f s", cfg.workload, cfg.seed, time.Since(start).Seconds())
	return rep, nil
}
