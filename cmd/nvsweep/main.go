// Command nvsweep runs a declarative design-space sweep — the
// paper's comparison matrix at scale — and writes merged,
// worker-count-independent result tables.
//
// Usage:
//
//	nvsweep [-spec grid.json] [-out results] [-quick] [-parallel N]
//	        [-channels N] [-metrics-addr host:port]
//
// Without -spec, the built-in default grid (cache size x
// associativity x all four policy ablations x channels x DRAM:NVRAM
// ratio x stream pattern) runs; -quick substitutes the small CI smoke
// grid. A -spec file is the JSON form of sweep.Spec, decoded strictly
// (a misspelled axis or trailing data is an error):
//
//	{
//	  "cache_kib": [256, 512, 1024],
//	  "ways": [1, 4],
//	  "ratios": [2, 8]
//	}
//
// Every point is one deterministic job on the engine worker pool;
// points sharing a geometry class recycle pooled controllers, so
// thousand-point sweeps run at thousands of jobs per second. The
// merged tables land in <out>/sweep_results.csv and
// <out>/sweep_results.json, ordered by point index — byte-identical
// at every -parallel setting, asserted by CI.
//
// -channels substitutes the flag value for the spec's channel axis
// when the spec leaves it empty (the built-in grids pin their own).
// Footprints are the spec's job (its sample_lines axis), so nvsweep
// has no -scale; a versioned jobspec file runs through repro -job.
// -metrics-addr serves sweep_points_total / sweep_points_completed
// progress gauges plus one labeled counter sample per completed point
// at /metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"twolm/internal/engine"
	"twolm/internal/jobspec"
	"twolm/internal/runcfg"
	"twolm/internal/sweep"
)

// parseFlags builds the nvsweep flag set over args (the arguments
// after the program name), returning the shared options and the -spec
// path.
func parseFlags(name string, args []string) (runcfg.Common, string, error) {
	rc := runcfg.Defaults()
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	rc.Register(fs)
	rc.RegisterWorkers(fs)
	specPath := fs.String("spec", "", "JSON sweep spec file (default: built-in grid)")
	err := fs.Parse(args)
	return rc, *specPath, err
}

func main() {
	rc, specPath, err := parseFlags("nvsweep", os.Args[1:])
	if err == flag.ErrHelp {
		return
	} else if err != nil {
		os.Exit(2)
	}
	if err := run(rc, specPath); err != nil {
		fmt.Fprintln(os.Stderr, "nvsweep:", err)
		os.Exit(1)
	}
}

// loadSpec resolves the sweep spec: an explicit -spec file wins, then
// -quick picks the smoke grid, then the default grid. An empty
// channels axis is filled from -channels so the shared flag keeps its
// meaning here.
func loadSpec(rc runcfg.Common, specPath string) (sweep.Spec, error) {
	var spec sweep.Spec
	switch {
	case specPath != "":
		f, err := os.Open(specPath)
		if err != nil {
			return spec, err
		}
		defer f.Close()
		// Strict, like jobspec.Decode: a misspelled axis must fail, not
		// silently run the axis's default.
		if err := jobspec.DecodeStrict(f, &spec); err != nil {
			return spec, fmt.Errorf("%s: %w", specPath, err)
		}
	case rc.Quick:
		spec = sweep.QuickSpec()
	default:
		spec = sweep.DefaultSpec()
	}
	if len(spec.Channels) == 0 && rc.Channels > 0 {
		spec.Channels = []int{rc.Channels}
	}
	return spec, nil
}

func run(rc runcfg.Common, specPath string) error {
	if err := rc.Validate(); err != nil {
		return err
	}
	prom, err := rc.Metrics()
	if err != nil {
		return err
	}
	if prom != nil {
		fmt.Printf("serving metrics at http://%s/metrics\n", rc.BoundAddr)
	}
	spec, err := loadSpec(rc, specPath)
	if err != nil {
		return err
	}
	runner, err := sweep.New(spec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(rc.Out, 0o755); err != nil {
		return err
	}

	points := runner.Points()
	fmt.Printf("sweep %q: %d points on %d workers\n", runner.Spec().Name, len(points), rc.Parallel)
	var observe func(engine.Outcome)
	if prom != nil {
		prom.SetGauge("sweep_points_total", "Sweep points in this run.", float64(len(points)))
		observe = func(engine.Outcome) {
			prom.AddGauge("sweep_points_completed", "Sweep points completed so far.", 1)
		}
	}

	start := time.Now()
	rows, err := runner.Run(context.Background(), rc.Parallel, observe)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	if prom != nil {
		// One labeled cumulative sample per point, in point order.
		runner.EmitSamples(prom)
	}

	if err := writeTable(filepath.Join(rc.Out, "sweep_results.csv"), rows, sweep.WriteCSV); err != nil {
		return err
	}
	if err := writeTable(filepath.Join(rc.Out, "sweep_results.json"), rows, sweep.WriteJSON); err != nil {
		return err
	}

	var lines uint64
	for i := range rows {
		lines += rows[i].Lines
	}
	fmt.Printf("completed %d points in %s (%.0f jobs/s, %d demand lines)\n",
		len(rows), elapsed.Round(time.Millisecond), float64(len(rows))/elapsed.Seconds(), lines)
	fmt.Printf("merged tables: %s{.csv,.json}\n", filepath.Join(rc.Out, "sweep_results"))
	return nil
}

// writeTable writes one merged-table artifact through the given
// serializer.
func writeTable(path string, rows []sweep.Row, write func(w io.Writer, rows []sweep.Row) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
