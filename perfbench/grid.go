package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"twolm/internal/core"
	"twolm/internal/engine"
	"twolm/internal/jobspec"
	"twolm/internal/sweep"
)

// gridSpec is the sweep-grid document: two capacities, ways 1 and 4,
// all four policies, three patterns and two seeded random streams,
// 4096 demand lines per point, rendered as CSV and JSON.
func gridSpec(seed uint64) jobspec.Spec {
	sm := splitmix(seed ^ 0x5EED6A1D)
	return jobspec.Spec{
		Version: jobspec.Version,
		Name:    "perfbench-grid",
		Sweep: &jobspec.Axes{
			CacheKiB: []uint64{2048, 4096},
			Ways:     []int{1, 4},
			Policies: []string{jobspec.PolicyHardware, jobspec.PolicyNoWriteAllocate,
				jobspec.PolicyNoReadAllocate, jobspec.PolicyDDOOff},
			Patterns:    []string{jobspec.PatternSequential, jobspec.PatternRandom, jobspec.PatternWrite},
			Seeds:       []uint32{sm.seed32(), sm.seed32()},
			SampleLines: 4096,
		},
		Telemetry: &jobspec.Telemetry{Formats: []string{jobspec.FormatCSV, jobspec.FormatJSON}},
	}
}

// gridRun is one executed grid: its rendered bytes, rows and timing.
type gridRun struct {
	csv, json []byte
	rows      []sweep.Row
	points    int
	wall      time.Duration
}

// runGridJob executes the grid once through sweep.RunJob on arena.
func runGridJob(spec jobspec.Spec, workers int, arena *sweep.Arena) (*gridRun, error) {
	t := time.Now()
	res, err := sweep.RunJob(context.Background(), spec, workers, arena)
	if err != nil {
		return nil, err
	}
	return &gridRun{csv: res.CSV, json: res.JSON, rows: res.Rows, points: len(res.Rows), wall: time.Since(t)}, nil
}

// runGridTraced executes the grid through the steps RunJob takes —
// lower and expand, run, render — with a span around each public call
// and one per point from the observe callback.
func runGridTraced(spec jobspec.Spec, workers int, arena *sweep.Arena, tr *tracer, lt *gridLayerTimes) (*gridRun, error) {
	root := tr.begin("sweep.RunJob", 0)
	t := time.Now()
	id := tr.begin("sweep.New", root)
	sp, err := sweep.FromSpec(spec)
	if err != nil {
		return nil, err
	}
	r, err := sweep.New(sp)
	if err != nil {
		return nil, err
	}
	expand := time.Since(t)
	tr.end(id)
	r.Pool = arena
	pts := r.Points()
	id = tr.begin("sweep.Runner.Run", root)
	tRun := time.Now()
	rows, err := r.Run(context.Background(), workers, func(o engine.Outcome) {
		tr.record("point", id, o.Elapsed)
		if lt == nil {
			return
		}
		i, _ := strconv.Atoi(strings.Fields(o.Job)[0])
		p := pts[i]
		lt.point(p.Geom.Policy.Ways, p.Pattern, ms(o.Elapsed))
	})
	runWall := time.Since(tRun)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("sweep.render", root)
	tRender := time.Now()
	var c, j bytes.Buffer
	if err := sweep.WriteCSV(&c, rows); err != nil {
		return nil, err
	}
	if err := sweep.WriteJSON(&j, rows); err != nil {
		return nil, err
	}
	render := time.Since(tRender)
	tr.end(id)
	tr.end(root)
	if lt != nil {
		lt.expandMS = append(lt.expandMS, ms(expand))
		lt.runMS = append(lt.runMS, ms(runWall))
		lt.renderMS = append(lt.renderMS, ms(render))
		lt.capacity += float64(workers) * ms(runWall)
	}
	return &gridRun{csv: c.Bytes(), json: j.Bytes(), rows: append([]sweep.Row(nil), rows...), points: len(rows), wall: time.Since(t)}, nil
}

// gridLayerTimes accumulates a traced grid's step times: expansion,
// the Run wall time, rendering, and the observe-callback point times.
type gridLayerTimes struct {
	mu                        sync.Mutex
	expandMS, runMS, renderMS []float64
	byClass                   map[string][]float64 // "ways1.random" -> point ms
	all                       []float64
	busy                      float64 // summed point ms
	capacity                  float64 // summed workers x Run wall ms
}

func newGridLayerTimes() *gridLayerTimes {
	return &gridLayerTimes{byClass: map[string][]float64{}}
}

// point records one completed point; observe runs on worker
// goroutines, hence the lock.
func (lt *gridLayerTimes) point(ways int, pattern string, pointMS float64) {
	k := fmt.Sprintf("ways%d.%s", ways, pattern)
	lt.mu.Lock()
	lt.byClass[k] = append(lt.byClass[k], pointMS)
	lt.all = append(lt.all, pointMS)
	lt.busy += pointMS
	lt.mu.Unlock()
}

// checkGridRows applies the Table I counter identities to every row
// whose policy allocates on both reads and writes (the identities of
// core.Validate2LM assume the hardware allocation policy).
func checkGridRows(rows []sweep.Row) error {
	for _, r := range rows {
		if r.Policy != jobspec.PolicyHardware && r.Policy != jobspec.PolicyDDOOff {
			continue
		}
		if err := core.Validate2LM(r.Counters, nil); err != nil {
			return fmt.Errorf("row %d: %w", r.Index, err)
		}
		if r.Lines == 0 {
			return fmt.Errorf("row %d simulated no demand lines", r.Index)
		}
	}
	return nil
}

// sameBytes is the grid oracle: a run's rendered CSV and JSON must be
// byte-identical to the reference run's.
func sameBytes(got, want *gridRun) error {
	if !bytes.Equal(got.csv, want.csv) {
		return fmt.Errorf("CSV differs from the reference run (%d vs %d bytes)", len(got.csv), len(want.csv))
	}
	if !bytes.Equal(got.json, want.json) {
		return fmt.Errorf("JSON differs from the reference run (%d vs %d bytes)", len(got.json), len(want.json))
	}
	return nil
}

// gridResult carries what the traced run derives layer metrics from.
type gridResult struct {
	spec    jobspec.Spec
	ref     *gridRun
	setupMS []float64
	cold    *gridLayerTimes // traced set-ups (cold arenas)
	warm    *gridLayerTimes // traced warm runs
}

// runGrid is the sweep-grid workload: repeated cold set-ups, warm grid
// runs at nproc workers then at one worker on the shared arena, every
// rendering compared byte for byte with the first.
func runGrid(cfg runConfig, tr *tracer, rep *report) (*gridResult, error) {
	spec := gridSpec(cfg.seed)
	workers := runtime.NumCPU()
	res := &gridResult{spec: spec}
	once := func(workers int, arena *sweep.Arena, lt *gridLayerTimes) (*gridRun, error) {
		if tr == nil {
			return runGridJob(spec, workers, arena)
		}
		return runGridTraced(spec, workers, arena, tr, lt)
	}
	if tr != nil {
		res.cold, res.warm = newGridLayerTimes(), newGridLayerTimes()
	}
	var arena *sweep.Arena
	for i := 0; i < setupReps; i++ {
		arena = sweep.NewArena()
		runtime.GC()
		id := tr.begin("setup", 0)
		g, err := once(workers, arena, res.cold)
		tr.end(id)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			return nil, err
		}
		res.setupMS = append(res.setupMS, ms(g.wall))
		if res.ref == nil {
			res.ref = g
			rep.check("grid rows satisfy the Table I identities", checkGridRows(g.rows))
			continue
		}
		rep.fail("cold run renders identically", sameBytes(g, res.ref))
	}

	// timed runs warm grids at the given worker count until the slice
	// ends (at least one).
	timed := func(workers int, until time.Time, pps, runMS *[]float64) error {
		for first := true; first || time.Now().Before(until); first = false {
			g, err := once(workers, arena, res.warm)
			rep.Attempted++
			if err != nil {
				rep.Failed++
				return err
			}
			rep.fail(fmt.Sprintf("warm run at %d workers renders identically", workers), sameBytes(g, res.ref))
			*pps = append(*pps, float64(g.points)/g.wall.Seconds())
			*runMS = append(*runMS, ms(g.wall))
		}
		return nil
	}
	// nproc and one worker alternate in slices until the seconds are
	// spent and each has run at least five grids.
	var pps, runMS, pps1, runMS1 []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for time.Now().Before(deadline) || len(pps) < 5 || len(pps1) < 5 {
		id := tr.begin("phase.parallel", 0)
		err := timed(workers, time.Now().Add(sliceTime), &pps, &runMS)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("phase.serial", 0)
		err = timed(1, time.Now().Add(sliceTime), &pps1, &runMS1)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}
	rep.add("setup_s", "s", median(res.setupMS)/1000, len(res.setupMS))
	rep.add("throughput_per_s", "1/s", median(pps), len(pps))
	rep.add("throughput_alt_per_s", "1/s", median(pps1), len(pps1))
	rep.add("latency_p50_ms", "ms", median(runMS1), len(runMS1))
	rep.add("peak_rss_mib", "MiB", rss, 1)
	return res, nil
}
