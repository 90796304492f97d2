package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"twolm/internal/core"
	"twolm/internal/imc"
	"twolm/internal/jobspec"
	"twolm/internal/mem"
	"twolm/internal/nvram"
	"twolm/internal/sweep"
)

// Probe lengths for the layers a workload does not exercise itself:
// every traced run prints every per-layer metric, so a demand run
// probes the sweep layer briefly, and so on. Every traced run probes
// the simd daemon, which no workload reaches; its reference phase is
// long enough for ten jobs beyond its p99.
const (
	probeDemandSeconds  = 1.0
	probeGridSeconds    = 1.0
	probeServiceSeconds = 8.0
)

// runTraced is the -trace 1 run: an untraced pass over a third of the
// seconds (the overhead baseline), the traced workload, short probes
// of the layers the workload does not reach (the simd daemon among
// them, always), the standalone layer
// drives on the workload's stream shape, and a CPU profile over all of
// it attributed to packages. Spans are written to
// .bench_build/spans-<workload>-<seed>.json when the run ends.
func runTraced(cfg runConfig, rep *report) error {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	profiling := true
	defer func() {
		if profiling {
			pprof.StopCPUProfile()
		}
	}()

	short := cfg
	short.seconds = cfg.seconds / 3
	base := &report{}
	if err := workloads[cfg.workload](short, nil, base); err != nil {
		return err
	}
	tr := newTracer(cfg.workload)
	wrep := &report{}
	lm := &layerSet{}
	var sh shape
	var demand *demandResult
	var grid *gridResult
	var err error
	switch cfg.workload {
	case "seq-demand", "rand-demand":
		demand, err = runDemand(cfg, cfg.workload == "rand-demand", tr, wrep)
		if err == nil {
			sh = demandShape(demand)
		}
	case "sweep-grid":
		grid, err = runGrid(cfg, tr, wrep)
		if err == nil {
			sh, err = gridShape(grid.spec)
		}
	}
	if err != nil {
		return err
	}
	tb, _ := base.value("latency_p50_ms")
	tt, _ := wrep.value("latency_p50_ms")
	overhead := tt / tb

	// Probes of the layers this workload does not exercise.
	probe := func(seconds float64) runConfig {
		p := cfg
		p.seconds = seconds
		return p
	}
	prep := &report{}
	if demand == nil {
		if demand, err = runDemand(probe(probeDemandSeconds), true, tr, prep); err != nil {
			return err
		}
	}
	if grid == nil {
		if grid, err = runGrid(probe(probeGridSeconds), tr, prep); err != nil {
			return err
		}
	}
	svc, err := runService(probe(probeServiceSeconds), tr, prep)
	if err != nil {
		return err
	}

	drives, err := runLayerDrives(sh, tr)
	if err != nil {
		return err
	}
	lm.metrics = append(lm.metrics, drives.metrics...)
	if err := lm.coreMetrics(demand, tr); err != nil {
		return err
	}
	lm.countMetrics(cfg.workload, demand, grid, drives)
	lm.gridMetrics(grid)
	if err := lm.jobspecMetrics(svc.docs); err != nil {
		return err
	}
	lm.serviceMetrics(svc)
	lm.add("trace.overhead_ratio", "ratio", overhead, 1)

	pprof.StopCPUProfile()
	profiling = false
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}
	for _, p := range cpuPackages {
		lm.add(p+".cpu_share", "ratio", shares[p], 1)
	}
	rep.notef("cpu share outside the listed packages (net/http, encoding, ...): %.3f", shares["other"]+shares["perfbench"])

	spans := tr.finish()
	if err := writeSpans(cfg, spans); err != nil {
		return err
	}
	noteSelfTimes(rep, spans)
	rep.notef("tracing overhead: traced latency_p50_ms %.4g vs untraced %.4g", tt, tb)
	for _, r := range []*report{base, wrep, prep} {
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		rep.Notes = append(rep.Notes, r.Notes...)
	}
	rep.Metrics = lm.metrics
	return nil
}

// layerSet collects the per-layer metrics.
type layerSet struct{ metrics []metric }

func (l *layerSet) add(name, unit string, v float64, n int) {
	l.metrics = append(l.metrics, metric{Name: name, Unit: unit, Value: v, N: n})
}

// demandShape is the demand systems' geometry and region.
func demandShape(d *demandResult) shape {
	sys := d.rigs[core.Mode2LM].sys
	return shape{
		dramBytes:  sys.DRAM().Capacity(),
		channels:   sys.DRAM().Channels(),
		nvramBytes: sys.NVRAM().Capacity(),
		dimms:      sys.NVRAM().DIMMs(),
		lines:      d.rigs[core.Mode2LM].region.Lines(),
		seed:       d.in.passSeed(0),
	}
}

// gridShape is the geometry of the document's first expanded point,
// with its full footprint as the stream.
func gridShape(spec jobspec.Spec) (shape, error) {
	sp, err := sweep.FromSpec(spec)
	if err != nil {
		return shape{}, err
	}
	pts, err := sweep.Expand(sp)
	if err != nil {
		return shape{}, err
	}
	g := pts[len(pts)-1].Geom
	return shape{
		dramBytes:  g.CacheBytes,
		channels:   g.Channels,
		nvramBytes: g.NVRAMBytes,
		dimms:      g.DIMMs,
		lines:      g.Lines,
		seed:       pts[len(pts)-1].Seed,
	}, nil
}

// coreMetrics: the 2LM pass time and its self time, i.e. minus a
// standalone imc drive of the same stream on a fresh controller.
func (l *layerSet) coreMetrics(d *demandResult, tr *tracer) error {
	pass := median(d.phases[core.Mode2LM].passMS)
	sh := demandShape(d)
	ctrl, err := sh.newController(1)
	if err != nil {
		return err
	}
	var drive func()
	if d.in.random {
		addrs, err := sh.lfsrAddrs()
		if err != nil {
			return err
		}
		reqs := make([]imc.Req, len(addrs))
		for i, a := range addrs {
			if i&1 == 0 {
				reqs[i] = imc.ReadReq(a)
			} else {
				reqs[i] = imc.WriteReq(a)
			}
		}
		drive = func() {
			for i := 0; i < len(reqs); i += 2048 {
				ctrl.LLCScatter(reqs[i:min(i+2048, len(reqs))])
			}
		}
	} else {
		drive = func() {
			ctrl.LLCReadRange(0, sh.lines)
			ctrl.LLCWriteRange(0, sh.lines)
		}
	}
	drive()
	id := tr.begin("core.self-baseline", 0)
	imcPass := repeat(tr, "imc drive", id, drive)
	tr.end(id)
	n := len(d.phases[core.Mode2LM].passMS)
	l.add("core.pass_ms", "ms", pass, n)
	l.add("core.self_ms", "ms", pass-ms(imcPass), n)
	return nil
}

// countMetrics are the deterministic event counts: a fixed amount of
// work per seed, so they repeat exactly across runs with the same
// seed. Demand workloads count the per-line reference replays (2LM
// for imc and dram; both modes for nvram); sweep-grid counts the rows
// of one grid run, with the per-channel balance from the standalone
// scatter drive.
func (l *layerSet) countMetrics(workload string, d *demandResult, g *gridResult, drives *layerDrives) {
	var ctr imc.Counters
	var casR, casW, mediaR, mediaW, nvW uint64
	imbalance := channelImbalance(drives.imc)
	switch workload {
	case "seq-demand", "rand-demand":
		ref := d.refs[core.Mode2LM]
		ctr = ref.Counters()
		casR, casW = ref.DRAM().TotalReads(), ref.DRAM().TotalWrites()
		imbalance = channelImbalance(ref.Controller())
		for _, m := range []core.Mode{core.Mode2LM, core.Mode1LM} {
			nv := d.refs[m].NVRAM()
			mediaR += nv.TotalMediaReads()
			mediaW += nv.TotalMediaWrites()
			nvW += nv.TotalWrites()
		}
	default:
		for _, r := range g.ref.rows {
			ctr = ctr.Add(r.Counters)
			mediaR += r.MediaReads
			mediaW += r.MediaWrites
		}
		casR, casW, nvW = ctr.DRAMRead, ctr.DRAMWrite, ctr.NVRAMWrite
	}
	l.add("imc.hit_rate", "ratio", ctr.HitRate(), 1)
	l.add("imc.tag_miss_dirty", "count", float64(ctr.TagMissDirty), 1)
	l.add("imc.ddo", "count", float64(ctr.DDO), 1)
	l.add("imc.amplification", "ratio", ctr.Amplification(), 1)
	l.add("dram.cas_reads", "count", float64(casR), 1)
	l.add("dram.cas_writes", "count", float64(casW), 1)
	l.add("dram.channel_imbalance", "ratio", imbalance, 1)
	l.add("nvram.media_reads", "count", float64(mediaR), 1)
	l.add("nvram.media_writes", "count", float64(mediaW), 1)
	wa := 1.0
	if nvW > 0 {
		wa = float64(mediaW*nvram.MediaBlock) / float64(nvW*mem.Line)
	}
	l.add("nvram.write_amplification", "ratio", wa, 1)
}

// channelImbalance is the busiest channel's CAS count over the mean.
func channelImbalance(c *imc.Controller) float64 {
	chs := c.DRAM.ChannelCounters()
	var sum, most float64
	for _, ch := range chs {
		v := float64(ch.CASReads + ch.CASWrites)
		sum += v
		most = math.Max(most, v)
	}
	if sum == 0 {
		return 1
	}
	return most / (sum / float64(len(chs)))
}

// gridMetrics: expansion, cold run, point times by class, worker busy
// share and rendering.
func (l *layerSet) gridMetrics(g *gridResult) {
	l.add("sweep.expand_ms", "ms", median(g.cold.expandMS), len(g.cold.expandMS))
	l.add("sweep.cold_run_ms", "ms", median(g.cold.runMS), len(g.cold.runMS))
	w := g.warm
	l.add("sweep.point_ms_p50", "ms", median(w.all), len(w.all))
	l.add("sweep.point_ms_p99", "ms", quantile(w.all, 0.99), len(w.all))
	for _, ways := range splitWays {
		for _, p := range splitPatterns {
			xs := w.byClass[fmt.Sprintf("ways%d.%s", ways, p)]
			l.add(fmt.Sprintf("sweep.point_ms_p50.ways%d.%s", ways, p), "ms", median(xs), len(xs))
		}
	}
	l.add("engine.worker_busy_share", "ratio", w.busy/w.capacity, len(w.runMS))
	l.add("sweep.render_ms", "ms", median(w.renderMS), len(w.renderMS))
}

// jobspecMetrics times jobspec.Decode (which validates) and Validate
// alone on the service documents.
func (l *layerSet) jobspecMetrics(docs []svcDoc) error {
	var dec, val []float64
	for rep := 0; rep < 20; rep++ {
		for _, d := range docs {
			t := time.Now()
			s, err := jobspec.Decode(bytes.NewReader(d.body))
			dec = append(dec, float64(time.Since(t))/float64(time.Microsecond))
			if err != nil {
				return err
			}
			t = time.Now()
			err = s.Validate()
			val = append(val, float64(time.Since(t))/float64(time.Microsecond))
			if err != nil {
				return err
			}
		}
	}
	l.add("jobspec.decode_us", "us", median(dec), len(dec))
	l.add("jobspec.validate_us", "us", median(val), len(val))
	return nil
}

// serviceMetrics are the client-timed simd layer figures of the
// reference-rate phase.
func (l *layerSet) serviceMetrics(s *serviceResult) {
	var submit, run, wait, fetch, lag []float64
	var polls int
	for i, jt := range s.ref.jobs {
		if s.ref.errs[i] != nil {
			continue
		}
		submit = append(submit, ms(jt.submit))
		run = append(run, ms(jt.run))
		fetch = append(fetch, ms(jt.fetch))
		wait = append(wait, ms(jt.latency-jt.run-jt.submit-jt.fetch))
		lag = append(lag, ms(jt.lag))
		polls += jt.polls
	}
	n := len(submit)
	l.add("simd.job_ms_p99", "ms", s.p99, len(s.ref.jobs))
	l.add("simd.max_rate_jobs_per_s", "1/s", s.maxRate, 1)
	l.add("simd.submit_ms_p50", "ms", median(submit), n)
	l.add("simd.submit_ms_p99", "ms", quantile(submit, 0.99), n)
	// The daemon reports run time in whole milliseconds, so the mean
	// keeps the sub-millisecond signal a median would round away.
	l.add("simd.run_ms_mean", "ms", mean(run), n)
	l.add("simd.queue_wait_ms_p50", "ms", median(wait), n)
	l.add("simd.fetch_ms_p50", "ms", median(fetch), n)
	l.add("simd.polls_per_job", "count", float64(polls)/float64(max(n, 1)), n)
	l.add("simd.rejected", "count", float64(s.rejected), s.jobs)
	l.add("simd.rss_mib_per_1k_jobs", "MiB", s.rssPer1k, s.jobs)
	l.add("simd.gen_lag_ms_p99", "ms", quantile(lag, 0.99), n)
}

// writeSpans writes every span as JSON under .bench_build.
func writeSpans(cfg runConfig, spans []span) error {
	dir := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed)), b, 0o644)
}

// noteSelfTimes prints the ten span names with the most self time.
func noteSelfTimes(rep *report, spans []span) {
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for i, k := range names {
		if i == 10 {
			break
		}
		rep.notef("span self time %-36s %10.1f ms", k, self[k])
	}
	rep.notef("%d spans recorded", len(spans))
}
