package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"twolm/internal/jobspec"
	"twolm/internal/sweep"
)

// Service load parameters. The reference rate sits well below the
// knee on a two-core host; the ladder climbs from it in 5% steps.
const (
	svcRefRate    = 250.0                  // jobs/s for job_p50/p99
	svcLadderStep = 1.05                   // ratio between ladder rates
	svcStepTime   = 500 * time.Millisecond // arrivals per ladder step
	svcLatencyCap = 20 * time.Millisecond  // p99 limit a passing step meets
	svcPointDocs  = 36                     // point documents per run
	svcGridDocs   = 12                     // grid documents per run
	svcPoll       = 200 * time.Microsecond // status poll interval
)

// svcDoc is one generated job document with its expected result.
type svcDoc struct {
	body []byte
	spec jobspec.Spec
	csv  []byte // in-process sweep.RunJob output, the oracle
	rows []sweep.Row
}

// serviceDocs generates the document pool from the seed: point jobs
// shaped like examples/jobspec_quick.json and a minority of four-point
// grids. Every document's class — capacity, pattern, policy, ways,
// channels and ratio of a point, policy of a grid — is fixed by its
// index, so the seed changes the LFSR seeds and the order of the pool
// but not the cost of the mix: run-to-run differences in the service
// figures are then the service's, not the draw's.
func serviceDocs(seed uint64) ([]svcDoc, error) {
	sm := splitmix(seed ^ 0x51D0C5)
	policies := []string{jobspec.PolicyHardware, jobspec.PolicyNoWriteAllocate, jobspec.PolicyNoReadAllocate, jobspec.PolicyDDOOff}
	patterns := []string{jobspec.PatternRandom, jobspec.PatternSequential, jobspec.PatternWrite}
	caps := []uint64{128, 256, 512}
	docs := make([]svcDoc, svcGridDocs+svcPointDocs)
	for i := range docs {
		var s jobspec.Spec
		if i < svcGridDocs {
			s = jobspec.Spec{
				Version: jobspec.Version,
				Name:    fmt.Sprintf("grid-%d", i),
				Sweep: &jobspec.Axes{
					CacheKiB:    []uint64{128, 256},
					Patterns:    []string{jobspec.PatternSequential, jobspec.PatternRandom},
					Seeds:       []uint32{sm.seed32()},
					Policies:    []string{policies[i%len(policies)]},
					SampleLines: 2048,
				},
				Telemetry: &jobspec.Telemetry{Formats: []string{jobspec.FormatCSV, jobspec.FormatJSON}},
			}
		} else {
			// 36 = capacity x pattern x policy; ways, channels and
			// ratio alternate along the index.
			k := i - svcGridDocs
			s = jobspec.Spec{
				Version:  jobspec.Version,
				Name:     fmt.Sprintf("point-%d", i),
				Geometry: &jobspec.Geometry{CacheKiB: caps[k%3], Ways: 1 + k%2, Channels: 1 + k/4%2, DIMMs: 1},
				Policy:   policies[k/9%4],
				Workload: &jobspec.Workload{
					Pattern: patterns[k/3%3],
					Ratio:   []uint64{2, 4}[k/8%2],
					Seed:    sm.seed32(),
					Passes:  1,
				},
				Telemetry: &jobspec.Telemetry{SampleLines: 4096, Formats: []string{jobspec.FormatCSV, jobspec.FormatJSON}},
			}
		}
		body, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		res, err := sweep.RunJob(context.Background(), s, 1, nil)
		if err != nil {
			return nil, fmt.Errorf("document %d: %w", i, err)
		}
		docs[i] = svcDoc{body: body, spec: s, csv: res.CSV, rows: res.Rows}
	}
	shuffle(&sm, docs)
	return docs, nil
}

// shuffle permutes xs in place from sm (Fisher-Yates).
func shuffle[T any](sm *splitmix, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := sm.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// sleepPrecise blocks the calling goroutine's thread for d with
// nanosleep. time.Sleep below a millisecond rounds up to about one
// millisecond on an idle Linux Go process, which would quantize every
// poll and every due-time wait; nanosleep wakes within tens of
// microseconds. Callers are the few client goroutines, so the threads
// it parks are few.
func sleepPrecise(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// daemon is one running simd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs simd with its default worker count and waits until
// /healthz answers 200.
func startDaemon(bin string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	t := time.Now()
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			return nil, fmt.Errorf("simd exited before serving: %v", err)
		default:
		}
		sleepPrecise(svcPoll)
		if time.Since(t) > 30*time.Second {
			d.stop()
			return nil, fmt.Errorf("simd did not become healthy within 30 s")
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain outlasts its own grace period.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// procKiB reads one kB-valued field of /proc/<pid>/status in MiB.
func procMiB(pid, field string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(field+":")) {
			var kib float64
			fmt.Sscanf(string(bytes.TrimPrefix(line, []byte(field+":"))), "%g", &kib)
			return kib / 1024
		}
	}
	return math.NaN()
}

// jobTiming is one job's client-side record.
type jobTiming struct {
	latency, lag, submit, fetch, run time.Duration
	polls                            int
}

// client drives the daemon over nproc keep-alive connections.
type client struct {
	base string
	http *http.Client
	docs []svcDoc
	tr   *tracer
}

func newClient(base string, docs []svcDoc, tr *tracer) *client {
	n := runtime.NumCPU()
	return &client{
		base: base,
		docs: docs,
		tr:   tr,
		http: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: n, MaxConnsPerHost: n, DisableCompression: true,
		}},
	}
}

// errSkipped marks a job an overloaded step never started.
var errSkipped = errors.New("skipped: step backlog exceeded the drain cap")

// errRefused marks a 429 admission refusal.
var errRefused = errors.New("refused (429)")

// do runs one job: POST, status polls until terminal, GET the CSV
// result and compare it with the in-process oracle.
func (c *client) do(doc *svcDoc, parent int) (jt jobTiming, err error) {
	job := c.tr.begin("simd.job", parent)
	defer c.tr.end(job)
	id := c.tr.begin("http.POST /v1/jobs", job)
	t := time.Now()
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(doc.body))
	if err != nil {
		return jt, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	jt.submit = time.Since(t)
	c.tr.end(id)
	if err != nil {
		return jt, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return jt, errRefused
	}
	if resp.StatusCode != http.StatusAccepted {
		return jt, fmt.Errorf("POST: HTTP %d: %s", resp.StatusCode, body)
	}
	var adm struct{ ID string }
	if err := json.Unmarshal(body, &adm); err != nil {
		return jt, err
	}
	for {
		id := c.tr.begin("http.GET /v1/jobs/{id}", job)
		resp, err := c.http.Get(c.base + "/v1/jobs/" + adm.ID)
		if err != nil {
			return jt, err
		}
		var st struct {
			Status    string `json:"status"`
			Error     string `json:"error"`
			ElapsedMS int64  `json:"elapsed_ms"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		c.tr.end(id)
		jt.polls++
		if err != nil {
			return jt, err
		}
		if st.Status == "done" {
			jt.run = time.Duration(st.ElapsedMS) * time.Millisecond
			break
		}
		if st.Status != "queued" && st.Status != "running" {
			return jt, fmt.Errorf("job %s ended %s: %s", adm.ID, st.Status, st.Error)
		}
		sleepPrecise(svcPoll)
	}
	id = c.tr.begin("http.GET /v1/jobs/{id}/result", job)
	t = time.Now()
	resp, err = c.http.Get(c.base + "/v1/jobs/" + adm.ID + "/result?format=csv")
	if err != nil {
		return jt, err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	jt.fetch = time.Since(t)
	c.tr.end(id)
	if err != nil {
		return jt, err
	}
	if resp.StatusCode != http.StatusOK {
		return jt, fmt.Errorf("GET result: HTTP %d", resp.StatusCode)
	}
	if !bytes.Equal(got, doc.csv) {
		return jt, fmt.Errorf("job %s result differs from in-process sweep.RunJob (%d vs %d bytes)", adm.ID, len(got), len(doc.csv))
	}
	return jt, nil
}

// stepResult summarizes one fixed-rate open-loop step.
type stepResult struct {
	rate       float64
	jobs       []jobTiming
	errs       []error
	backlog    int64 // jobs due but not finished when the arrivals ended
	completed  int   // jobs finished within the arrival window
	window     time.Duration
	refused    int
	failed     int
	skipped    int
	latencyP99 time.Duration
}

// openLoop offers Poisson arrivals at rate for dur. Each job is timed
// from its due time, not from when a client goroutine got to it, so a
// saturated client shows up as latency (and as generator lag) instead
// of silently lowering the offered load. Arrival times are generated
// from sm before the step starts.
func (c *client) openLoop(sm *splitmix, rate float64, dur time.Duration, parent int) *stepResult {
	var due []time.Duration
	for t := 0.0; ; {
		t += -math.Log(1-sm.float()) / rate
		if t >= dur.Seconds() {
			break
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	docIdx := docCycle(sm, len(c.docs), len(due))
	res := &stepResult{rate: rate, jobs: make([]jobTiming, len(due)), errs: make([]error, len(due))}
	var next, finished atomic.Int64
	var finishedInWindow atomic.Int64
	start := time.Now()
	windowEnd := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				sleepPrecise(time.Until(at))
				lag := time.Since(at)
				if time.Since(windowEnd) > svcDrainCap {
					res.errs[i] = errSkipped
					finished.Add(1)
					continue
				}
				jt, err := c.do(&c.docs[docIdx[i]], parent)
				jt.lag = lag
				jt.latency = time.Since(at)
				res.jobs[i], res.errs[i] = jt, err
				if time.Now().Before(windowEnd) {
					finishedInWindow.Add(1)
				}
				finished.Add(1)
			}
		}()
	}
	time.Sleep(time.Until(windowEnd))
	dueByEnd := int64(sort.Search(len(due), func(i int) bool { return due[i] > dur }))
	res.backlog = dueByEnd - finished.Load()
	res.window = time.Since(start)
	wg.Wait()
	res.completed = int(finishedInWindow.Load())
	res.tally()
	return res
}

// tally counts the step's refused, skipped and failed jobs and takes
// its latency p99.
func (s *stepResult) tally() {
	for _, err := range s.errs {
		switch {
		case errors.Is(err, errRefused):
			s.refused++
		case errors.Is(err, errSkipped):
			s.skipped++
		case err != nil:
			s.failed++
		}
	}
	if lat := s.latenciesMS(); len(lat) > 0 {
		p99 := quantile(lat, 0.99)
		s.latencyP99 = time.Duration(math.MaxInt64)
		if !math.IsInf(p99, 1) {
			s.latencyP99 = time.Duration(p99 * float64(time.Millisecond))
		}
	}
}

// docCycle returns n pool indices that visit every one of the pool's
// documents once per cycle, each cycle in a fresh order drawn from sm,
// so any stretch of arrivals carries the pool's mix.
func docCycle(sm *splitmix, pool, n int) []int {
	out := make([]int, 0, n+pool)
	perm := make([]int, pool)
	for i := range perm {
		perm[i] = i
	}
	for len(out) < n {
		shuffle(sm, perm)
		out = append(out, perm...)
	}
	return out[:n]
}

// latenciesMS returns every job's due-to-result latency in ms, with
// refused, skipped and failed jobs as +Inf: they missed any limit.
func (s *stepResult) latenciesMS() []float64 {
	lat := make([]float64, 0, len(s.jobs))
	for i, jt := range s.jobs {
		if s.errs[i] != nil {
			lat = append(lat, math.Inf(1))
		} else {
			lat = append(lat, ms(jt.latency))
		}
	}
	return lat
}

// passes reports whether a ladder step sustained its rate: p99 within
// the latency cap, no refusals or failures, and a backlog that did not
// grow over the step. Every step starts with nothing in flight (the
// previous one drained), so the jobs in flight when its arrivals end
// are the backlog's growth.
func (s *stepResult) passes() bool {
	grew := s.backlog > int64(8+0.05*float64(len(s.jobs)))
	return s.latencyP99 <= svcLatencyCap && s.refused == 0 && s.failed == 0 && s.skipped == 0 && !grew
}

// serviceResult carries what the traced run derives the simd layer
// metrics from.
type serviceResult struct {
	docs     []svcDoc
	ref      *stepResult
	jobs     int     // jobs issued over the whole run
	rssPer1k float64 // daemon RSS growth per 1000 jobs (MiB)
	rejected int     // 429s over the whole run
	p99      float64 // reference-rate job latency p99 (ms)
	maxRate  float64 // ladder maximum
}

// svcDrainCap bounds how long an overloaded ladder step may keep
// draining its backlog; jobs still not started by then are skipped and
// the step fails.
const svcDrainCap = time.Second

// runService is the simd probe of the traced run: one daemon start-up,
// an open-loop phase at the reference rate, then the rate ladder for
// the sustainable maximum. It is not a workload of its own: two
// processes and their HTTP, worker and client threads on a host of few
// cores time the scheduler as much as the daemon, so its figures are
// per-layer ones, without a bound.
func runService(cfg runConfig, tr *tracer, rep *report) (*serviceResult, error) {
	if cfg.simd == "" {
		return nil, fmt.Errorf("the simd probe needs -simd")
	}
	id := tr.begin("oracle.documents", 0)
	docs, err := serviceDocs(cfg.seed)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	res := &serviceResult{docs: docs}
	id = tr.begin("setup", 0)
	d, err := startDaemon(cfg.simd)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	c := newClient(d.base, docs, tr)
	sm := splitmix(cfg.seed ^ 0xA771)
	total := time.Duration(cfg.seconds * float64(time.Second))
	// account tallies a warm-up or ladder step. Overload (refusals,
	// skipped jobs, missed latency) is expected above the knee, but an
	// error response or a wrong result is a failure at any rate.
	account := func(s *stepResult) {
		res.jobs += len(s.jobs)
		res.rejected += s.refused
		for _, err := range s.errs {
			if errors.Is(err, errRefused) || errors.Is(err, errSkipped) {
				continue
			}
			rep.Attempted++
			if err != nil {
				rep.Failed++
				rep.notef("%.0f jobs/s step: %v", s.rate, err)
			}
		}
	}

	// Warm the connections and the daemon's arena, then measure.
	id = tr.begin("phase.warm", 0)
	account(c.openLoop(&sm, svcRefRate, 300*time.Millisecond, id))
	tr.end(id)
	rss0 := procMiB(d.pid(), "VmRSS")
	jobs0 := res.jobs

	id = tr.begin("phase.reference", 0)
	ref := c.openLoop(&sm, svcRefRate, total*55/100, id)
	tr.end(id)
	res.ref = ref
	res.jobs += len(ref.jobs)
	res.rejected += ref.refused
	rep.Attempted += int64(len(ref.jobs))
	rep.Failed += int64(ref.refused + ref.failed + ref.skipped)
	for i, err := range ref.errs {
		if err != nil {
			rep.notef("reference rate job %d: %v", i, err)
			break
		}
	}

	id = tr.begin("phase.ladder", 0)
	res.maxRate = c.ladder(&sm, ref, total*45/100, id, account, rep)
	tr.end(id)
	rss1 := procMiB(d.pid(), "VmRSS")
	if n := res.jobs - jobs0; n > 0 {
		res.rssPer1k = (rss1 - rss0) / float64(n) * 1000
	}

	lat := ref.latenciesMS()
	res.p99 = quantile(lat, 0.99)
	rep.notef("simd reference rate %.0f jobs/s: p50 %.3f ms, p99 %.3f ms over %d jobs",
		svcRefRate, median(lat), res.p99, len(lat))
	return res, nil
}

// ladder offers open-loop steps at rates svcRefRate * svcLadderStep^k
// for budget: it gallops up from the reference rate eight rungs at a
// time until a step fails, then bisects between the last passing and
// first failing rung. It returns the completion rate of the highest passing step
// (max_rate_jobs_per_s), 0 when none passed.
func (c *client) ladder(sm *splitmix, ref *stepResult, budget time.Duration, parent int, account func(*stepResult), rep *report) float64 {
	rate := func(k int) float64 { return svcRefRate * math.Pow(svcLadderStep, float64(k)) }
	end := time.Now().Add(budget)
	kPass, kFail := -1, -1
	var best *stepResult
	if ref.passes() {
		kPass, best = 0, ref
	}
	const jump = 8 // rungs per galloping step, x1.48 in rate
	for time.Now().Before(end) {
		k := kPass + jump
		if kFail >= 0 {
			if kFail-kPass <= 1 {
				break
			}
			k = (kPass + kFail) / 2
		}
		if k < 0 {
			break
		}
		s := c.openLoop(sm, rate(k), svcStepTime, parent)
		account(s)
		if s.passes() {
			kPass, best = k, s
		} else {
			kFail = k
		}
	}
	rung := func(k int) string {
		if k < 0 {
			return "none"
		}
		return fmt.Sprintf("%.1f jobs/s", rate(k))
	}
	rep.notef("ladder: highest passing rung %s, first failing rung %s", rung(kPass), rung(kFail))
	if best == nil {
		rep.notef("no ladder step met the p99 limit of %v", svcLatencyCap)
		return 0
	}
	return float64(best.completed) / best.window.Seconds()
}
