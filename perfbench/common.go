package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one reported figure. N is the number of samples the value
// summarizes (1 for a single measurement or a count).
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// report is what one workload run produces. Attempted counts every
// operation the run issued (passes, grid runs, jobs, oracle checks);
// Failed counts errors, refusals, non-done jobs and oracle mismatches.
type report struct {
	Attempted int64
	Failed    int64
	Metrics   []metric
	Notes     []string
}

func (r *report) add(name, unit string, value float64, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: value, N: n})
}

// check records one oracle comparison: it counts as attempted, and as
// failed (with a note naming it) when err is non-nil.
func (r *report) check(what string, err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.notef("oracle mismatch: %s: %v", what, err)
	}
}

// fail counts err (when non-nil) as a failed operation without
// counting a new attempt — for checks on an operation already counted.
func (r *report) fail(what string, err error) {
	if err != nil {
		r.Failed++
		r.notef("oracle mismatch: %s: %v", what, err)
	}
}

func (r *report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// value returns the named metric's value and whether it is present.
func (r *report) value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// emit prints the human-readable lines (notes, one line per metric
// with its unit and sample count) followed by the single JSON result
// object as the last line of standard output.
func (r *report) emit(w io.Writer, correct bool) error {
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	sorted := append([]metric(nil), r.Metrics...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	values := make(map[string]any, len(sorted))
	for _, m := range sorted {
		fmt.Fprintf(w, "metric %-40s %18.6g %-8s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		values[m.Name] = map[string]any{"value": finite(m.Value), "unit": m.Unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   values,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// finite maps NaN and infinities (an empty sample set) to 0 so the
// result stays valid JSON; the text lines still show n=0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (NaN for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// splitmix derives well-mixed 64-bit values from the run seed, so
// every generated input is a pure function of --seed.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// seed32 returns a nonzero 32-bit seed.
func (s *splitmix) seed32() uint32 {
	for {
		if v := uint32(s.next()); v != 0 {
			return v
		}
	}
}

// intn returns a value in [0, n).
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// float returns a value in [0, 1).
func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// peakRSSMiB reads VmHWM (peak resident set) of a process from
// /proc/<pid>/status; pid "self" reads this process.
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kib float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%g", &kib); err != nil {
				return 0, err
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// span is one traced interval of the benchmark's own calls into the
// program. Times are offsets from the tracer's start.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Self   float64 `json:"self_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// valid and records nothing, so untraced runs pay one nil check per
// call site. Parent 0 means a root span; ids start at 1.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   string
	spans []span
}

func newTracer(run string) *tracer { return &tracer{t0: time.Now(), run: run} }

func (t *tracer) since() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.since()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-finished span that ended now and lasted d
// (worker-side intervals reported after the fact).
func (t *tracer) record(name string, parent int, d time.Duration) {
	if t == nil {
		return
	}
	now := t.since()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		Start: now - float64(d)/float64(time.Microsecond), End: now})
	t.mu.Unlock()
}

// finish computes every span's self time (duration minus the summed
// durations of its children) and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - child[s.ID]
	}
	return append([]span(nil), t.spans...)
}

// selfByName sums self time (ms) per span name.
func selfByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.Self / 1000
	}
	return out
}
