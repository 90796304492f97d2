package telemetry

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// goldenSeries records the interval series of interval_csv.golden the
// way core.System.Sync does: cumulative counters, the clock advanced by
// each interval's duration, and the interval label. Interval 6 is idle.
func goldenSeries() *Recorder {
	labels := []string{"setup", "fwd:conv0", "fwd:bn0", "", "fwd:relu0", "move:conv1", "", "bwd:conv1", "bwd:bn0", "stash:bn0", "", "drain"}
	r := NewRecorder()
	var cum Sample
	for i := 0; i < 24; i++ {
		k := uint64(i)
		dt := 0.0013*float64(i%5+1) + 0.00071*float64(i%3)
		if i != 6 {
			cum.DRAMRead += 1000 * (1000 + 37*k)
			cum.DRAMWrite += 1000 * (400 + 11*k*k%97)
			cum.NVRAMRead += 1000 * (250 + 13*(k%7))
			cum.NVRAMWrite += 1000 * 60 * (k % 4)
			cum.TagHit += 900 + k
			cum.TagMissClean += 50 + 3*k
			cum.TagMissDirty += 20 + k%5
			cum.DDO += k % 3
			cum.LLCRead += 1200 + 5*k
			cum.LLCWrite += 300 + k
		} else {
			dt = 0
		}
		cum.Demand = cum.LLCRead + cum.LLCWrite
		cum.Clock += dt
		cum.Label = labels[i%len(labels)]
		r.Record(cum)
	}
	return r
}

// TestSampleBandwidths checks the per-interval bandwidths the trace CSV
// reports: 64-byte lines over the interval's duration, and 0 for an
// interval of zero duration.
func TestSampleBandwidths(t *testing.T) {
	s := Sample{Clock: 0.5, DRAMRead: 1000, DRAMWrite: 500, NVRAMRead: 250, NVRAMWrite: 125}
	if got := s.DRAMReadBW(); got != float64(1000*64)/0.5 {
		t.Errorf("DRAMReadBW = %g", got)
	}
	if got := s.DRAMWriteBW(); got != float64(500*64)/0.5 {
		t.Errorf("DRAMWriteBW = %g", got)
	}
	if got := s.NVRAMReadBW(); got != float64(250*64)/0.5 {
		t.Errorf("NVRAMReadBW = %g", got)
	}
	if got := s.NVRAMWriteBW(); got != float64(125*64)/0.5 {
		t.Errorf("NVRAMWriteBW = %g", got)
	}
	zero := Sample{DRAMRead: 1000, NVRAMWrite: 125}
	if zero.DRAMReadBW() != 0 || zero.NVRAMWriteBW() != 0 {
		t.Error("zero-duration sample should report 0 rates")
	}
}

// TestWriteIntervalCSVGolden pins the per-kernel trace format: a plain
// series, a rebinned one and a window with a non-zero base must match,
// byte for byte, the output of the interval-delta writer this format
// came from (testdata/interval_csv.golden).
func TestWriteIntervalCSVGolden(t *testing.T) {
	r := goldenSeries()
	var sb strings.Builder
	for _, part := range []struct {
		title string
		rec   *Recorder
	}{
		{"# plain\n", r},
		{"# rebin 0.01\n", r.Rebin(0.01)},
		{"# window 9\n", r.Window(9)},
	} {
		sb.WriteString(part.title)
		if err := part.rec.WriteIntervalCSV(&sb); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/interval_csv.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("interval CSV drifted from the golden file:\n%s", got)
	}
}

// intervals records n cumulative samples of dt seconds each, every one
// adding c to the counters.
func intervals(n int, dt float64, c Sample) *Recorder {
	r := NewRecorder()
	var cum Sample
	for i := 0; i < n; i++ {
		cum.DRAMRead += c.DRAMRead
		cum.NVRAMWrite += c.NVRAMWrite
		cum.Clock = float64(i+1) * dt
		r.Record(cum)
	}
	return r
}

func TestRebin(t *testing.T) {
	r := intervals(10, 0.1, Sample{DRAMRead: 1})
	binned := r.Rebin(0.5)
	if binned.Len() != 2 {
		t.Fatalf("Rebin produced %d bins, want 2", binned.Len())
	}
	for _, b := range binned.Deltas() {
		if b.DRAMRead != 5 {
			t.Errorf("bin = %+v, want 5 reads", b)
		}
	}
	// Totals must be conserved.
	if binned.Last().DRAMRead != r.Last().DRAMRead {
		t.Error("Rebin lost counter events")
	}
	// Degenerate widths return the original series.
	if r.Rebin(0) != r {
		t.Error("Rebin(0) should be identity")
	}
}

func TestRebinConservesPartialTail(t *testing.T) {
	r := intervals(7, 0.1, Sample{NVRAMWrite: 2})
	if got := r.Rebin(0.3).Last().NVRAMWrite; got != 14 {
		t.Errorf("partial tail dropped: total = %d", got)
	}
}

// TestWindowRebasesOnPrecedingSample: a window counts from the sample
// before it, so its first interval is that interval alone, not the
// total since reset.
func TestWindowRebasesOnPrecedingSample(t *testing.T) {
	r := intervals(4, 0.25, Sample{DRAMRead: 3})
	w := r.Window(2)
	if w.Len() != 2 || w.Last().DRAMRead != 6 || w.Last().Clock != 1 {
		t.Fatalf("window = %+v", w.Samples())
	}
	d := w.Deltas()[0]
	if d.DRAMRead != 3 || d.Clock != 0.25 {
		t.Errorf("first window interval = %+v, want 3 reads over 0.25 s", d)
	}
	if full := r.Window(0); !reflect.DeepEqual(full.Samples(), r.Samples()) {
		t.Error("Window(0) should equal the series")
	}
}
