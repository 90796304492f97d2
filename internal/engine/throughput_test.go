package engine

import (
	"fmt"
	"reflect"
	"testing"

	"twolm/internal/core"
	"twolm/internal/mem"
)

// TestRandPassZeroAllocs pins the steady-state allocation contract of
// the random demand path: after one warm-up pass has sized the batch
// builder's buffers and the controller's dispatch scratch, a full
// random pass performs zero heap allocations. The CI benchmark run
// asserts the same with -benchmem; this test catches regressions in
// the plain test suite.
func TestRandPassZeroAllocs(t *testing.T) {
	for _, mode := range []core.Mode{core.Mode2LM, core.Mode1LM} {
		t.Run(mode.String(), func(t *testing.T) {
			// A large scale divisor keeps the footprint tiny; the code
			// path is identical at every scale.
			sys, region, err := NewThroughputSystem(mode, 1<<18)
			if err != nil {
				t.Fatal(err)
			}
			SeqPass(sys, region)
			if _, err := RandPass(sys, region, 0x2B1A); err != nil {
				t.Fatal(err)
			}
			seed := uint32(1)
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := RandPass(sys, region, seed); err != nil {
					t.Fatal(err)
				}
				seed++
			})
			if allocs != 0 {
				t.Errorf("%s: RandPass allocates %.1f objects per pass, want 0", mode, allocs)
			}
		})
	}
}

// TestSeqPassZeroAllocs pins the same contract for the sequential
// range path, which shares the controller scratch.
func TestSeqPassZeroAllocs(t *testing.T) {
	for _, mode := range []core.Mode{core.Mode2LM, core.Mode1LM} {
		t.Run(mode.String(), func(t *testing.T) {
			sys, region, err := NewThroughputSystem(mode, 1<<18)
			if err != nil {
				t.Fatal(err)
			}
			SeqPass(sys, region)
			allocs := testing.AllocsPerRun(10, func() { SeqPass(sys, region) })
			if allocs != 0 {
				t.Errorf("%s: SeqPass allocates %.1f objects per pass, want 0", mode, allocs)
			}
		})
	}
}

// TestMultiPassMatchesPerLine is the demand oracle of the throughput
// workloads, run on their geometry (a 24 MiB DRAM cache, a region twice
// its size): sequential passes alternate with LFSR-random passes, so
// every sequential pass after the first starts from the state a whole
// previous pass left, and the region starts at an unaligned line offset.
// A twin system with a no-op tap replays the same passes down the
// per-line path. After every pass the IMC counters, per-channel CAS,
// per-DIMM interface and media counters, and (in 2LM) the DRAM-cache
// tag words must be identical.
func TestMultiPassMatchesPerLine(t *testing.T) {
	for _, mode := range []core.Mode{core.Mode2LM, core.Mode1LM} {
		for _, offLines := range []uint64{37, 201} {
			t.Run(fmt.Sprintf("%s/offset-%d", mode, offLines), func(t *testing.T) {
				fast, region := multiPassSystem(t, mode, offLines)
				slow, _ := multiPassSystem(t, mode, offLines)
				slow.SetTap(func(core.TapOp, uint64) {})
				for p := 0; p < 5; p++ {
					if p%2 == 0 {
						SeqPass(fast, region)
						SeqPass(slow, region)
					} else {
						seed := uint32(0x2B1A + p)
						if _, err := RandPass(fast, region, seed); err != nil {
							t.Fatal(err)
						}
						if _, err := RandPass(slow, region, seed); err != nil {
							t.Fatal(err)
						}
					}
					assertSameDemandState(t, fmt.Sprintf("pass %d", p), fast, slow)
				}
			})
		}
	}
}

// multiPassSystem builds a throughput system with its region narrowed
// by offLines lines.
func multiPassSystem(t *testing.T, mode core.Mode, offLines uint64) (*core.System, mem.Region) {
	t.Helper()
	sys, region, err := NewThroughputSystem(mode, 8192)
	if err != nil {
		t.Fatal(err)
	}
	off := offLines * mem.Line
	return sys, mem.Region{Base: region.Base + off, Size: region.Size - off}
}

// assertSameDemandState compares every device counter and, in 2LM, the
// DRAM-cache tag array of a fast-path system against its per-line twin.
func assertSameDemandState(t *testing.T, label string, fast, slow *core.System) {
	t.Helper()
	if a, b := fast.Counters(), slow.Counters(); a != b {
		t.Fatalf("%s: imc counters %v, per-line %v", label, a, b)
	}
	if a, b := fast.DRAM().ChannelCounters(), slow.DRAM().ChannelCounters(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: per-channel CAS %v, per-line %v", label, a, b)
	}
	fn, sn := fast.NVRAM(), slow.NVRAM()
	for i := 0; i < fn.DIMMs(); i++ {
		a, b := fn.DIMMAt(i), sn.DIMMAt(i)
		got := [4]uint64{a.Reads, a.Writes, a.MediaReads, a.MediaWrites}
		want := [4]uint64{b.Reads, b.Writes, b.MediaReads, b.MediaWrites}
		if got != want {
			t.Fatalf("%s: DIMM %d reads/writes/media reads/media writes %v, per-line %v", label, i, got, want)
		}
	}
	if fast.Mode() != core.Mode2LM {
		return
	}
	a, b := fast.Controller().Cache.DirectEntries(), slow.Controller().Cache.DirectEntries()
	for set := range a {
		if a[set] != b[set] {
			t.Fatalf("%s: tag word of set %d is %#x, per-line %#x", label, set, a[set], b[set])
		}
	}
}
