package imc

import (
	"testing"

	"twolm/internal/dram"
	"twolm/internal/lfsr"
	"twolm/internal/mem"
	"twolm/internal/nvram"
)

// newRangePair builds two identically configured controllers for
// differential runs.
func newRangePair(t *testing.T, policy Policy) (perLine, batched *Controller) {
	t.Helper()
	build := func() *Controller {
		d, err := dram.New(6, 3*mem.MiB)
		if err != nil {
			t.Fatal(err)
		}
		n, err := nvram.New(6, 48*mem.MiB)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(d, n, WithPolicy(policy))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	return build(), build()
}

// assertSameTraffic asserts byte-identical controller counters,
// per-channel CAS counts, and per-DIMM NVRAM interface/media counters.
func assertSameTraffic(t *testing.T, label string, perLine, batched *Controller) {
	t.Helper()
	if a, b := perLine.Counters(), batched.Counters(); a != b {
		t.Errorf("%s: counters diverge\n per-line: %v\n batched:  %v", label, a, b)
	}
	assertSameDevices(t, label, perLine.DRAM, batched.DRAM, perLine.NVRAM, batched.NVRAM)
}

// assertSameDevices asserts byte-identical per-channel CAS counts and
// per-DIMM NVRAM interface/media counters of two module pairs.
func assertSameDevices(t *testing.T, label string, da, db *dram.Module, na, nb *nvram.Module) {
	t.Helper()
	ac, bc := da.ChannelCounters(), db.ChannelCounters()
	for i := range ac {
		if ac[i] != bc[i] {
			t.Errorf("%s: channel %d CAS diverges: %+v vs %+v", label, i, ac[i], bc[i])
		}
	}
	type media struct{ r, w, mr, mw uint64 }
	for i := 0; i < na.DIMMs(); i++ {
		a, b := na.DIMMAt(i), nb.DIMMAt(i)
		am := media{a.Reads, a.Writes, a.MediaReads, a.MediaWrites}
		bm := media{b.Reads, b.Writes, b.MediaReads, b.MediaWrites}
		if am != bm {
			t.Errorf("%s: DIMM %d counters diverge: %+v vs %+v", label, i, am, bm)
		}
	}
}

// policyCase is one entry of the test policy matrix: the hardware
// policy or one of its ablations, at one associativity.
type policyCase struct {
	ablation string
	ways     int
	policy   Policy
}

// policyMatrix crosses the hardware policy and its three ablations with
// direct-mapped and 4-way stores.
func policyMatrix() []policyCase {
	var out []policyCase
	for _, ways := range []int{1, 4} {
		hw := HardwarePolicy()
		hw.Ways = ways
		noWA, noRA, noDDO := hw, hw, hw
		noWA.WriteAllocate = false
		noRA.ReadAllocate = false
		noDDO.DisableDDO = true
		out = append(out,
			policyCase{"hardware", ways, hw},
			policyCase{"no-write-allocate", ways, noWA},
			policyCase{"no-read-allocate", ways, noRA},
			policyCase{"ddo-off", ways, noDDO})
	}
	return out
}

// rangeName is the case's subtest name in the range and fold tests:
// the ablation when direct mapped, "4-way" for the 4-way hardware
// policy, and the ablation under "/4-way" for the 4-way ablations.
func (pc policyCase) rangeName() string {
	switch {
	case pc.ways == 1:
		return pc.ablation
	case pc.ablation == "hardware":
		return "4-way"
	}
	return pc.ablation + "/4-way"
}

// TestRangeMatchesPerLine replays the same interleaved read/write
// chunk sequence through per-line LLCRead/LLCWrite and through the
// batched range entry points and demands exactly equal traffic, for
// every policy of the acceptance matrix.
func TestRangeMatchesPerLine(t *testing.T) {
	const chunk = 37 // lines per range call; odd so chunks straddle channels
	const span = 96 * mem.KiB
	for _, pc := range policyMatrix() {
		name, policy := pc.rangeName(), pc.policy
		t.Run(name, func(t *testing.T) {
			perLine, batched := newRangePair(t, policy)
			// Alternate read and write chunks over a span exceeding the
			// DRAM cache so hits, clean misses, and dirty misses all
			// occur; a second pass hits DDO-eligible lines.
			for pass := 0; pass < 2; pass++ {
				write := pass == 1
				for base := uint64(0); base+chunk*mem.Line <= span; base += chunk * mem.Line {
					if write {
						for a := base; a < base+chunk*mem.Line; a += mem.Line {
							perLine.LLCWrite(a)
						}
						batched.LLCWriteRange(base, chunk)
					} else {
						for a := base; a < base+chunk*mem.Line; a += mem.Line {
							perLine.LLCRead(a)
						}
						batched.LLCReadRange(base, chunk)
					}
					write = !write
				}
			}
			assertSameTraffic(t, name, perLine, batched)
		})
	}
}

// TestRangeRMWPattern drives the read-then-writeback pattern that
// exercises the DDO path through the range entry points: every chunk
// is read (acquiring LLC ownership) and then written back.
func TestRangeRMWPattern(t *testing.T) {
	const chunk = 64
	const span = 64 * mem.KiB
	for _, pc := range policyMatrix() {
		name, policy := pc.rangeName(), pc.policy
		t.Run(name, func(t *testing.T) {
			perLine, batched := newRangePair(t, policy)
			for base := uint64(0); base+chunk*mem.Line <= span; base += chunk * mem.Line {
				for a := base; a < base+chunk*mem.Line; a += mem.Line {
					perLine.LLCRead(a)
				}
				for a := base; a < base+chunk*mem.Line; a += mem.Line {
					perLine.LLCWrite(a)
				}
				batched.LLCReadRange(base, chunk)
				batched.LLCWriteRange(base, chunk)
			}
			assertSameTraffic(t, name, perLine, batched)
		})
	}
}

// TestRangeAfterRandomState scatters LFSR-random per-line traffic
// first so the batched calls run against a populated, partially dirty
// cache rather than a cold one.
func TestRangeAfterRandomState(t *testing.T) {
	const lines = 1 << 12
	for _, pc := range policyMatrix() {
		name, policy := pc.rangeName(), pc.policy
		t.Run(name, func(t *testing.T) {
			perLine, batched := newRangePair(t, policy)
			err := lfsr.Sequence(lines, 0xC0DE, func(idx uint64) {
				addr := idx * mem.Line
				if idx&1 == 0 {
					perLine.LLCRead(addr)
					batched.LLCRead(addr)
				} else {
					perLine.LLCWrite(addr)
					batched.LLCWrite(addr)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			const chunk = 113
			for base := uint64(0); base+chunk*mem.Line <= lines*mem.Line; base += chunk * mem.Line {
				for a := base; a < base+chunk*mem.Line; a += mem.Line {
					perLine.LLCRead(a)
				}
				batched.LLCReadRange(base, chunk)
				for a := base; a < base+chunk*mem.Line; a += mem.Line {
					perLine.LLCWrite(a)
				}
				batched.LLCWriteRange(base, chunk)
			}
			assertSameTraffic(t, name, perLine, batched)
		})
	}
}

// TestRangeZeroLines pins that a zero-length range is a no-op.
func TestRangeZeroLines(t *testing.T) {
	perLine, batched := newRangePair(t, HardwarePolicy())
	batched.LLCReadRange(0, 0)
	batched.LLCWriteRange(0, 0)
	assertSameTraffic(t, "zero", perLine, batched)
}
