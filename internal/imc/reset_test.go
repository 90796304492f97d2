package imc

import (
	"fmt"
	"testing"

	"twolm/internal/lfsr"
	"twolm/internal/mem"
)

// exerciseController drives every request shape the controller has —
// per-line, batched ranges, and scatter dispatch — over a footprint
// exceeding the cache, so hits, clean misses, dirty misses and DDO
// paths all fire.
func exerciseController(t *testing.T, c *Controller, seed uint32) {
	t.Helper()
	const span = 24 * mem.MiB / mem.Line // footprint lines, 8x the 3 MiB cache
	// Sequential demand + writeback streams, offset so the writeback
	// stream evicts the demand stream's installs.
	c.LLCReadRange(0, 4096)
	c.LLCWriteRange(1024*mem.Line, 4096)
	// Per-line stragglers.
	for i := uint64(0); i < 64; i++ {
		c.LLCRead(i * 3 * mem.Line)
		c.LLCWrite(i * 5 * mem.Line)
	}
	// LFSR-random scatter mix across the whole footprint.
	reqs := make([]Req, 0, 4096)
	i := 0
	err := lfsr.Sequence(span, seed, func(idx uint64) {
		if len(reqs) == cap(reqs) {
			return
		}
		addr := idx * mem.Line
		if i&1 == 0 {
			reqs = append(reqs, ReadReq(addr))
		} else {
			reqs = append(reqs, WriteReq(addr))
		}
		i++
	})
	if err != nil {
		t.Fatal(err)
	}
	c.LLCScatter(reqs)
}

// TestResetMatchesFresh is the recycled-controller differential test
// behind the sweep engine's arena: a controller that has run an
// arbitrary prior workload and then Reset produces counters, per-
// channel CAS counts, and NVRAM interface/media counters identical to
// a freshly constructed controller, over all four policy ablations x
// Ways 1,4.
func TestResetMatchesFresh(t *testing.T) {
	for _, pc := range policyMatrix() {
		name, policy := fmt.Sprintf("%s/%d-way", pc.ablation, pc.ways), pc.policy
		t.Run(name, func(t *testing.T) {
			fresh, recycled := newRangePair(t, policy)
			// Dirty the recycled controller with a different workload
			// (different seed, so different tag state, combining-
			// buffer state, and locator phase), then rewind it.
			exerciseController(t, recycled, 0xDEAD)
			recycled.Reset()
			// Identical measurement workload on both.
			exerciseController(t, fresh, 0x2B1A)
			exerciseController(t, recycled, 0x2B1A)
			assertSameTraffic(t, name, fresh, recycled)
		})
	}
}

// TestResetVsResetCounters pins the semantic split the two methods
// document: ResetCounters preserves cache contents (the paper's
// prime-then-measure protocol), Reset also invalidates them (the
// recycle-a-controller protocol).
func TestResetVsResetCounters(t *testing.T) {
	c, _ := newRangePair(t, HardwarePolicy())
	const lines = 1024 // well inside the 3 MiB cache

	// Prime: install every line, then rewind counters only.
	c.LLCReadRange(0, lines)
	c.ResetCounters()
	if got := c.Counters(); got != (Counters{}) {
		t.Fatalf("ResetCounters left counters %v", got)
	}
	if r, w := c.DRAM.ChannelCounters(), c.NVRAM.TotalReads(); w != 0 || func() bool {
		for _, ch := range r {
			if ch.CASReads != 0 || ch.CASWrites != 0 {
				return true
			}
		}
		return false
	}() {
		t.Fatal("ResetCounters left device counters running")
	}

	// The primed tags survive ResetCounters: a re-read is all hits.
	c.LLCReadRange(0, lines)
	if got := c.Counters(); got.TagHit != lines || got.TagMissClean != 0 {
		t.Errorf("after ResetCounters: %d hits, %d clean misses; want all %d hits (cache preserved)",
			got.TagHit, got.TagMissClean, lines)
	}

	// Reset also invalidates the tags: the same re-read is all misses.
	c.Reset()
	if got := c.Counters(); got != (Counters{}) {
		t.Fatalf("Reset left counters %v", got)
	}
	c.LLCReadRange(0, lines)
	if got := c.Counters(); got.TagHit != 0 || got.TagMissClean != lines {
		t.Errorf("after Reset: %d hits, %d clean misses; want all %d misses (cache invalidated)",
			got.TagHit, got.TagMissClean, lines)
	}
}

// TestResetIsAllocFree pins the arena's perf contract at the
// controller level: recycling is in-place zeroing, never
// reallocation.
func TestResetIsAllocFree(t *testing.T) {
	c, _ := newRangePair(t, HardwarePolicy())
	exerciseController(t, c, 0x2B1A)
	if allocs := testing.AllocsPerRun(10, c.Reset); allocs != 0 {
		t.Errorf("Controller.Reset allocates %.1f objects, want 0", allocs)
	}
}
