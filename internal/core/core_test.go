package core

import (
	"testing"

	"twolm/internal/imc"
	"twolm/internal/mem"
	"twolm/internal/platform"
)

// testConfig returns a small, fast system: 1 MiB DRAM cache, 64 MiB
// NVRAM, tiny LLC.
func testConfig(mode Mode) Config {
	return Config{
		Platform: platform.Config{
			Sockets:           1,
			ChannelsPerSocket: 6,
			DRAMPerChannel:    mem.MiB,
			NVRAMPerChannel:   64 * mem.MiB,
			Scale:             1,
			Threads:           24,
		},
		Mode:     mode,
		LLCBytes: 16 * mem.KiB,
	}
}

func newSystem(t *testing.T, mode Mode) *System {
	t.Helper()
	s, err := New(testConfig(mode))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidatesPlatform(t *testing.T) {
	cfg := testConfig(Mode2LM)
	cfg.Platform.Scale = 3
	if _, err := New(cfg); err == nil {
		t.Error("invalid platform accepted")
	}
}

func TestModeString(t *testing.T) {
	if Mode2LM.String() != "2LM" || Mode1LM.String() != "1LM" {
		t.Error("unexpected Mode strings")
	}
}

// TestLoadMissesThroughLLC: streaming loads over an array much larger
// than the LLC produce one LLC read per line.
func TestLoadMissesThroughLLC(t *testing.T) {
	s := newSystem(t, Mode2LM)
	r := mem.Region{Base: 0, Size: 256 * mem.KiB} // 16x LLC
	s.LoadRange(r)
	ctr := s.Counters()
	if ctr.LLCRead != r.Lines() {
		t.Errorf("LLC reads = %d, want %d", ctr.LLCRead, r.Lines())
	}
	if ctr.LLCWrite != 0 {
		t.Errorf("loads produced %d LLC writes", ctr.LLCWrite)
	}
}

// TestLLCCoalescesRepeatedTouches: re-touching a line that is still on
// chip generates no new memory traffic.
func TestLLCCoalescesRepeatedTouches(t *testing.T) {
	s := newSystem(t, Mode2LM)
	s.Load(0)
	before := s.Counters()
	s.Load(0)
	s.Store(0)
	s.RMW(0)
	if got := s.Counters(); got != before {
		t.Errorf("on-chip hits generated traffic: %v -> %v", before, got)
	}
	if s.DemandBytes() != 4*mem.Line+mem.Line { // load+load+store+2*rmw... see below
		// Load(64) + Load(64) + Store(64) + RMW(128) = 320
		t.Errorf("demand bytes = %d, want 320", s.DemandBytes())
	}
}

// TestStandardStoreDelayedWriteback: stores produce RFO reads now and
// writebacks only on eviction or drain.
func TestStandardStoreDelayedWriteback(t *testing.T) {
	s := newSystem(t, Mode2LM)
	r := mem.Region{Base: 0, Size: 4 * mem.KiB} // fits LLC
	s.StoreRange(r)
	ctr := s.Counters()
	if ctr.LLCRead != r.Lines() {
		t.Errorf("RFO reads = %d, want %d", ctr.LLCRead, r.Lines())
	}
	if ctr.LLCWrite != 0 {
		t.Errorf("writebacks issued before eviction: %d", ctr.LLCWrite)
	}
	s.DrainLLC()
	ctr = s.Counters()
	if ctr.LLCWrite != r.Lines() {
		t.Errorf("writebacks after drain = %d, want %d", ctr.LLCWrite, r.Lines())
	}
}

// TestStandardStoreWritebackGetsDDO: the RFO grants LLC ownership, so
// the delayed writeback should use the Dirty Data Optimization.
func TestStandardStoreWritebackGetsDDO(t *testing.T) {
	s := newSystem(t, Mode2LM)
	r := mem.Region{Base: 0, Size: 4 * mem.KiB}
	s.StoreRange(r)
	s.DrainLLC()
	ctr := s.Counters()
	if ctr.DDO != r.Lines() {
		t.Errorf("DDO writebacks = %d, want %d", ctr.DDO, r.Lines())
	}
}

// TestNTStoreBypassesLLC: nontemporal stores reach the IMC immediately.
func TestNTStoreBypassesLLC(t *testing.T) {
	s := newSystem(t, Mode2LM)
	r := mem.Region{Base: 0, Size: 4 * mem.KiB}
	s.StoreNTRange(r)
	ctr := s.Counters()
	if ctr.LLCWrite != r.Lines() {
		t.Errorf("LLC writes = %d, want %d", ctr.LLCWrite, r.Lines())
	}
	if ctr.LLCRead != 0 {
		t.Errorf("NT stores generated %d RFOs", ctr.LLCRead)
	}
	// And no DDO: NT stores never acquire ownership.
	if ctr.DDO != 0 {
		t.Errorf("NT stores got %d DDOs", ctr.DDO)
	}
}

// TestNTStoreInvalidatesLLCCopy: an NT store to a cached dirty line
// must not produce a later stale writeback.
func TestNTStoreInvalidatesLLCCopy(t *testing.T) {
	s := newSystem(t, Mode2LM)
	s.Store(0)   // dirty in LLC
	s.StoreNT(0) // invalidates
	before := s.Counters().LLCWrite
	s.DrainLLC()
	if got := s.Counters().LLCWrite - before; got != 0 {
		t.Errorf("drain wrote back %d stale lines", got)
	}
}

// Test2LMCleanMissAmplification: a read-only stream over an array
// larger than the DRAM cache shows 3x amplification (Figure 4a).
func Test2LMCleanMissAmplification(t *testing.T) {
	s := newSystem(t, Mode2LM)
	dcache := s.Platform().DRAMSize()
	arr, err := s.AddressSpace().Alloc(2 * dcache)
	if err != nil {
		t.Fatal(err)
	}
	// Two passes: the second is in steady state (all misses, all clean).
	s.LoadRange(arr)
	s.ResetStats()
	s.LoadRange(arr)
	ctr := s.Counters()
	if hr := ctr.HitRate(); hr != 0 {
		t.Errorf("hit rate = %.3f, want 0 (array is 2x cache)", hr)
	}
	if amp := ctr.Amplification(); amp != 3 {
		t.Errorf("clean read miss amplification = %.2f, want 3", amp)
	}
}

// Test1LMRouting: accesses route to the pool that owns the address.
func Test1LMRouting(t *testing.T) {
	s := newSystem(t, Mode1LM)
	d, err := s.AddressSpace().AllocDRAM(8 * mem.KiB)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.AddressSpace().AllocNVRAM(8 * mem.KiB)
	if err != nil {
		t.Fatal(err)
	}
	s.LoadRange(d)
	s.StoreNTRange(n)
	ctr := s.Counters()
	if ctr.DRAMRead != d.Lines() {
		t.Errorf("DRAM reads = %d, want %d", ctr.DRAMRead, d.Lines())
	}
	if ctr.NVRAMWrite != n.Lines() {
		t.Errorf("NVRAM writes = %d, want %d", ctr.NVRAMWrite, n.Lines())
	}
	// 1LM has no tag machinery.
	if ctr.TagAccesses() != 0 {
		t.Errorf("1LM produced %d tag events", ctr.TagAccesses())
	}
	if s.Controller() != nil {
		t.Error("1LM system exposes a 2LM controller")
	}
}

// TestSyncAdvancesClock: time accumulates and bandwidth is finite.
func TestSyncAdvancesClock(t *testing.T) {
	s := newSystem(t, Mode2LM)
	arr, _ := s.AddressSpace().Alloc(mem.MiB)
	s.SetTraffic(mem.Sequential, mem.Line)
	s.LoadRange(arr)
	sample := s.Sync("pass1", 0)
	if end := s.Series().Last().Clock; sample.Clock <= 0 || s.Clock() != end || end != sample.Clock {
		t.Errorf("sync: dur=%g clock=%g series end=%g", sample.Clock, s.Clock(), end)
	}
	if s.EffectiveBW() <= 0 {
		t.Error("effective bandwidth not positive")
	}
	c1 := s.Clock()
	s.LoadRange(arr)
	s.Sync("pass2", 0)
	if s.Clock() <= c1 {
		t.Error("clock did not advance on second sync")
	}
	if s.Series().Len() != 2 {
		t.Errorf("series has %d samples, want 2", s.Series().Len())
	}
}

// TestSyncComputeBound: a long compute interval dominates memory time.
func TestSyncComputeBound(t *testing.T) {
	s := newSystem(t, Mode2LM)
	s.Load(0)
	sample := s.Sync("k", 10.0)
	if sample.Clock != 10.0 {
		t.Errorf("compute-bound interval dur = %g, want 10", sample.Clock)
	}
}

// TestSyncEmptyInterval: a sync with no traffic and no compute takes
// zero time.
func TestSyncEmptyInterval(t *testing.T) {
	s := newSystem(t, Mode2LM)
	sample := s.Sync("idle", 0)
	if sample.Clock != 0 {
		t.Errorf("idle interval dur = %g, want 0", sample.Clock)
	}
}

// TestMissTrafficIsSlower: the same demand stream takes longer when it
// misses (2LM over-capacity) than when it hits (fits in cache).
func TestMissTrafficIsSlower(t *testing.T) {
	hitSys := newSystem(t, Mode2LM)
	small, _ := hitSys.AddressSpace().Alloc(hitSys.Platform().DRAMSize() / 2) // fits cache
	hitSys.LoadRange(small)                                                   // warm
	hitSys.ResetStats()
	hitSys.LoadRange(small)
	hitSys.Sync("hit", 0)

	missSys := newSystem(t, Mode2LM)
	big, _ := missSys.AddressSpace().Alloc(4 * missSys.Platform().DRAMSize())
	missSys.LoadRange(big)
	missSys.ResetStats()
	missSys.LoadRange(big)
	missSys.Sync("miss", 0)

	hitBW := hitSys.EffectiveBW()
	missBW := missSys.EffectiveBW()
	if missBW >= hitBW {
		t.Errorf("miss-heavy effective BW %.2f GB/s should be below hit BW %.2f GB/s",
			missBW/mem.GB, hitBW/mem.GB)
	}
}

// TestResetStatsKeepsCacheState mirrors the paper's prime-then-measure
// methodology.
func TestResetStatsKeepsCacheState(t *testing.T) {
	s := newSystem(t, Mode2LM)
	arr, _ := s.AddressSpace().Alloc(mem.MiB / 2)
	s.LoadRange(arr) // prime: fills DRAM cache
	s.ResetStats()
	if s.Counters() != (imc.Counters{}) || s.Clock() != 0 || s.DemandBytes() != 0 {
		t.Fatal("ResetStats left state")
	}
	s.LoadRange(arr)
	// Second pass misses only in the LLC; DRAM cache hits throughout.
	if hr := s.Counters().HitRate(); hr != 1 {
		t.Errorf("post-prime hit rate = %.3f, want 1", hr)
	}
}

func TestSetThreadsAndTraffic(t *testing.T) {
	s := newSystem(t, Mode2LM)
	s.SetThreads(-5)
	if s.Threads() != 1 {
		t.Error("SetThreads should clamp to 1")
	}
	s.SetThreads(8)
	if s.Threads() != 8 {
		t.Error("SetThreads(8) ignored")
	}
	s.SetTraffic(mem.Random, 0)
	if s.gran != mem.Line {
		t.Error("SetTraffic should default granularity to one line")
	}
}

func TestStringDescribesSystem(t *testing.T) {
	s := newSystem(t, Mode2LM)
	if str := s.String(); str == "" {
		t.Error("empty String()")
	}
}
