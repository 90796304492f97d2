package core

import (
	"testing"

	"twolm/internal/mem"
)

// TestDMACopyTraffic: a 1LM NVRAM->DRAM copy reads the source device
// and writes the destination device with no LLC or demand involvement.
func TestDMACopyTraffic(t *testing.T) {
	s := newSystem(t, Mode1LM)
	src, err := s.AddressSpace().AllocNVRAM(mem.MiB)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := s.AddressSpace().AllocDRAM(mem.MiB)
	if err != nil {
		t.Fatal(err)
	}
	s.DMACopy(src, dst)
	ctr := s.Counters()
	if ctr.NVRAMRead != src.Lines() {
		t.Errorf("NVRAM reads = %d, want %d", ctr.NVRAMRead, src.Lines())
	}
	if ctr.DRAMWrite != src.Lines() {
		t.Errorf("DRAM writes = %d, want %d", ctr.DRAMWrite, src.Lines())
	}
	if ctr.LLCRead != 0 || ctr.LLCWrite != 0 {
		t.Errorf("DMA produced LLC traffic: %v", ctr)
	}
	if s.DemandBytes() != 0 {
		t.Errorf("DMA counted as demand: %d bytes", s.DemandBytes())
	}
}

// TestDMACopyOverlapsCompute: with no engine ceiling, a copy that is
// cheaper than the kernel's compute adds no time at all.
func TestDMACopyOverlapsCompute(t *testing.T) {
	s := newSystem(t, Mode1LM)
	src, _ := s.AddressSpace().AllocNVRAM(mem.MiB)
	dst, _ := s.AddressSpace().AllocDRAM(mem.MiB)
	s.DMACopy(src, dst)
	sample := s.Sync("kernel", 1.0) // 1 s of compute dwarfs the copy
	if sample.Clock != 1.0 {
		t.Errorf("interval = %.4f s, want exactly the compute time (copy hidden)", sample.Clock)
	}
}

// TestDMAEngineCeiling: a slow engine's occupancy becomes the binding
// resource.
func TestDMAEngineCeiling(t *testing.T) {
	s := newSystem(t, Mode1LM)
	src, _ := s.AddressSpace().AllocNVRAM(mem.MiB)
	dst, _ := s.AddressSpace().AllocDRAM(mem.MiB)
	s.SetDMABandwidth(1e9) // 1 GB/s engine
	s.DMACopy(src, dst)
	sample := s.Sync("move", 0)
	want := float64(2*src.Size) / 1e9
	if sample.Clock < want*0.99 || sample.Clock > want*1.01 {
		t.Errorf("interval = %.6f s, want ~%.6f (engine bound)", sample.Clock, want)
	}
	// Negative bandwidths clamp to disabled.
	s.SetDMABandwidth(-5)
	s.DMACopy(src, dst)
	if d := s.Sync("move2", 0).Clock; d >= want {
		t.Errorf("disabled engine still bound the interval: %.6f", d)
	}
}

// TestDMAExcludedFromDemandLatency: engine traffic must not inflate
// the CPU's average demand latency.
func TestDMAExcludedFromDemandLatency(t *testing.T) {
	run := func(withDMA bool) float64 {
		s := newSystem(t, Mode1LM)
		dramArr, _ := s.AddressSpace().AllocDRAM(256 * mem.KiB)
		src, _ := s.AddressSpace().AllocNVRAM(mem.MiB)
		dst, _ := s.AddressSpace().AllocDRAM(mem.MiB)
		s.LoadRange(dramArr) // demand: pure DRAM
		if withDMA {
			s.DMACopy(src, dst)
		}
		return s.Sync("x", 0).Clock
	}
	plain := run(false)
	mixed := run(true)
	// The mixed interval may grow by the copy's NVRAM device time, but
	// no more: if engine traffic leaked into the CPU latency estimate,
	// the demand term would balloon past the device bound.
	s := newSystem(t, Mode1LM)
	nvDeviceTime := float64(mem.MiB) / s.Model().NVRAMReadBW(mem.Sequential, mem.Line, s.Threads(), 1)
	if mixed > plain+1.1*nvDeviceTime {
		t.Errorf("DMA inflated the interval beyond its device time: %.6f vs %.6f + %.6f",
			mixed, plain, nvDeviceTime)
	}
	if mixed < plain {
		t.Errorf("adding a copy shortened the interval: %.6f vs %.6f", mixed, plain)
	}
}

// TestDMACopy2LMFallsBack: in memory mode the engine sits behind the
// cache and generates controller traffic.
func TestDMACopy2LMFallsBack(t *testing.T) {
	s := newSystem(t, Mode2LM)
	src, _ := s.AddressSpace().Alloc(64 * mem.KiB)
	dst, _ := s.AddressSpace().Alloc(64 * mem.KiB)
	s.DMACopy(src, dst)
	ctr := s.Counters()
	if ctr.LLCRead != src.Lines() || ctr.LLCWrite != src.Lines() {
		t.Errorf("2LM DMA should route through the controller: %v", ctr)
	}
}

// TestResetStatsClearsDMA: accounting restarts cleanly.
func TestResetStatsClearsDMA(t *testing.T) {
	s := newSystem(t, Mode1LM)
	src, _ := s.AddressSpace().AllocNVRAM(mem.MiB)
	dst, _ := s.AddressSpace().AllocDRAM(mem.MiB)
	s.SetDMABandwidth(1e9)
	s.DMACopy(src, dst)
	s.ResetStats()
	if d := s.Sync("idle", 0).Clock; d != 0 {
		t.Errorf("stale DMA bytes leaked into a fresh interval: %.6f", d)
	}
}
