// Counter validation. The paper cross-checks its uncore counter
// readings against the expected data movement of each benchmark
// (Section III-B); ValidateCounters performs the analogous internal
// consistency audit on a simulated system, checking every identity
// that must hold between the IMC events, the device counters, and the
// cache state. Experiments call it after a run; any violation is a
// simulator bug, never a workload property.

package core

import (
	"fmt"

	"twolm/internal/imc"
)

// ValidateCounters audits the system's counters for internal
// consistency and returns the first violated identity.
func (s *System) ValidateCounters() error {
	ctr := s.Counters()

	// Device counters must agree with the controller's view.
	if got, want := s.dramMod.TotalReads(), ctr.DRAMRead; got != want {
		return fmt.Errorf("core: DRAM device reads %d != IMC %d", got, want)
	}
	if got, want := s.dramMod.TotalWrites(), ctr.DRAMWrite; got != want {
		return fmt.Errorf("core: DRAM device writes %d != IMC %d", got, want)
	}
	if got, want := s.nvramMod.TotalReads(), ctr.NVRAMRead; got != want {
		return fmt.Errorf("core: NVRAM device reads %d != IMC %d", got, want)
	}
	if got, want := s.nvramMod.TotalWrites(), ctr.NVRAMWrite; got != want {
		return fmt.Errorf("core: NVRAM device writes %d != IMC %d", got, want)
	}

	if s.mode == Mode1LM {
		// App-direct: demand maps 1:1 onto device transactions and no
		// tag machinery exists.
		if ctr.TagAccesses() != 0 || ctr.DDO != 0 {
			return fmt.Errorf("core: 1LM produced tag events: %v", ctr)
		}
		reads := ctr.DRAMRead + ctr.NVRAMRead
		writes := ctr.DRAMWrite + ctr.NVRAMWrite
		if reads < ctr.LLCRead || writes < ctr.LLCWrite {
			return fmt.Errorf("core: 1LM device traffic below demand: %v", ctr)
		}
		return nil
	}

	return Validate2LM(ctr, s.ctrl)
}

// Validate2LM checks the 2LM counter identities of Table I against a
// counter snapshot and (optionally) the controller whose cache state
// should absorb the difference between write-backs and dirty misses.
func Validate2LM(ctr imc.Counters, ctrl *imc.Controller) error {
	// Every demand request records exactly one tag event, under every
	// policy: a DDO write skips the tag check but counts as a hit, and
	// an around miss counts as clean.
	if ctr.TagAccesses() != ctr.Demand() {
		return fmt.Errorf("imc: tag events %d != demand %d", ctr.TagAccesses(), ctr.Demand())
	}
	// Every demand read costs at least one DRAM read (tag+data fetch);
	// writes add tag-check reads except under DDO.
	minDRAMReads := ctr.LLCRead + ctr.LLCWrite - ctr.DDO
	policy := imc.HardwarePolicy()
	if ctrl != nil {
		policy = ctrl.Policy()
	}
	if policy.WriteAllocate && policy.ReadAllocate && ctr.DRAMRead != minDRAMReads {
		return fmt.Errorf("imc: DRAM reads %d != demand-derived %d", ctr.DRAMRead, minDRAMReads)
	}
	// Fills: one NVRAM read per allocated miss.
	misses := ctr.TagMissClean + ctr.TagMissDirty
	if policy.WriteAllocate && policy.ReadAllocate && ctr.NVRAMRead != misses {
		return fmt.Errorf("imc: NVRAM reads %d != misses %d", ctr.NVRAMRead, misses)
	}
	// Write-backs: one NVRAM write per dirty miss (plus any explicit
	// flush; the residual dirty lines must still sit in the cache).
	if policy.WriteAllocate {
		if ctr.NVRAMWrite < ctr.TagMissDirty {
			return fmt.Errorf("imc: NVRAM writes %d below dirty misses %d", ctr.NVRAMWrite, ctr.TagMissDirty)
		}
	}
	// DDO hits are a subset of both tag hits and LLC writes.
	if ctr.DDO > ctr.TagHit || ctr.DDO > ctr.LLCWrite {
		return fmt.Errorf("imc: DDO count %d exceeds hits %d or writes %d", ctr.DDO, ctr.TagHit, ctr.LLCWrite)
	}
	// Amplification lives in Table I's envelope.
	if d := ctr.Demand(); d > 0 {
		if amp := ctr.Amplification(); amp < 1 || amp > 5 {
			return fmt.Errorf("imc: amplification %.3f outside [1, 5]", amp)
		}
	}
	return nil
}
