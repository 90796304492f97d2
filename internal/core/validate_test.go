package core

import (
	"math/rand"
	"strings"
	"testing"

	"twolm/internal/imc"
	"twolm/internal/mem"
)

// TestValidateAfterRandomWorkload: the identities hold after arbitrary
// mixed traffic in both modes.
func TestValidateAfterRandomWorkload(t *testing.T) {
	for _, mode := range []Mode{Mode2LM, Mode1LM} {
		s := newSystem(t, mode)
		space := 4 * s.Platform().DRAMSize()
		if mode == Mode1LM {
			space = s.Platform().DRAMSize() + s.Platform().NVRAMSize()/2
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 100000; i++ {
			addr := (rng.Uint64() % (space / mem.Line)) * mem.Line
			switch rng.Intn(4) {
			case 0:
				s.Load(addr)
			case 1:
				s.Store(addr)
			case 2:
				s.StoreNT(addr)
			default:
				s.RMW(addr)
			}
		}
		s.DrainLLC()
		if err := s.ValidateCounters(); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}

// TestValidateAfterFlush: an explicit flush writes back residual dirty
// lines without breaking the identities.
func TestValidateAfterFlush(t *testing.T) {
	s := newSystem(t, Mode2LM)
	arr, _ := s.AddressSpace().Alloc(s.Platform().DRAMSize() / 2)
	s.StoreNTRange(arr)
	s.Controller().FlushAll()
	if err := s.ValidateCounters(); err != nil {
		t.Error(err)
	}
}

// TestValidateCatchesTampering: a manufactured inconsistency is
// reported.
func TestValidateCatchesTampering(t *testing.T) {
	s := newSystem(t, Mode2LM)
	s.Load(0)
	// Device-level extra write that the controller never issued.
	s.Controller().NVRAM.Write(0)
	if err := s.ValidateCounters(); err == nil {
		t.Error("device/IMC divergence not detected")
	}
}

// TestValidateCatchesMissingDDOHits: DDO writes count as tag hits, so a
// snapshot whose TagHit omits them breaks the one-tag-event-per-demand
// identity, even though every other identity still holds.
func TestValidateCatchesMissingDDOHits(t *testing.T) {
	s := newSystem(t, Mode2LM)
	arr, _ := s.AddressSpace().Alloc(s.Platform().DRAMSize() / 4)
	s.LoadRange(arr)
	s.LoadRange(arr)
	s.StoreRange(arr)
	s.DrainLLC()
	ctr := s.Counters()
	if ctr.DDO == 0 {
		t.Fatal("workload produced no DDO writes")
	}
	if err := Validate2LM(ctr, s.Controller()); err != nil {
		t.Fatalf("untampered snapshot rejected: %v", err)
	}
	ctr.TagHit -= ctr.DDO
	if err := Validate2LM(ctr, s.Controller()); err == nil || !strings.Contains(err.Error(), "tag events") {
		t.Errorf("snapshot without DDO tag hits: err = %v, want a tag-event mismatch", err)
	}
}

// TestValidateAblationPolicies: the relaxed identities still hold for
// non-hardware policies.
func TestValidateAblationPolicies(t *testing.T) {
	cfg := testConfig(Mode2LM)
	for _, mutate := range []func(*struct {
		writeAlloc, readAlloc bool
	}){
		func(p *struct{ writeAlloc, readAlloc bool }) { p.writeAlloc = false; p.readAlloc = true },
		func(p *struct{ writeAlloc, readAlloc bool }) { p.writeAlloc = true; p.readAlloc = false },
	} {
		var pol struct{ writeAlloc, readAlloc bool }
		mutate(&pol)
		policy := hardwareWith(pol.writeAlloc, pol.readAlloc)
		c := cfg
		c.Policy = &policy
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		arr, _ := s.AddressSpace().Alloc(4 * s.Platform().DRAMSize())
		s.StoreNTRange(arr)
		s.LoadRange(arr)
		s.DrainLLC()
		if err := s.ValidateCounters(); err != nil {
			t.Errorf("writeAlloc=%v readAlloc=%v: %v", pol.writeAlloc, pol.readAlloc, err)
		}
	}
}

// hardwareWith builds a hardware policy with modified allocation
// flags.
func hardwareWith(writeAlloc, readAlloc bool) imc.Policy {
	p := imc.HardwarePolicy()
	p.WriteAllocate = writeAlloc
	p.ReadAllocate = readAlloc
	return p
}
