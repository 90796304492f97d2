package imc

import (
	"fmt"
	"math/rand"
	"testing"

	"twolm/internal/dram"
	"twolm/internal/mem"
	"twolm/internal/nvram"
)

// refModel is an independent, deliberately naive reimplementation of
// the Table I bookkeeping for every policy: a map-based set-associative
// cache with LRU replacement that derives every counter from first
// principles, written without table.go, and issues the device traffic
// to DRAM and NVRAM modules of its own. The production controller is
// differential-tested against it on random streams — two
// implementations agreeing on millions of events is strong evidence
// both encode the paper's Table I and its ablations correctly.
type refModel struct {
	sets    uint64
	policy  Policy
	lines   map[uint64][]*refLine // set -> resident lines, at most Ways
	clock   uint64
	counter Counters
	dram    *dram.Module
	nvram   *nvram.Module
}

// refLine is one resident line of the reference cache.
type refLine struct {
	line         uint64
	dirty, owned bool
	used         uint64 // LRU stamp: refreshed on hit and install
}

// newRefModel builds a reference with the device geometry of
// newPolicyController.
func newRefModel(t *testing.T, capacity uint64, policy Policy) *refModel {
	t.Helper()
	d, err := dram.New(6, capacity)
	if err != nil {
		t.Fatal(err)
	}
	n, err := nvram.New(6, 64*capacity)
	if err != nil {
		t.Fatal(err)
	}
	return &refModel{
		sets:   capacity / mem.Line / uint64(policy.Ways),
		policy: policy,
		lines:  make(map[uint64][]*refLine),
		dram:   d,
		nvram:  n,
	}
}

// cas counts a DRAM CAS read or write on line's channel.
func (r *refModel) cas(line uint64, write bool) {
	ch := r.dram.ChannelAt(r.dram.ChannelIndex(line << mem.LineShift))
	if write {
		ch.CASWrites++
	} else {
		ch.CASReads++
	}
}

// lookup returns the resident line, refreshing its LRU stamp, or nil.
func (r *refModel) lookup(line uint64) *refLine {
	for _, l := range r.lines[line%r.sets] {
		if l.line == line {
			r.clock++
			l.used = r.clock
			return l
		}
	}
	return nil
}

// fill handles an allocating miss: it evicts the least recently used
// line if the set is full (writing it back if dirty), fetches the line
// from NVRAM and installs it into DRAM.
func (r *refModel) fill(line uint64) *refLine {
	set := line % r.sets
	resident := r.lines[set]
	victim := -1
	if uint64(len(resident)) == uint64(r.policy.Ways) {
		victim = 0
		for i, l := range resident {
			if l.used < resident[victim].used {
				victim = i
			}
		}
	}
	if victim >= 0 && resident[victim].dirty {
		r.counter.TagMissDirty++
		r.counter.NVRAMWrite++
		r.nvram.Write(resident[victim].line << mem.LineShift)
	} else {
		r.counter.TagMissClean++
	}
	r.counter.NVRAMRead++
	r.nvram.Read(line << mem.LineShift)
	r.counter.DRAMWrite++
	r.cas(line, true)
	r.clock++
	l := &refLine{line: line, used: r.clock}
	if victim >= 0 {
		resident[victim] = l
	} else {
		r.lines[set] = append(resident, l)
	}
	return l
}

func (r *refModel) read(addr uint64) {
	line := addr >> mem.LineShift
	r.counter.LLCRead++
	r.counter.DRAMRead++ // tag and data together
	r.cas(line, false)
	l := r.lookup(line)
	switch {
	case l != nil:
		r.counter.TagHit++
	case !r.policy.ReadAllocate:
		// Read-around: forwarded from NVRAM, nothing cached or owned.
		r.counter.TagMissClean++
		r.counter.NVRAMRead++
		r.nvram.Read(addr)
		return
	default:
		l = r.fill(line)
	}
	l.owned = true
}

func (r *refModel) write(addr uint64) {
	line := addr >> mem.LineShift
	r.counter.LLCWrite++
	l := r.lookup(line)
	if l != nil && l.owned && !r.policy.DisableDDO {
		r.counter.DDO++
		r.counter.TagHit++
		r.counter.DRAMWrite++
		r.cas(line, true)
		l.dirty, l.owned = true, false
		return
	}
	r.counter.DRAMRead++ // tag check
	r.cas(line, false)
	switch {
	case l != nil:
		r.counter.TagHit++
	case !r.policy.WriteAllocate:
		// Write-around: straight to NVRAM, the cache untouched.
		r.counter.TagMissClean++
		r.counter.NVRAMWrite++
		r.nvram.Write(addr)
		return
	default:
		l = r.fill(line)
	}
	r.counter.DRAMWrite++
	r.cas(line, true)
	l.dirty, l.owned = true, false
}

// TestDifferentialAgainstReference drives both implementations with
// identical random streams across several cache sizes and every policy
// of the test matrix, and compares every counter, per-channel CAS count
// and per-DIMM NVRAM counter.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, pc := range policyMatrix() {
		t.Run(fmt.Sprintf("%s/%d-way", pc.ablation, pc.ways), func(t *testing.T) {
			for _, capacity := range []uint64{mem.KiB, 8 * mem.KiB, 64 * mem.KiB} {
				ctrl := newPolicyController(t, capacity, pc.policy)
				ref := newRefModel(t, capacity, pc.policy)
				rng := rand.New(rand.NewSource(int64(capacity)))
				space := 8 * capacity
				const ops = 300000
				for i := 0; i < ops; i++ {
					addr := (rng.Uint64() % (space / mem.Line)) * mem.Line
					if rng.Intn(3) == 0 {
						ctrl.LLCWrite(addr)
						ref.write(addr)
					} else {
						ctrl.LLCRead(addr)
						ref.read(addr)
					}
					if i%50000 == 0 {
						if got, want := ctrl.Counters(), ref.counter; got != want {
							t.Fatalf("capacity %d, op %d: divergence\n ctrl: %v\n ref:  %v",
								capacity, i, got, want)
						}
					}
				}
				if got, want := ctrl.Counters(), ref.counter; got != want {
					t.Fatalf("capacity %d: final divergence\n ctrl: %v\n ref:  %v", capacity, got, want)
				}
				assertSameDevices(t, fmt.Sprint("capacity ", capacity), ctrl.DRAM, ref.dram, ctrl.NVRAM, ref.nvram)
			}
		})
	}
}

// TestDifferentialSequentialStreams covers the structured patterns the
// benchmarks use (ascending read, write, alternating) where off-by-one
// set-index bugs would hide from random testing.
func TestDifferentialSequentialStreams(t *testing.T) {
	capacity := uint64(4 * mem.KiB)
	ctrl := newController(t, capacity)
	ref := newRefModel(t, capacity, HardwarePolicy())
	span := 4 * capacity
	// Pass 1: sequential reads; pass 2: sequential writes; pass 3:
	// read-then-write per line.
	for a := uint64(0); a < span; a += mem.Line {
		ctrl.LLCRead(a)
		ref.read(a)
	}
	for a := uint64(0); a < span; a += mem.Line {
		ctrl.LLCWrite(a)
		ref.write(a)
	}
	for a := uint64(0); a < span; a += mem.Line {
		ctrl.LLCRead(a)
		ref.read(a)
		ctrl.LLCWrite(a)
		ref.write(a)
	}
	if got, want := ctrl.Counters(), ref.counter; got != want {
		t.Fatalf("sequential divergence\n ctrl: %v\n ref:  %v", got, want)
	}
}
