package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"twolm/internal/core"
	"twolm/internal/dram"
	"twolm/internal/engine"
	"twolm/internal/imc"
	"twolm/internal/mem"
)

// demandScale is the footprint divisor of the demand systems: a 24 MiB
// DRAM cache and a region twice its size (Fig. 4's miss-heavy regime).
const demandScale = 8192

// oraclePasses is how many timed passes the per-line reference replays;
// the timed system's counters after that many passes must match it.
const oraclePasses = 3

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 15

// demandRig is one operating mode's system and its measured region.
type demandRig struct {
	sys    *core.System
	region mem.Region
}

// demandInput is everything a demand run derives from --seed: the
// region's start offset (sequential) and the pass seeds (random).
type demandInput struct {
	random    bool
	offLines  uint64
	passSeed0 uint32
}

func newDemandInput(seed uint64, random bool) demandInput {
	sm := splitmix(seed)
	in := demandInput{random: random, passSeed0: sm.seed32()}
	if !random {
		in.offLines = sm.next() % 256
	}
	return in
}

// passSeed is the LFSR seed of timed pass p (never zero).
func (in demandInput) passSeed(p int) uint32 {
	s := in.passSeed0 + uint32(p)
	if s == 0 {
		s = 1
	}
	return s
}

// newDemandRig builds one system, narrows the region by the seeded
// offset, and runs the untimed warm-up pass.
func newDemandRig(mode core.Mode, in demandInput, tap bool) (*demandRig, error) {
	sys, region, err := engine.NewThroughputSystem(mode, demandScale)
	if err != nil {
		return nil, err
	}
	off := in.offLines * mem.Line
	region = mem.Region{Base: region.Base + off, Size: region.Size - off}
	if tap {
		// A no-op tap forces every demand operation down the per-line
		// reference path.
		sys.SetTap(func(core.TapOp, uint64) {})
	}
	engine.SeqPass(sys, region)
	return &demandRig{sys: sys, region: region}, nil
}

// pass runs timed pass p and returns the demand lines it simulated.
func (r *demandRig) pass(in demandInput, p int) (uint64, error) {
	if in.random {
		return engine.RandPass(r.sys, r.region, in.passSeed(p))
	}
	return engine.SeqPass(r.sys, r.region), nil
}

// demandSnap is every counter the oracle compares: the IMC events,
// per-channel CAS and the per-DIMM NVRAM interface and media counters.
type demandSnap struct {
	IMC   imc.Counters
	CAS   []dram.Channel
	DIMMs [][4]uint64
}

func snapDemand(sys *core.System) demandSnap {
	s := demandSnap{IMC: sys.Counters(), CAS: sys.DRAM().ChannelCounters()}
	nv := sys.NVRAM()
	for i := 0; i < nv.DIMMs(); i++ {
		d := nv.DIMMAt(i)
		s.DIMMs = append(s.DIMMs, [4]uint64{d.Reads, d.Writes, d.MediaReads, d.MediaWrites})
	}
	return s
}

// compareSnaps is the demand oracle: nil when got equals the per-line
// reference want field for field.
func compareSnaps(got, want demandSnap) error {
	if got.IMC != want.IMC {
		return fmt.Errorf("imc counters %v, reference %v", got.IMC, want.IMC)
	}
	if !reflect.DeepEqual(got.CAS, want.CAS) {
		return fmt.Errorf("per-channel CAS %v, reference %v", got.CAS, want.CAS)
	}
	if !reflect.DeepEqual(got.DIMMs, want.DIMMs) {
		return fmt.Errorf("NVRAM DIMM counters %v, reference %v", got.DIMMs, want.DIMMs)
	}
	return nil
}

// referenceSnap replays the warm-up and the first oraclePasses timed
// passes on a fresh system whose tap forces the per-line path.
func referenceSnap(mode core.Mode, in demandInput) (demandSnap, *core.System, error) {
	ref, err := newDemandRig(mode, in, true)
	if err != nil {
		return demandSnap{}, nil, err
	}
	for p := 0; p < oraclePasses; p++ {
		if _, err := ref.pass(in, p); err != nil {
			return demandSnap{}, nil, err
		}
	}
	return snapDemand(ref.sys), ref.sys, nil
}

// phase is one mode's timed passes.
type phase struct {
	passMS      []float64
	linesPerSec []float64
	snap        demandSnap // after oraclePasses passes
}

// sliceTime is how long a run stays on one mode (or worker count,
// or client count) before switching to the other. Alternating in
// short slices spreads every metric over the whole run, so a slow
// stretch of a shared host weighs on all of them alike instead of on
// whichever one happened to be timed then.
const sliceTime = 250 * time.Millisecond

// runSlice times passes on rig until the slice ends (at least one),
// snapshotting counters outside the timed region once the oracle's
// pass count is reached.
func (ph *phase) runSlice(rig *demandRig, in demandInput, until time.Time, tr *tracer, parent int, rep *report) error {
	name := "engine.SeqPass"
	if in.random {
		name = "engine.RandPass"
	}
	for first := true; first || time.Now().Before(until); first = false {
		p := len(ph.passMS)
		id := tr.begin(name, parent)
		t := time.Now()
		n, err := rig.pass(in, p)
		d := time.Since(t)
		tr.end(id)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			return err
		}
		ph.passMS = append(ph.passMS, ms(d))
		ph.linesPerSec = append(ph.linesPerSec, float64(n)/d.Seconds())
		if p+1 == oraclePasses {
			ph.snap = snapDemand(rig.sys)
		}
	}
	return nil
}

// demandResult carries what the traced run derives layer metrics from.
type demandResult struct {
	in      demandInput
	phases  map[core.Mode]*phase
	refs    map[core.Mode]*core.System
	rigs    map[core.Mode]*demandRig
	setupMS []float64
}

// runDemand is the seq-demand / rand-demand workload: set-up, timed
// 2LM and 1LM passes in alternating slices, then the oracle.
func runDemand(cfg runConfig, random bool, tr *tracer, rep *report) (*demandResult, error) {
	in := newDemandInput(cfg.seed, random)
	res := &demandResult{in: in, phases: map[core.Mode]*phase{}, refs: map[core.Mode]*core.System{}}
	modes := []core.Mode{core.Mode2LM, core.Mode1LM}

	for i := 0; i < setupReps; i++ {
		res.rigs = nil
		runtime.GC()
		id := tr.begin("setup", 0)
		t := time.Now()
		rigs := map[core.Mode]*demandRig{}
		for _, m := range modes {
			rig, err := newDemandRig(m, in, false)
			if err != nil {
				return nil, err
			}
			rigs[m] = rig
		}
		res.setupMS = append(res.setupMS, ms(time.Since(t)))
		tr.end(id)
		res.rigs = rigs
	}

	for _, m := range modes {
		res.phases[m] = &phase{}
	}
	// The modes alternate in slices until the seconds are spent and
	// each has run enough passes for the oracle.
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	enough := func() bool {
		for _, m := range modes {
			if len(res.phases[m].passMS) < oraclePasses+2 {
				return false
			}
		}
		return true
	}
	for time.Now().Before(deadline) || !enough() {
		for _, m := range modes {
			id := tr.begin("phase."+m.String(), 0)
			err := res.phases[m].runSlice(res.rigs[m], in, time.Now().Add(sliceTime), tr, id, rep)
			tr.end(id)
			if err != nil {
				return nil, err
			}
		}
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}

	id := tr.begin("oracle", 0)
	for _, m := range modes {
		rep.check(m.String()+" ValidateCounters", res.rigs[m].sys.ValidateCounters())
		want, ref, err := referenceSnap(m, in)
		if err != nil {
			return nil, err
		}
		rep.check(m.String()+" reference ValidateCounters", ref.ValidateCounters())
		rep.check(fmt.Sprintf("%s counters after %d passes vs per-line reference", m, oraclePasses),
			compareSnaps(res.phases[m].snap, want))
		res.refs[m] = ref
	}
	tr.end(id)

	p2, p1 := res.phases[core.Mode2LM], res.phases[core.Mode1LM]
	for _, m := range modes {
		lps := res.phases[m].linesPerSec
		rep.notef("%s passes: lines/s q1 %.4g, median %.4g, q3 %.4g over %d passes",
			m, quantile(lps, 0.25), median(lps), quantile(lps, 0.75), len(lps))
	}
	rep.add("setup_s", "s", median(res.setupMS)/1000, len(res.setupMS))
	rep.add("throughput_per_s", "1/s", median(p2.linesPerSec), len(p2.linesPerSec))
	rep.add("throughput_alt_per_s", "1/s", median(p1.linesPerSec), len(p1.linesPerSec))
	rep.add("latency_p50_ms", "ms", median(p2.passMS), len(p2.passMS))
	rep.add("peak_rss_mib", "MiB", rss, 1)
	return res, nil
}
