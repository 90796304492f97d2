// Package autotm implements software-managed tensor movement for
// compiled CNN training programs over a 1LM (app-direct) system — the
// reproduction of AutoTM (Hildebrand et al., ASPLOS'20), the software
// baseline of the paper's Section VII-A-1.
//
// AutoTM proper formulates tensor placement as an integer linear
// program over a profile of kernel run times. This package substitutes
// a profile-guided planner with the same observable behaviors the
// paper relies on (see DESIGN.md):
//
//   - kernels compute on DRAM-resident operands; tensors move between
//     NVRAM and DRAM synchronously between kernels, using sequential
//     loads and nontemporal stores (the access patterns Section III
//     shows reach full device bandwidth);
//   - eviction is profile-guided Belady: the resident tensor with the
//     farthest next use leaves first;
//   - *semantically dead data is never written back*: a tensor past
//     its last use is dropped, and a clean tensor is re-fetched rather
//     than re-written — eliding exactly the write-backs the 2LM cache
//     cannot avoid;
//   - consequently NVRAM writes happen (almost) only while stashing
//     live activations during the forward pass, and NVRAM reads while
//     restoring them during the backward pass (the paper's Figure 10).
package autotm

import (
	"fmt"
	"sort"

	"twolm/internal/compiler"
	"twolm/internal/core"
	"twolm/internal/dma"
	"twolm/internal/imc"
	"twolm/internal/mem"
	"twolm/internal/nn"
	"twolm/internal/telemetry"
)

// Config parameterizes the planner.
type Config struct {
	// DRAMBudget is the scaled DRAM pool available for tensors; 0
	// selects 90% of the system's DRAM (leaving OS headroom).
	DRAMBudget uint64
	// Exec carries the compute-time model shared with 2LM execution.
	Exec compiler.ExecConfig
	// Mover selects an asynchronous copy engine for tensor movement —
	// the paper's hardware/software co-design direction. Nil keeps the
	// baseline AutoTM behavior: CPU cores moving data with loads and
	// nontemporal stores, synchronously between kernels.
	Mover *dma.Engine
}

// Result reports one AutoTM-managed training iteration.
type Result struct {
	// Elapsed is the simulated iteration time in seconds.
	Elapsed float64
	// Counters holds the iteration's memory traffic.
	Counters imc.Counters
	// Series is the per-kernel trace (the paper's Figure 10).
	Series *telemetry.Recorder
	// MoveInBytes and MoveOutBytes are the planner's explicit transfer
	// volumes (scaled).
	MoveInBytes  uint64
	MoveOutBytes uint64
	// Spilled reports how many tensor move-ins were needed (plan
	// quality diagnostic).
	Spilled int
}

// DRAMReadBytes et al. report traffic in bytes at simulation scale.
func (r *Result) DRAMReadBytes() uint64   { return r.Counters.DRAMRead * mem.Line }
func (r *Result) DRAMWriteBytes() uint64  { return r.Counters.DRAMWrite * mem.Line }
func (r *Result) NVRAMReadBytes() uint64  { return r.Counters.NVRAMRead * mem.Line }
func (r *Result) NVRAMWriteBytes() uint64 { return r.Counters.NVRAMWrite * mem.Line }

// residency tracks one tensor's placement state.
type residency struct {
	resident bool
	dirty    bool // modified since last NVRAM copy (or never copied)
	dramAddr uint64
}

// planner executes a plan with software-managed movement.
type planner struct {
	plan *compiler.Plan
	sys  *core.System
	cfg  Config

	nvramHome mem.Region // NVRAM backing store, plan-offset addressed
	dramBase  uint64     // base of the DRAM tensor pool
	budget    uint64
	inUse     uint64

	state []residency
	// uses[t] lists kernel indices that touch t, ascending; cursor[t]
	// indexes the next use.
	uses   [][]int
	cursor []int

	moveIn, moveOut uint64
	spills          int
	// dramFree is a trivial offset allocator over the DRAM pool; the
	// 1LM simulator only distinguishes pools, so fragmentation is
	// modeled by byte accounting rather than address packing.
	dramNext uint64
}

// Execute runs plan on a 1LM system under software management and
// measures one iteration (after an unmeasured stabilization pass is
// unnecessary — placement is deterministic, so the first iteration is
// already steady apart from the initial weight load, which is charged
// to setup and excluded like the paper's warmup iterations).
func Execute(plan *compiler.Plan, sys *core.System, cfg Config) (*Result, error) {
	if sys.Mode() != core.Mode1LM {
		return nil, fmt.Errorf("autotm: requires a 1LM (app-direct) system, got %v", sys.Mode())
	}
	if cfg.DRAMBudget == 0 {
		cfg.DRAMBudget = sys.Platform().DRAMSize() * 9 / 10
	}
	cfg.Exec = execDefaults(cfg.Exec)

	nvramHome, err := sys.AddressSpace().AllocNVRAM(plan.HeapSize)
	if err != nil {
		return nil, fmt.Errorf("autotm: NVRAM home: %w", err)
	}
	dramPool, err := sys.AddressSpace().AllocDRAM(cfg.DRAMBudget)
	if err != nil {
		return nil, fmt.Errorf("autotm: DRAM pool: %w", err)
	}

	p := &planner{
		plan:      plan,
		sys:       sys,
		cfg:       cfg,
		nvramHome: nvramHome,
		dramBase:  dramPool.Base,
		budget:    cfg.DRAMBudget,
		state:     make([]residency, len(plan.Bytes)),
		uses:      make([][]int, len(plan.Bytes)),
		cursor:    make([]int, len(plan.Bytes)),
	}
	for ki, k := range plan.Prog.Kernels {
		for _, t := range k.Reads {
			p.uses[t] = append(p.uses[t], ki)
		}
		for _, t := range k.Writes {
			p.uses[t] = append(p.uses[t], ki)
		}
	}

	sys.SetThreads(cfg.Exec.Threads)
	sys.SetTraffic(mem.Sequential, mem.Line)
	if cfg.Mover != nil {
		sys.SetDMABandwidth(cfg.Mover.Bandwidth)
	}

	// Setup: pin the (small) weights in DRAM, excluded from the
	// measured iteration like the paper's warmup.
	for i := range plan.Bytes {
		if plan.Prog.Tensors[i].Kind == nn.Weight {
			if err := p.moveInTensor(i, 0, false, map[int]bool{i: true}); err != nil {
				return nil, err
			}
		}
	}
	sys.Sync("setup", 0)
	sys.ResetStats()

	start := sys.Clock()
	if err := p.run(); err != nil {
		return nil, err
	}

	return &Result{
		Elapsed:      sys.Clock() - start,
		Counters:     sys.Counters(),
		Series:       sys.Series(),
		MoveInBytes:  p.moveIn,
		MoveOutBytes: p.moveOut,
		Spilled:      p.spills,
	}, nil
}

func execDefaults(c compiler.ExecConfig) compiler.ExecConfig {
	if c.Threads <= 0 {
		c.Threads = 24
	}
	return c
}

// dramRegion returns the pool region assigned to tensor t. Addresses
// wrap within the pool: the 1LM model needs pool membership and
// channel spread only, while capacity is enforced by byte accounting.
func (p *planner) dramRegion(t int) mem.Region {
	size := p.plan.Bytes[t]
	off := p.plan.Offsets[t] % p.budget
	if off+size > p.budget {
		// Keep the region inside the pool; exact placement is
		// irrelevant to the 1LM model.
		off = p.budget - size
	}
	return mem.Region{Base: p.dramBase + off, Size: size}
}

// nvramRegion returns tensor t's NVRAM home.
func (p *planner) nvramRegion(t int) mem.Region {
	return p.plan.Region(p.nvramHome.Base, t)
}

// nextUse returns the next kernel index at or after k that uses t, or
// a sentinel past the program end.
func (p *planner) nextUse(t, k int) int {
	u := p.uses[t]
	for p.cursor[t] < len(u) && u[p.cursor[t]] < k {
		p.cursor[t]++
	}
	if p.cursor[t] < len(u) {
		return u[p.cursor[t]]
	}
	return len(p.plan.Prog.Kernels) + 1
}

// ensureBudget evicts resident tensors (farthest next use first) until
// need bytes fit. Tensors in keep are not evicted.
func (p *planner) ensureBudget(need uint64, k int, keep map[int]bool) error {
	if need > p.budget {
		return fmt.Errorf("autotm: tensor set of %s exceeds DRAM budget %s",
			mem.FormatBytes(need), mem.FormatBytes(p.budget))
	}
	if p.inUse+need <= p.budget {
		return nil
	}
	// Collect eviction candidates.
	type cand struct {
		t    int
		next int
	}
	var cands []cand
	for t := range p.state {
		if p.state[t].resident && !keep[t] {
			cands = append(cands, cand{t, p.nextUse(t, k)})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].next > cands[b].next })
	for _, c := range cands {
		if p.inUse+need <= p.budget {
			return nil
		}
		p.evict(c.t, k)
	}
	if p.inUse+need > p.budget {
		return fmt.Errorf("autotm: cannot free %s for kernel %d", mem.FormatBytes(need), k)
	}
	return nil
}

// evict removes tensor t from DRAM. Live, modified tensors are written
// back to their NVRAM home (sequential reads + nontemporal stores —
// the bandwidth-optimal pattern of Section III). Dead or clean tensors
// are dropped with no traffic: the dead-data elision 2LM cannot do.
func (p *planner) evict(t, k int) {
	st := &p.state[t]
	if !st.resident {
		return
	}
	live := p.plan.LastUse[t] >= k
	if live && st.dirty {
		p.copy(p.dramRegion(t), p.nvramRegion(t))
		p.moveOut += p.plan.Bytes[t]
		st.dirty = false
	}
	st.resident = false
	p.inUse -= p.plan.Bytes[t]
}

// copy transfers src to dst through the configured mover: CPU loads
// plus nontemporal stores by default, or the asynchronous copy engine.
func (p *planner) copy(src, dst mem.Region) {
	if p.cfg.Mover != nil {
		p.sys.DMACopy(src, dst)
		return
	}
	p.sys.LoadRange(src)
	p.sys.StoreNTRange(dst)
}

// moveInTensor makes tensor t resident. When fetch is true the tensor's
// contents are copied from its NVRAM home (needed for reads; a tensor
// about to be fully overwritten needs only an allocation). Tensors in
// keep — the current kernel's full operand set — are exempt from
// eviction so staging one operand cannot displace another.
func (p *planner) moveInTensor(t, k int, fetch bool, keep map[int]bool) error {
	st := &p.state[t]
	if st.resident {
		return nil
	}
	if err := p.ensureBudget(p.plan.Bytes[t], k, keep); err != nil {
		return err
	}
	if fetch {
		p.copy(p.nvramRegion(t), p.dramRegion(t))
		p.moveIn += p.plan.Bytes[t]
		p.spills++
	}
	st.resident = true
	st.dirty = !fetch // fresh allocations have no NVRAM copy yet
	p.inUse += p.plan.Bytes[t]
	return nil
}

// run executes every kernel with operands staged in DRAM.
func (p *planner) run() error {
	for ki := range p.plan.Prog.Kernels {
		k := &p.plan.Prog.Kernels[ki]

		// Stage operands. Everything the kernel touches must stay
		// resident together.
		keep := make(map[int]bool, len(k.Reads)+len(k.Writes))
		for _, t := range k.Reads {
			keep[t] = true
		}
		for _, t := range k.Writes {
			keep[t] = true
		}
		movedBefore := p.moveIn + p.moveOut
		for _, t := range k.Reads {
			if err := p.moveInTensor(t, ki, true, keep); err != nil {
				return err
			}
		}
		for _, t := range k.Writes {
			// First definition needs no fetch; rewrites of existing
			// tensors (gradient accumulation) do, unless resident.
			fetch := p.plan.FirstDef[t] != ki
			if err := p.moveInTensor(t, ki, fetch, keep); err != nil {
				return err
			}
		}
		// CPU moves are synchronous: "tensors are usually moved between
		// DRAM and NVRAM synchronously between compute kernel
		// execution" (Section VII-A-1), so their time does not overlap
		// the kernel's compute. Engine moves stay in the kernel's
		// interval, where Sync overlaps them with compute — the
		// co-design payoff.
		if p.cfg.Mover == nil && p.moveIn+p.moveOut > movedBefore {
			p.sys.Sync("move:"+k.Name, 0)
		}

		// Execute the kernel against DRAM.
		for _, t := range k.Reads {
			p.sys.LoadRange(p.dramRegion(t))
		}
		for _, t := range k.Writes {
			p.sys.StoreRange(p.dramRegion(t))
			p.state[t].dirty = true
		}

		phase := "fwd"
		if ki >= p.plan.Prog.ForwardKernels {
			phase = "bwd"
		}
		p.sys.Sync(phase+":"+k.Name, p.plan.KernelSeconds(ki, p.cfg.Exec))

		// Retire dead tensors immediately: their space frees with no
		// write-back.
		for _, t := range k.Reads {
			p.retireIfDead(t, ki)
		}
		for _, t := range k.Writes {
			p.retireIfDead(t, ki)
		}
	}
	p.sys.DrainLLC()
	p.sys.Sync("drain", 0)
	return nil
}

// retireIfDead drops tensor t if kernel k was its last use.
func (p *planner) retireIfDead(t, k int) {
	if p.plan.Prog.Tensors[t].Kind == nn.Weight {
		return
	}
	if p.plan.LastUse[t] == k && p.state[t].resident {
		p.state[t].resident = false
		p.state[t].dirty = false
		p.inUse -= p.plan.Bytes[t]
	}
}
