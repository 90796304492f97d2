// Offline placement planning. AutoTM proper (Hildebrand et al.,
// ASPLOS'20) formulates tensor placement as an integer linear program
// over profiled kernel times; Execute's online Belady policy is the
// fast approximation. This file adds the offline counterpart: a static
// stash/keep decision per tensor, solved either greedily or exactly by
// branch and bound, so the repository can quantify how much plan
// quality the online heuristic leaves behind.
//
// The optimization problem ("stash selection"):
//
//	For each non-weight tensor t with live range [def_t, last_t],
//	choose x_t ∈ {KEEP, STASH}.
//	  KEEP:  t occupies DRAM for its whole live range; no move cost.
//	  STASH: t occupies DRAM only at the kernels that access it; in
//	         between it lives in NVRAM, costing one write after its
//	         definition and one read before each later use.
//	Subject to: at every kernel k, the resident bytes (weights +
//	KEEP-tensors live at k + STASH-tensors accessed at k) fit the
//	DRAM budget.
//	Minimize: total modeled move time of the stashed tensors.
//
// This is a covering/knapsack hybrid (NP-hard in general); programs
// small enough get the exact answer, larger ones the greedy bound.
package autotm

import (
	"fmt"
	"sort"

	"twolm/internal/compiler"
	"twolm/internal/core"
	"twolm/internal/mem"
	"twolm/internal/nn"
)

// Decision is a per-tensor placement choice.
type Decision uint8

const (
	// Keep holds the tensor in DRAM for its whole live range.
	Keep Decision = iota
	// Stash spills the tensor to NVRAM between uses.
	Stash
)

// StaticPlan is an offline placement for a compiled program.
type StaticPlan struct {
	Plan *compiler.Plan
	// Decisions has one entry per tensor (weights are always Keep).
	Decisions []Decision
	// MoveCost is the modeled total stash traffic time in seconds.
	MoveCost float64
	// Optimal records whether the solver proved optimality.
	Optimal bool
}

// stashProblem is the prepared optimization instance.
type stashProblem struct {
	plan   *compiler.Plan
	budget uint64
	// candidates are the stashable tensor IDs (non-weight, live over
	// more than one kernel).
	candidates []int
	// cost[i] is the move time of stashing candidates[i].
	cost []float64
	// accessedAt[t] marks kernels that read or write t.
	accessedAt map[int]map[int]bool
	// baseline[k] is resident bytes at k with everything kept.
	baseline []uint64
}

// moveCostSeconds models the stash traffic of one tensor: one NVRAM
// write after its definition plus one NVRAM read before each later
// use, at the sequential move bandwidths of Section III.
func moveCostSeconds(bytes uint64, uses int) float64 {
	const (
		nvramWriteBW = 10.6e9
		nvramReadBW  = 30.6e9
	)
	reads := uses - 1
	if reads < 0 {
		reads = 0
	}
	return float64(bytes)/nvramWriteBW + float64(reads)*float64(bytes)/nvramReadBW
}

// newStashProblem prepares the instance.
func newStashProblem(plan *compiler.Plan, budget uint64) *stashProblem {
	nK := len(plan.Prog.Kernels)
	p := &stashProblem{
		plan:       plan,
		budget:     budget,
		accessedAt: make(map[int]map[int]bool),
		baseline:   make([]uint64, nK),
	}
	uses := make(map[int]int)
	for ki, k := range plan.Prog.Kernels {
		for _, t := range k.Reads {
			markAccess(p.accessedAt, t, ki)
			uses[t]++
		}
		for _, t := range k.Writes {
			markAccess(p.accessedAt, t, ki)
			uses[t]++
		}
	}
	for t := range plan.Bytes {
		if plan.Prog.Tensors[t].Kind == nn.Weight {
			// Weights are pinned; count them into every kernel.
			for k := range p.baseline {
				p.baseline[k] += plan.Bytes[t]
			}
			continue
		}
		if plan.FirstDef[t] < 0 {
			continue
		}
		for k := plan.FirstDef[t]; k <= plan.LastUse[t] && k < nK; k++ {
			p.baseline[k] += plan.Bytes[t]
		}
		// Stashing only helps if the live range spans kernels beyond
		// the accesses themselves.
		if plan.LastUse[t] > plan.FirstDef[t]+1 {
			p.candidates = append(p.candidates, t)
			p.cost = append(p.cost, moveCostSeconds(plan.Bytes[t], uses[t]))
		}
	}
	return p
}

func markAccess(m map[int]map[int]bool, t, k int) {
	if m[t] == nil {
		m[t] = make(map[int]bool)
	}
	m[t][k] = true
}

// relief returns how many bytes stashing tensor t removes from kernel
// k's residency (its size if live-but-not-accessed there, else 0).
func (p *stashProblem) relief(t, k int) uint64 {
	if k < p.plan.FirstDef[t] || k > p.plan.LastUse[t] {
		return 0
	}
	if p.accessedAt[t][k] {
		return 0
	}
	return p.plan.Bytes[t]
}

// feasible reports whether the stash set satisfies every kernel's
// budget, returning the first violated kernel otherwise.
func (p *stashProblem) feasible(stash map[int]bool) (int, bool) {
	for k := range p.baseline {
		load := p.baseline[k]
		for t := range stash {
			load -= p.relief(t, k)
		}
		if load > p.budget {
			return k, false
		}
	}
	return -1, true
}

// totalCost sums the stash set's move time.
func (p *stashProblem) totalCost(stash map[int]bool) float64 {
	var c float64
	for i, t := range p.candidates {
		if stash[t] {
			c += p.cost[i]
		}
	}
	return c
}

// SolveGreedy picks, at each step, the candidate with the best
// relieved-bytes-per-second-of-move-cost ratio at the currently most
// overloaded kernel, until every kernel fits (or fails if none can).
func SolveGreedy(plan *compiler.Plan, budget uint64) (*StaticPlan, error) {
	p := newStashProblem(plan, budget)
	stash := make(map[int]bool)
	for {
		k, ok := p.feasible(stash)
		if ok {
			break
		}
		best, bestRatio := -1, 0.0
		for i, t := range p.candidates {
			if stash[t] {
				continue
			}
			r := p.relief(t, k)
			if r == 0 {
				continue
			}
			cost := p.cost[i]
			if cost <= 0 {
				cost = 1e-12
			}
			if ratio := float64(r) / cost; ratio > bestRatio {
				best, bestRatio = t, ratio
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("autotm: kernel %d cannot fit budget %s even with every tensor stashed",
				k, mem.FormatBytes(budget))
		}
		stash[best] = true
	}
	return p.finish(stash, false), nil
}

// SolveExact finds the minimum-cost stash set by branch and bound,
// exploring candidates in decreasing relief order with a greedy upper
// bound and an admissible lower bound. maxNodes caps the search; when
// exceeded the best-known (still feasible) solution is returned with
// Optimal=false.
func SolveExact(plan *compiler.Plan, budget uint64, maxNodes int) (*StaticPlan, error) {
	if maxNodes <= 0 {
		maxNodes = 1 << 16
	}
	p := newStashProblem(plan, budget)

	// Start from the greedy solution as the incumbent.
	greedy, err := SolveGreedy(plan, budget)
	if err != nil {
		return nil, err
	}
	bestCost := greedy.MoveCost
	bestSet := make(map[int]bool)
	for t, d := range greedy.decisionSet() {
		if d {
			bestSet[t] = true
		}
	}

	// Order candidates by cost ascending so cheap relief is tried
	// first.
	order := make([]int, len(p.candidates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return p.cost[order[a]] < p.cost[order[b]] })

	nodes := 0
	optimal := true
	current := make(map[int]bool)

	var dfs func(idx int, cost float64)
	dfs = func(idx int, cost float64) {
		nodes++
		if nodes > maxNodes {
			optimal = false
			return
		}
		if cost >= bestCost {
			return // bound
		}
		if _, ok := p.feasible(current); ok {
			// Feasible with the current set: cost is final (adding
			// more only raises it).
			bestCost = cost
			bestSet = make(map[int]bool, len(current))
			for t := range current {
				bestSet[t] = true
			}
			return
		}
		if idx >= len(order) {
			return // infeasible leaf
		}
		ci := order[idx]
		t := p.candidates[ci]
		// Branch 1: stash t.
		current[t] = true
		dfs(idx+1, cost+p.cost[ci])
		delete(current, t)
		// Branch 2: keep t.
		dfs(idx+1, cost)
	}
	dfs(0, 0)

	sp := p.finish(bestSet, optimal)
	return sp, nil
}

// decisionSet converts back to a map for the solver's incumbent.
func (s *StaticPlan) decisionSet() map[int]bool {
	out := make(map[int]bool)
	for t, d := range s.Decisions {
		if d == Stash {
			out[t] = true
		}
	}
	return out
}

// finish materializes a StaticPlan from a stash set.
func (p *stashProblem) finish(stash map[int]bool, optimal bool) *StaticPlan {
	sp := &StaticPlan{
		Plan:      p.plan,
		Decisions: make([]Decision, len(p.plan.Bytes)),
		MoveCost:  p.totalCost(stash),
		Optimal:   optimal,
	}
	for t := range stash {
		sp.Decisions[t] = Stash
	}
	return sp
}

// PeakResident returns the maximum per-kernel DRAM residency the
// static plan implies.
func (s *StaticPlan) PeakResident() uint64 {
	p := newStashProblem(s.Plan, ^uint64(0))
	var peak uint64
	for k := range p.baseline {
		load := p.baseline[k]
		for t, d := range s.Decisions {
			if d == Stash {
				load -= p.relief(t, k)
			}
		}
		if load > peak {
			peak = load
		}
	}
	return peak
}

// StashedBytes sums the sizes of stashed tensors.
func (s *StaticPlan) StashedBytes() uint64 {
	var n uint64
	for t, d := range s.Decisions {
		if d == Stash {
			n += s.Plan.Bytes[t]
		}
	}
	return n
}

// ExecuteStatic runs a compiled program on a 1LM system following the
// static plan: Keep tensors live in DRAM for their whole range, Stash
// tensors move out after their definition and back in before each
// later use. It is the offline counterpart of Execute's online policy
// and returns the same Result shape.
func ExecuteStatic(plan *compiler.Plan, sys *core.System, static *StaticPlan, cfg Config) (*Result, error) {
	if sys.Mode() != core.Mode1LM {
		return nil, fmt.Errorf("autotm: requires a 1LM (app-direct) system, got %v", sys.Mode())
	}
	if static.Plan != plan {
		return nil, fmt.Errorf("autotm: static plan was built for a different compilation")
	}
	if cfg.DRAMBudget == 0 {
		cfg.DRAMBudget = sys.Platform().DRAMSize() * 9 / 10
	}
	cfg.Exec = execDefaults(cfg.Exec)
	if peak := static.PeakResident(); peak > cfg.DRAMBudget {
		return nil, fmt.Errorf("autotm: static plan peaks at %s, above the %s budget",
			mem.FormatBytes(peak), mem.FormatBytes(cfg.DRAMBudget))
	}

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
	}
	sys.SetThreads(cfg.Exec.Threads)
	sys.SetTraffic(mem.Sequential, mem.Line)
	if cfg.Mover != nil {
		sys.SetDMABandwidth(cfg.Mover.Bandwidth)
	}
	sys.Sync("setup", 0)
	sys.ResetStats()
	start := sys.Clock()

	for ki := range plan.Prog.Kernels {
		k := &plan.Prog.Kernels[ki]
		moved := false
		// Restore stashed operands.
		for _, t := range k.Reads {
			if static.Decisions[t] == Stash && !p.state[t].resident {
				p.copy(p.nvramRegion(t), p.dramRegion(t))
				p.moveIn += plan.Bytes[t]
				p.state[t].resident = true
				moved = true
			}
		}
		if moved && cfg.Mover == nil {
			sys.Sync("move:"+k.Name, 0)
		}
		// Execute against DRAM.
		for _, t := range k.Reads {
			sys.LoadRange(p.dramRegion(t))
		}
		for _, t := range k.Writes {
			sys.StoreRange(p.dramRegion(t))
			p.state[t].resident = true
		}
		phase := "fwd"
		if ki >= plan.Prog.ForwardKernels {
			phase = "bwd"
		}
		sys.Sync(phase+":"+k.Name, plan.KernelSeconds(ki, cfg.Exec))

		// Stash producers whose value survives but whose next use is
		// later; drop everything dead.
		stashed := false
		for _, t := range k.Writes {
			if plan.LastUse[t] == ki {
				p.state[t].resident = false
				continue
			}
			if static.Decisions[t] == Stash {
				p.copy(p.dramRegion(t), p.nvramRegion(t))
				p.moveOut += plan.Bytes[t]
				p.state[t].resident = false
				stashed = true
			}
		}
		for _, t := range k.Reads {
			if plan.LastUse[t] == ki {
				p.state[t].resident = false
			} else if static.Decisions[t] == Stash && p.state[t].resident {
				// Re-stash only if the value was modified; reads leave
				// the NVRAM copy valid, so just drop the DRAM copy.
				p.state[t].resident = false
			}
		}
		if stashed && cfg.Mover == nil {
			sys.Sync("stash:"+k.Name, 0)
		}
	}
	sys.DrainLLC()
	sys.Sync("drain", 0)

	return &Result{
		Elapsed:      sys.Clock() - start,
		Counters:     sys.Counters(),
		Series:       sys.Series(),
		MoveInBytes:  p.moveIn,
		MoveOutBytes: p.moveOut,
	}, nil
}
