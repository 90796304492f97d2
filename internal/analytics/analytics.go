// Package analytics implements the Galois-lonestar graph kernels of
// the paper's Section VI — breadth-first search, connected components,
// k-core decomposition and pagerank-push — instrumented to drive the
// memory-system simulator while computing real results.
//
// Every array the algorithms touch (CSR offsets, edges, and the
// per-node property arrays) is placed in the simulated address space;
// each element access is forwarded to the System, whose on-chip cache
// model coalesces same-line touches exactly as hardware would. The
// kernels close a Sync interval per round, producing the time series
// of the paper's Figure 9.
package analytics

import (
	"fmt"
	"math"

	"twolm/internal/core"
	"twolm/internal/graph"
	"twolm/internal/imc"
	"twolm/internal/lfsr"
	"twolm/internal/mem"
	"twolm/internal/telemetry"
)

// Config wires a kernel run.
type Config struct {
	// Sys is the simulated system.
	Sys *core.System
	// G is the input graph, already placed at Layout.
	G      *graph.Graph
	Layout graph.Layout
	// AllocProp allocates property arrays; it encodes the placement
	// policy (flat in 2LM, NUMA-preferred in 1LM, DRAM-pinned for
	// Sage).
	AllocProp func(size uint64) (mem.Region, error)
	// Threads is the modeled worker count (96 in the paper's graph
	// experiments).
	Threads int

	// PRRounds bounds pagerank-push (the paper runs 100 rounds; scaled
	// runs use fewer). 0 selects the default.
	PRRounds int
	// PRTolerance is the pagerank residual threshold (paper: 1e-6).
	PRTolerance float64
	// KCoreK is the k-core parameter (paper: k=100 on billion-edge
	// graphs; scaled graphs use a k matched to their degree scale).
	KCoreK int
	// MaxRounds bounds iterative kernels against pathological inputs.
	MaxRounds int
	// SequentialOrder makes round-based kernels visit nodes in
	// ascending order. The default (false) visits them in a shuffled
	// order, matching Galois's unordered worklist scheduling — which
	// is what turns the CSR scan of an over-capacity graph into the
	// random miss stream the paper measures.
	SequentialOrder bool
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 96
	}
	if c.PRRounds <= 0 {
		c.PRRounds = 10
	}
	if c.PRTolerance <= 0 {
		c.PRTolerance = 1e-6
	}
	if c.KCoreK <= 0 {
		c.KCoreK = 10
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 1000
	}
	return c
}

// Result reports one kernel execution.
type Result struct {
	Kernel  string
	Elapsed float64
	Delta   imc.Counters
	Rounds  int
	// Output holds the kernel's computed answer for correctness
	// checks: []uint32 distances (bfs), []uint32 labels (cc),
	// remaining-node count (kcore), []float32 ranks (pr).
	Output any
	// Series is the per-round counter trace.
	Series *telemetry.Recorder
}

// DemandGB returns CPU-visible traffic in (scaled) decimal GB.
func (r Result) DemandGB() float64 {
	return float64(r.Delta.Demand()*mem.Line) / mem.GB
}

// runner carries shared per-kernel state.
type runner struct {
	cfg  Config
	sys  *core.System
	g    *graph.Graph
	l    graph.Layout
	ctr0 imc.Counters
	t0   float64
	n0   int // samples before the run
}

func newRunner(cfg Config) (*runner, error) {
	cfg = cfg.withDefaults()
	if cfg.Sys == nil || cfg.G == nil || cfg.AllocProp == nil {
		return nil, fmt.Errorf("analytics: Sys, G and AllocProp are required")
	}
	cfg.Sys.SetThreads(cfg.Threads)
	cfg.Sys.SetTraffic(mem.Random, mem.Line)
	cfg.Sys.SetStreams(4) // offsets + edges + properties + write-backs
	// Graph traversal chains dependent accesses (offset -> edges ->
	// property); deep worklists recover some parallelism across
	// activities, but nowhere near the hardware's 10+ line-fill
	// buffers.
	cfg.Sys.SetMLP(3.5)
	return &runner{
		cfg:  cfg,
		sys:  cfg.Sys,
		g:    cfg.G,
		l:    cfg.Layout,
		ctr0: cfg.Sys.Counters(),
		t0:   cfg.Sys.Clock(),
		n0:   cfg.Sys.Series().Len(),
	}, nil
}

func (r *runner) finish(kernel string, rounds int, output any) Result {
	r.sys.DrainLLC()
	r.sys.Sync(kernel+":drain", 0)
	return Result{
		Kernel:  kernel,
		Elapsed: r.sys.Clock() - r.t0,
		Delta:   r.sys.Counters().Sub(r.ctr0),
		Rounds:  rounds,
		Output:  output,
		Series:  r.sys.Series().Window(r.n0),
	}
}

// forEachNode visits every node once, in worklist (shuffled) or
// sequential order per the configuration.
func (r *runner) forEachNode(round int, fn func(u uint32)) {
	n := uint64(r.g.NumNodes())
	if r.cfg.SequentialOrder {
		for u := uint64(0); u < n; u++ {
			fn(uint32(u))
		}
		return
	}
	// Unordered-worklist stand-in: a deterministic shuffled order that
	// changes per round.
	if err := lfsr.Sequence(n, uint32(round)*2654435761+1, func(u uint64) {
		fn(uint32(u))
	}); err != nil {
		// Falls back to sequential order on generator failure (cannot
		// happen for in-range node counts).
		for u := uint64(0); u < n; u++ {
			fn(uint32(u))
		}
	}
}

// allocProp allocates a 4-byte-per-node property array.
func (r *runner) allocProp(name string) (mem.Region, error) {
	reg, err := r.cfg.AllocProp(uint64(r.g.NumNodes()) * 4)
	if err != nil {
		return mem.Region{}, fmt.Errorf("analytics: allocating %s: %w", name, err)
	}
	return reg, nil
}

// --- simulated element accesses ---------------------------------------

// loadElem records a 4-byte element load.
func (r *runner) loadElem(reg mem.Region, idx uint32) {
	r.sys.Load(reg.Base + uint64(idx)*4)
}

// rmwElem records a read-modify-write of a 4-byte element (load + RFO
// + deferred writeback, coalesced on chip).
func (r *runner) rmwElem(reg mem.Region, idx uint32) {
	r.sys.RMW(reg.Base + uint64(idx)*4)
}

// storeElem records a 4-byte element store.
func (r *runner) storeElem(reg mem.Region, idx uint32) {
	r.sys.Store(reg.Base + uint64(idx)*4)
}

// loadSpan records loads covering elements [start, end) of a 4-byte
// array — one access per cache line, the way a scan reads it.
func (r *runner) loadSpan(reg mem.Region, start, end uint32) {
	if start >= end {
		return
	}
	first := reg.Base + uint64(start)*4
	last := reg.Base + uint64(end)*4 - 1
	for a := first &^ (mem.Line - 1); a <= last; a += mem.Line {
		r.sys.Load(a)
	}
}

// neighbors reads node u's degree bounds and adjacency list, recording
// the offset loads and the edge-array scan.
func (r *runner) neighbors(u uint32) []uint32 {
	r.loadElem(r.l.Offsets, u)
	r.loadElem(r.l.Offsets, u+1)
	start, end := r.g.Offsets[u], r.g.Offsets[u+1]
	r.loadSpan(r.l.Edges, start, end)
	return r.g.Edges[start:end]
}

// --- kernels -----------------------------------------------------------

// InfDist marks unreached nodes in BFS output.
const InfDist = math.MaxUint32

// BFS runs frontier-based breadth-first search from src and returns
// the distance array.
func BFS(cfg Config, src uint32) (Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return Result{}, err
	}
	distReg, err := r.allocProp("dist")
	if err != nil {
		return Result{}, err
	}
	n := r.g.NumNodes()
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = InfDist
	}
	dist[src] = 0
	r.storeElem(distReg, src)

	frontier := []uint32{src}
	level := uint32(0)
	rounds := 0
	for len(frontier) > 0 && rounds < r.cfg.MaxRounds {
		level++
		rounds++
		var next []uint32
		for _, u := range frontier {
			for _, v := range r.neighbors(u) {
				r.loadElem(distReg, v)
				if dist[v] == InfDist {
					dist[v] = level
					r.storeElem(distReg, v)
					next = append(next, v)
				}
			}
		}
		frontier = next
		r.sys.Sync(fmt.Sprintf("bfs:level%d", level), 0)
	}
	return r.finish("bfs", rounds, dist), nil
}

// CC runs label-propagation connected components (over the directed
// edges treated as undirected via symmetric propagation) and returns
// the label array.
func CC(cfg Config) (Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return Result{}, err
	}
	labReg, err := r.allocProp("labels")
	if err != nil {
		return Result{}, err
	}
	n := r.g.NumNodes()
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = uint32(i)
	}
	rounds := 0
	for changed := true; changed && rounds < r.cfg.MaxRounds; {
		changed = false
		rounds++
		r.forEachNode(rounds, func(u uint32) {
			lu := labels[u]
			r.loadElem(labReg, u)
			for _, v := range r.neighbors(u) {
				r.loadElem(labReg, v)
				switch {
				case labels[v] < lu:
					lu = labels[v]
				case labels[v] > lu:
					// Symmetric propagation: push the smaller label
					// out along the edge.
					labels[v] = lu
					r.storeElem(labReg, v)
					changed = true
				}
			}
			if lu != labels[u] {
				labels[u] = lu
				r.storeElem(labReg, u)
				changed = true
			}
		})
		r.sys.Sync(fmt.Sprintf("cc:round%d", rounds), 0)
	}
	return r.finish("cc", rounds, labels), nil
}

// KCore peels nodes of degree < k until a fixed point and returns the
// number of nodes remaining in the k-core.
func KCore(cfg Config) (Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return Result{}, err
	}
	degReg, err := r.allocProp("degrees")
	if err != nil {
		return Result{}, err
	}
	k := r.cfg.KCoreK
	n := r.g.NumNodes()
	deg := make([]int32, n)
	alive := make([]bool, n)
	var worklist []uint32
	for u := 0; u < n; u++ {
		d := int32(r.g.OutDegree(uint32(u)))
		deg[u] = d
		alive[u] = true
		r.storeElem(degReg, uint32(u))
		if d < int32(k) {
			worklist = append(worklist, uint32(u))
		}
	}
	r.sys.Sync("kcore:init", 0)

	rounds := 0
	for len(worklist) > 0 && rounds < r.cfg.MaxRounds {
		rounds++
		var next []uint32
		for _, u := range worklist {
			if !alive[u] {
				continue
			}
			alive[u] = false
			for _, v := range r.neighbors(u) {
				if !alive[v] {
					continue
				}
				r.rmwElem(degReg, v)
				deg[v]--
				if deg[v] == int32(k)-1 {
					next = append(next, v)
				}
			}
		}
		worklist = next
		r.sys.Sync(fmt.Sprintf("kcore:round%d", rounds), 0)
	}
	remaining := 0
	for _, a := range alive {
		if a {
			remaining++
		}
	}
	return r.finish("kcore", rounds, remaining), nil
}

// PRAlpha is the pagerank damping factor.
const PRAlpha = 0.85

// PageRank runs residual-based pagerank-push for cfg.PRRounds rounds
// (or until all residuals drop below tolerance) and returns the rank
// array. Pushes mutate the residual array in place — the write-heavy
// access pattern the paper identifies as pathological under 2LM.
func PageRank(cfg Config) (Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return Result{}, err
	}
	rankReg, err := r.allocProp("ranks")
	if err != nil {
		return Result{}, err
	}
	resReg, err := r.allocProp("residuals")
	if err != nil {
		return Result{}, err
	}
	n := r.g.NumNodes()
	rank := make([]float32, n)
	residual := make([]float32, n)
	for i := range residual {
		residual[i] = 1 - PRAlpha
		r.storeElem(resReg, uint32(i))
	}
	r.sys.Sync("pr:init", 0)

	tol := float32(r.cfg.PRTolerance)
	rounds := 0
	for ; rounds < r.cfg.PRRounds; rounds++ {
		active := 0
		r.forEachNode(rounds+1, func(u uint32) {
			r.loadElem(resReg, u)
			res := residual[u]
			if res <= tol {
				return
			}
			active++
			rank[u] += res
			r.rmwElem(rankReg, u)
			residual[u] = 0
			r.storeElem(resReg, u)
			nbrs := r.neighbors(u)
			if len(nbrs) == 0 {
				return
			}
			share := res * PRAlpha / float32(len(nbrs))
			for _, v := range nbrs {
				residual[v] += share
				r.rmwElem(resReg, v)
			}
		})
		r.sys.Sync(fmt.Sprintf("pr:round%d", rounds+1), 0)
		if active == 0 {
			rounds++
			break
		}
	}
	return r.finish("pr", rounds, rank), nil
}
