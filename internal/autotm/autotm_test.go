package autotm

import (
	"strings"
	"testing"

	"twolm/internal/compiler"
	"twolm/internal/core"
	"twolm/internal/dma"
	"twolm/internal/mem"
	"twolm/internal/nn"
	"twolm/internal/platform"
)

// buildPlan compiles a small training program whose footprint exceeds
// the test system's DRAM, forcing tensor movement.
func buildPlan(t *testing.T, batch int) *compiler.Plan {
	t.Helper()
	b := nn.NewBuilder("tiny", batch)
	x := b.Input(16, 16, 3)
	for i := 0; i < 6; i++ {
		x = b.Conv(x, 3, 1, 1, 16)
		x = b.BatchNorm(x)
		x = b.ReLU(x)
	}
	x = b.GlobalAvgPool(x)
	logits := b.FC(x, 10)
	prog, err := b.Train(logits)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compiler.Compile(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// newSystem builds a 1LM system whose DRAM is a fraction of the plan
// footprint.
func newSystem(t *testing.T, mode core.Mode, dramPerChannel uint64) *core.System {
	t.Helper()
	sys, err := core.New(core.Config{
		Platform: platform.Config{
			Sockets: 1, ChannelsPerSocket: 6,
			DRAMPerChannel:  dramPerChannel,
			NVRAMPerChannel: 512 * mem.MiB,
			Scale:           1, Threads: 24,
		},
		Mode:     mode,
		LLCBytes: 16 * mem.KiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestRequires1LM(t *testing.T) {
	plan := buildPlan(t, 4)
	sys := newSystem(t, core.Mode2LM, mem.MiB)
	if _, err := Execute(plan, sys, Config{}); err == nil {
		t.Error("2LM system accepted")
	}
}

// TestUnderPressureMovesTensors: with DRAM smaller than the footprint
// the planner must spill and refill.
func TestUnderPressureMovesTensors(t *testing.T) {
	plan := buildPlan(t, 64)
	// DRAM budget ~1/4 of footprint.
	sys := newSystem(t, core.Mode1LM, mem.AlignUp(plan.HeapSize/24, mem.Line))
	res, err := Execute(plan, sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MoveOutBytes == 0 || res.MoveInBytes == 0 {
		t.Errorf("no movement under pressure: in=%d out=%d", res.MoveInBytes, res.MoveOutBytes)
	}
	if res.Counters.NVRAMWrite == 0 || res.Counters.NVRAMRead == 0 {
		t.Error("no NVRAM traffic under pressure")
	}
}

// TestFitsInDRAMNoMovement: when everything fits, AutoTM never touches
// NVRAM after setup.
func TestFitsInDRAMNoMovement(t *testing.T) {
	plan := buildPlan(t, 4)
	sys := newSystem(t, core.Mode1LM, 4*plan.HeapSize)
	res, err := Execute(plan, sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MoveOutBytes != 0 {
		t.Errorf("moved %d bytes out despite fitting", res.MoveOutBytes)
	}
	if res.Counters.NVRAMWrite != 0 || res.Counters.NVRAMRead != 0 {
		t.Errorf("NVRAM traffic despite fitting: %v", res.Counters)
	}
}

// TestDeadDataElision is the headline property: NVRAM write traffic
// must be bounded by the bytes of *live* tensors stashed for the
// backward pass — dead data is never written back.
func TestDeadDataElision(t *testing.T) {
	plan := buildPlan(t, 64)
	sys := newSystem(t, core.Mode1LM, mem.AlignUp(plan.HeapSize/24, mem.Line))
	res, err := Execute(plan, sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Every NVRAM write byte must be matched by a later (or equal)
	// read byte: stashed data is read back on the backward pass, and
	// nothing else is ever written. Slack of one tensor covers data
	// stashed but re-fetched in the same phase.
	w := res.Counters.NVRAMWrite * mem.Line
	r := res.Counters.NVRAMRead * mem.Line
	if w > r+w/10 {
		t.Errorf("NVRAM writes (%d) exceed reads (%d): dead data written back", w, r)
	}
	if res.MoveOutBytes != w {
		t.Errorf("move-out accounting mismatch: %d vs %d", res.MoveOutBytes, w)
	}
}

// TestPhaseSeparation: NVRAM writes happen in the forward pass and
// reads in the backward pass (the paper's Figure 10).
func TestPhaseSeparation(t *testing.T) {
	plan := buildPlan(t, 64)
	sys := newSystem(t, core.Mode1LM, mem.AlignUp(plan.HeapSize/24, mem.Line))
	res, err := Execute(plan, sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var fwdW, bwdW, fwdR, bwdR uint64
	phase := "fwd"
	for _, d := range res.Series.Deltas() {
		if strings.HasPrefix(d.Label, "bwd:") {
			phase = "bwd"
		}
		if phase == "fwd" {
			fwdW += d.NVRAMWrite
			fwdR += d.NVRAMRead
		} else {
			bwdW += d.NVRAMWrite
			bwdR += d.NVRAMRead
		}
	}
	if fwdW == 0 {
		t.Error("no forward-pass NVRAM writes (no stashing?)")
	}
	if bwdR == 0 {
		t.Error("no backward-pass NVRAM reads (no restore?)")
	}
	// The shape: writes concentrate forward, reads backward.
	if bwdW > fwdW/4 {
		t.Errorf("backward NVRAM writes %d too large vs forward %d", bwdW, fwdW)
	}
	if fwdR > bwdR/2 {
		t.Errorf("forward NVRAM reads %d too large vs backward %d", fwdR, bwdR)
	}
}

// TestBudgetRespected: the planner errors when one kernel's operand
// set cannot fit.
func TestBudgetRespected(t *testing.T) {
	plan := buildPlan(t, 64)
	// Budget far below the largest kernel footprint.
	sys := newSystem(t, core.Mode1LM, mem.MiB)
	_, err := Execute(plan, sys, Config{DRAMBudget: 4 * mem.KiB})
	if err == nil {
		t.Error("impossible budget accepted")
	}
}

// TestDMAMoverOverlapsMoves: with a fast asynchronous engine, moves
// hide under compute and the run gets faster than synchronous CPU
// copies, with identical traffic volumes.
func TestDMAMoverOverlapsMoves(t *testing.T) {
	plan := buildPlan(t, 64)
	budget := mem.AlignUp(plan.HeapSize/24, mem.Line)

	cpuSys := newSystem(t, core.Mode1LM, budget)
	cpuRes, err := Execute(plan, cpuSys, Config{})
	if err != nil {
		t.Fatal(err)
	}

	engine := dma.FutureGen()
	dmaSys := newSystem(t, core.Mode1LM, budget)
	dmaRes, err := Execute(plan, dmaSys, Config{Mover: &engine})
	if err != nil {
		t.Fatal(err)
	}

	if dmaRes.Elapsed >= cpuRes.Elapsed {
		t.Errorf("async engine (%.5fs) not faster than CPU copies (%.5fs)", dmaRes.Elapsed, cpuRes.Elapsed)
	}
	if dmaRes.MoveInBytes != cpuRes.MoveInBytes || dmaRes.MoveOutBytes != cpuRes.MoveOutBytes {
		t.Errorf("mover changed the movement plan: in %d/%d out %d/%d",
			dmaRes.MoveInBytes, cpuRes.MoveInBytes, dmaRes.MoveOutBytes, cpuRes.MoveOutBytes)
	}
	// Engine moves bypass the CPU path: no RFOs for move traffic means
	// fewer LLC reads overall.
	if dmaRes.Counters.LLCRead >= cpuRes.Counters.LLCRead {
		t.Errorf("engine moves still went through the CPU: llcR %d vs %d",
			dmaRes.Counters.LLCRead, cpuRes.Counters.LLCRead)
	}
}

// TestSlowDMAMoverHurts: an engine slower than the devices becomes the
// bottleneck — the paper's point about current I/O-oriented DMA.
func TestSlowDMAMoverHurts(t *testing.T) {
	plan := buildPlan(t, 64)
	budget := mem.AlignUp(plan.HeapSize/24, mem.Line)

	cpuSys := newSystem(t, core.Mode1LM, budget)
	cpuRes, err := Execute(plan, cpuSys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	slow := dma.Engine{Name: "crawler", Bandwidth: 5e8} // 0.5 GB/s
	slowSys := newSystem(t, core.Mode1LM, budget)
	slowRes, err := Execute(plan, slowSys, Config{Mover: &slow})
	if err != nil {
		t.Fatal(err)
	}
	if slowRes.Elapsed <= cpuRes.Elapsed {
		t.Errorf("0.5 GB/s engine (%.5fs) should be slower than CPU copies (%.5fs)",
			slowRes.Elapsed, cpuRes.Elapsed)
	}
}

// TestFasterThan2LMUnderPressure: the paper's bottom line for CNNs.
func TestFasterThan2LMUnderPressure(t *testing.T) {
	plan := buildPlan(t, 128)
	dramPerChannel := mem.AlignUp(plan.HeapSize/24, mem.Line) // DRAM ~ 1/4 of footprint
	sys1 := newSystem(t, core.Mode1LM, dramPerChannel)
	r1, err := Execute(plan, sys1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sys2 := newSystem(t, core.Mode2LM, dramPerChannel)
	r2, err := compiler.Execute(plan, sys2, compiler.ExecConfig{WarmupIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Elapsed >= r2.Elapsed {
		t.Errorf("AutoTM (%.4fs) not faster than 2LM (%.4fs)", r1.Elapsed, r2.Elapsed)
	}
	// And with less NVRAM traffic.
	nv1 := r1.Counters.NVRAMRead + r1.Counters.NVRAMWrite
	nv2 := r2.Counters.NVRAMRead + r2.Counters.NVRAMWrite
	if nv1 >= nv2 {
		t.Errorf("AutoTM NVRAM traffic (%d) not below 2LM (%d)", nv1, nv2)
	}
}
