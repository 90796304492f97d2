// CNN case-study experiments: Figure 5 (DenseNet 2LM iteration trace),
// Figure 6 (dense-block kernel bandwidth snapshot), Figure 10 (the
// same iteration under AutoTM) and Table II (traffic and runtime for
// all three networks, 2LM vs AutoTM).

package experiments

import (
	"fmt"
	"strings"

	"twolm/internal/autotm"
	"twolm/internal/compiler"
	"twolm/internal/core"
	"twolm/internal/mem"
	"twolm/internal/nn"
	"twolm/internal/platform"
	"twolm/internal/results"
	"twolm/internal/telemetry"
)

// CNNConfig parameterizes the CNN case study.
type CNNConfig struct {
	// Scale is the footprint divisor (power of two; default 1024).
	Scale uint64
	// Batches overrides the per-network batch sizes; the defaults are
	// chosen so every footprint exceeds 650 GB unscaled, as the paper
	// requires ("we scaled the training batch size until the overall
	// footprint of these applications exceeded 650GB").
	DenseNetBatch, ResNetBatch, InceptionBatch int
	// Warmup iterations before measurement (the paper uses two).
	Warmup int
}

// DefaultCNNConfig returns the calibrated study configuration.
func DefaultCNNConfig() CNNConfig {
	return CNNConfig{
		Scale:          1024,
		DenseNetBatch:  1664,
		ResNetBatch:    1792,
		InceptionBatch: 3584,
		Warmup:         1,
	}
}

func (c CNNConfig) withDefaults() CNNConfig {
	d := DefaultCNNConfig()
	if c.Scale == 0 {
		c.Scale = d.Scale
	}
	if c.DenseNetBatch == 0 {
		c.DenseNetBatch = d.DenseNetBatch
	}
	if c.ResNetBatch == 0 {
		c.ResNetBatch = d.ResNetBatch
	}
	if c.InceptionBatch == 0 {
		c.InceptionBatch = d.InceptionBatch
	}
	if c.Warmup == 0 {
		c.Warmup = d.Warmup
	}
	return c
}

// unscaleGB converts scaled bytes to unscaled decimal GB for reporting
// against the paper's tables.
func (c CNNConfig) unscaleGB(b uint64) float64 {
	return float64(b) * float64(c.Scale) / mem.GB
}

// unscaleSeconds converts simulated (scaled) seconds to the unscaled
// equivalent: bandwidths are real, footprints are divided by Scale, so
// times multiply back by Scale.
func (c CNNConfig) unscaleSeconds(s float64) float64 { return s * float64(c.Scale) }

// CompileNetwork builds and compiles one of the study networks by
// name: "densenet264", "resnet200" or "inceptionv4".
func (c CNNConfig) CompileNetwork(name string) (*compiler.Plan, error) {
	c = c.withDefaults()
	var (
		prog *nn.Program
		err  error
	)
	switch name {
	case "densenet264":
		prog, err = nn.DenseNet264(c.DenseNetBatch)
	case "resnet200":
		prog, err = nn.ResNet200(c.ResNetBatch)
	case "inceptionv4":
		prog, err = nn.InceptionV4(c.InceptionBatch)
	default:
		return nil, fmt.Errorf("experiments: unknown network %q", name)
	}
	if err != nil {
		return nil, err
	}
	return compiler.Compile(prog, c.Scale)
}

// Run2LM executes a plan on a fresh single-socket 2LM system.
func (c CNNConfig) Run2LM(plan *compiler.Plan) (*compiler.ExecResult, error) {
	c = c.withDefaults()
	sys, err := core.New(core.Config{
		Platform: platform.CascadeLake(1, c.Scale, 24),
		Mode:     core.Mode2LM,
	})
	if err != nil {
		return nil, err
	}
	return compiler.Execute(plan, sys, compiler.ExecConfig{WarmupIterations: c.Warmup})
}

// RunAutoTM executes a plan on a fresh single-socket 1LM system under
// software-managed tensor movement.
func (c CNNConfig) RunAutoTM(plan *compiler.Plan) (*autotm.Result, error) {
	c = c.withDefaults()
	sys, err := core.New(core.Config{
		Platform: platform.CascadeLake(1, c.Scale, 24),
		Mode:     core.Mode1LM,
	})
	if err != nil {
		return nil, err
	}
	return autotm.Execute(plan, sys, autotm.Config{})
}

// Fig5Result bundles the Figure 5 artifacts: the per-kernel trace
// (panels a-c) and the heap/liveness table (panel d).
type Fig5Result struct {
	Plan *compiler.Plan
	Exec *compiler.ExecResult
	// Trace is the counter series rebinned for plotting.
	Trace *telemetry.Recorder
	// Liveness has one row per sampled kernel: time, phase, heap
	// offsets touched and live bytes (the Figure 5d memory map).
	Liveness *results.Table
	// Heatmap is the Figure 5d heap picture as a character grid.
	Heatmap *compiler.LivenessMap
	// Summary carries the headline numbers.
	Summary *results.Table
}

// Fig5 reproduces Figure 5: the memory behavior of one 2LM training
// iteration of DenseNet 264 — tag statistics (b), bandwidth (c) and
// heap liveness (d). The MIPS panel (a) is not emitted.
func Fig5(cfg CNNConfig) (*Fig5Result, error) {
	cfg = cfg.withDefaults()
	plan, err := cfg.CompileNetwork("densenet264")
	if err != nil {
		return nil, err
	}
	exec, err := cfg.Run2LM(plan)
	if err != nil {
		return nil, err
	}

	live := results.NewTable("Figure 5d: heap usage through one DenseNet 264 training iteration",
		"time_s", "phase", "kernel", "live_gb", "write_off_gb", "write_end_gb")
	samples := exec.Series.Samples()
	ki := 0
	for _, s := range samples {
		if ki >= len(plan.Prog.Kernels) {
			break
		}
		k := plan.Prog.Kernels[ki]
		phase := "fwd"
		if ki >= plan.Prog.ForwardKernels {
			phase = "bwd"
		}
		// Sample every few kernels to keep the table readable.
		if ki%10 == 0 {
			lo, hi := ^uint64(0), uint64(0)
			for _, t := range k.Writes {
				if plan.Offsets[t] < lo {
					lo = plan.Offsets[t]
				}
				if end := plan.Offsets[t] + plan.Bytes[t]; end > hi {
					hi = end
				}
			}
			live.AddRow(
				fmt.Sprintf("%.1f", cfg.unscaleSeconds(s.Clock)),
				phase, k.Name,
				cfg.unscaleGB(plan.LiveBytesAt(ki)),
				cfg.unscaleGB(lo), cfg.unscaleGB(hi))
		}
		ki++
	}

	ctr := exec.Counters
	summary := results.NewTable("Figure 5: DenseNet 264 iteration summary (2LM)",
		"metric", "value")
	summary.AddRow("footprint_gb", cfg.unscaleGB(plan.HeapSize))
	summary.AddRow("runtime_s", cfg.unscaleSeconds(exec.Elapsed))
	summary.AddRow("tag_hit_rate", ctr.HitRate())
	summary.AddRow("tag_miss_dirty", fmt.Sprint(ctr.TagMissDirty))
	summary.AddRow("tag_miss_clean", fmt.Sprint(ctr.TagMissClean))
	summary.AddRow("dirty_share_of_misses", float64(ctr.TagMissDirty)/float64(ctr.TagMissDirty+ctr.TagMissClean))
	summary.AddRow("dram_read_gb", cfg.unscaleGB(exec.DRAMReadBytes()))
	summary.AddRow("dram_write_gb", cfg.unscaleGB(exec.DRAMWriteBytes()))
	summary.AddRow("nvram_read_gb", cfg.unscaleGB(exec.NVRAMReadBytes()))
	summary.AddRow("nvram_write_gb", cfg.unscaleGB(exec.NVRAMWriteBytes()))

	heatmap, err := compiler.NewLivenessMap(plan, 100, 24)
	if err != nil {
		return nil, err
	}

	return &Fig5Result{
		Plan:     plan,
		Exec:     exec,
		Trace:    exec.Series.Rebin(exec.Elapsed / 200),
		Liveness: live,
		Heatmap:  heatmap,
		Summary:  summary,
	}, nil
}

// Fig6 reproduces Figure 6: a high-resolution bandwidth snapshot of
// consecutive dense-block kernels during the DenseNet forward pass,
// annotated with kernel names — exposing Concat and BatchNorm as the
// bottleneck kernels.
func Fig6(cfg CNNConfig) (*results.Table, error) {
	cfg = cfg.withDefaults()
	plan, err := cfg.CompileNetwork("densenet264")
	if err != nil {
		return nil, err
	}
	exec, err := cfg.Run2LM(plan)
	if err != nil {
		return nil, err
	}
	table := results.NewTable("Figure 6: per-kernel bandwidth in two dense blocks (forward pass)",
		"time_s", "kernel", "dram_read_gbs", "dram_write_gbs", "nvram_read_gbs", "nvram_write_gbs", "dur_ms")
	// Two dense blocks = 2 x (BN, ReLU, Conv1x1, BN, ReLU, Conv3x3,
	// Concat) = 14 kernels, taken from the middle of the forward pass
	// where the cache is past its warm start (the paper samples around
	// t=152s of 524s).
	start := plan.Prog.ForwardKernels / 2
	count := 0
	samples := exec.Series.Samples()
	for i, d := range exec.Series.Deltas() {
		if !strings.HasPrefix(d.Label, "fwd:") {
			continue
		}
		count++
		if count < start {
			continue
		}
		table.AddRow(
			fmt.Sprintf("%.2f", cfg.unscaleSeconds(samples[i].Clock)),
			strings.TrimPrefix(d.Label, "fwd:"),
			d.DRAMReadBW()/mem.GB, d.DRAMWriteBW()/mem.GB,
			d.NVRAMReadBW()/mem.GB, d.NVRAMWriteBW()/mem.GB,
			d.Clock*float64(cfg.Scale)*1e3)
		if count >= start+14 {
			break
		}
	}
	return table, nil
}

// Fig10Result bundles the AutoTM trace and its phase summary.
type Fig10Result struct {
	Trace *telemetry.Recorder
	// PhaseTable shows that NVRAM writes concentrate in the forward
	// pass and NVRAM reads in the backward pass.
	PhaseTable *results.Table
}

// Fig10 reproduces Figure 10: memory bandwidth during one DenseNet 264
// iteration under AutoTM.
func Fig10(cfg CNNConfig) (*Fig10Result, error) {
	cfg = cfg.withDefaults()
	plan, err := cfg.CompileNetwork("densenet264")
	if err != nil {
		return nil, err
	}
	res, err := cfg.RunAutoTM(plan)
	if err != nil {
		return nil, err
	}
	// Phase attribution: moves belong to the phase of the kernel they
	// precede.
	var fwd, bwd struct{ nvR, nvW uint64 }
	samples := res.Series.Deltas()
	for i, d := range samples {
		if phaseOf(samples, i) == "bwd" {
			bwd.nvR += d.NVRAMRead
			bwd.nvW += d.NVRAMWrite
		} else {
			fwd.nvR += d.NVRAMRead
			fwd.nvW += d.NVRAMWrite
		}
	}
	table := results.NewTable("Figure 10: AutoTM NVRAM traffic by phase (DenseNet 264)",
		"phase", "nvram_read_gb", "nvram_write_gb")
	table.AddRow("forward", cfg.unscaleGB(fwd.nvR*mem.Line), cfg.unscaleGB(fwd.nvW*mem.Line))
	table.AddRow("backward", cfg.unscaleGB(bwd.nvR*mem.Line), cfg.unscaleGB(bwd.nvW*mem.Line))
	return &Fig10Result{
		Trace:      res.Series.Rebin(res.Elapsed / 200),
		PhaseTable: table,
	}, nil
}

// phaseOf resolves the training phase of sample i: its own label, or
// the next kernel label for "move:"/"setup"/"drain" samples.
func phaseOf(samples []telemetry.Sample, i int) string {
	for j := i; j < len(samples); j++ {
		l := samples[j].Label
		if strings.HasPrefix(l, "fwd:") {
			return "fwd"
		}
		if strings.HasPrefix(l, "bwd:") {
			return "bwd"
		}
	}
	return "bwd"
}

// Table2Row is one network's measurement.
type Table2Row struct {
	Network   string
	TwoLM     CNNRun
	AutoTM    CNNRun
	Speedup   float64
	NVRatio   float64 // AutoTM NVRAM traffic / 2LM NVRAM traffic
	Footprint float64 // unscaled GB
}

// CNNRun is one side of a Table II row (unscaled units).
type CNNRun struct {
	DRAMReadGB, DRAMWriteGB, NVRAMReadGB, NVRAMWriteGB float64
	RuntimeS                                           float64
}

// Table2 reproduces Table II: data moved and execution time for the
// three CNNs in 2LM and under AutoTM.
func Table2(cfg CNNConfig) (*results.Table, []Table2Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table2Row
	table := results.NewTable("Table II: data moved (GB) and runtime (s), 2LM vs AutoTM",
		"network", "mode", "dram_read", "dram_write", "nvram_read", "nvram_write", "runtime_s", "speedup")

	for _, name := range []string{"inceptionv4", "resnet200", "densenet264"} {
		plan, err := cfg.CompileNetwork(name)
		if err != nil {
			return nil, nil, err
		}
		r2, err := cfg.Run2LM(plan)
		if err != nil {
			return nil, nil, err
		}
		r1, err := cfg.RunAutoTM(plan)
		if err != nil {
			return nil, nil, err
		}
		row := Table2Row{
			Network: name,
			TwoLM: CNNRun{
				DRAMReadGB:   cfg.unscaleGB(r2.DRAMReadBytes()),
				DRAMWriteGB:  cfg.unscaleGB(r2.DRAMWriteBytes()),
				NVRAMReadGB:  cfg.unscaleGB(r2.NVRAMReadBytes()),
				NVRAMWriteGB: cfg.unscaleGB(r2.NVRAMWriteBytes()),
				RuntimeS:     cfg.unscaleSeconds(r2.Elapsed),
			},
			AutoTM: CNNRun{
				DRAMReadGB:   cfg.unscaleGB(r1.DRAMReadBytes()),
				DRAMWriteGB:  cfg.unscaleGB(r1.DRAMWriteBytes()),
				NVRAMReadGB:  cfg.unscaleGB(r1.NVRAMReadBytes()),
				NVRAMWriteGB: cfg.unscaleGB(r1.NVRAMWriteBytes()),
				RuntimeS:     cfg.unscaleSeconds(r1.Elapsed),
			},
			Footprint: cfg.unscaleGB(plan.HeapSize),
		}
		row.Speedup = row.TwoLM.RuntimeS / row.AutoTM.RuntimeS
		row.NVRatio = (row.AutoTM.NVRAMReadGB + row.AutoTM.NVRAMWriteGB) /
			(row.TwoLM.NVRAMReadGB + row.TwoLM.NVRAMWriteGB)
		rows = append(rows, row)
		table.AddRow(name, "2LM", row.TwoLM.DRAMReadGB, row.TwoLM.DRAMWriteGB,
			row.TwoLM.NVRAMReadGB, row.TwoLM.NVRAMWriteGB, row.TwoLM.RuntimeS, "")
		table.AddRow(name, "AutoTM", row.AutoTM.DRAMReadGB, row.AutoTM.DRAMWriteGB,
			row.AutoTM.NVRAMReadGB, row.AutoTM.NVRAMWriteGB, row.AutoTM.RuntimeS,
			fmt.Sprintf("%.2fx", row.Speedup))
	}
	return table, rows, nil
}
