package main

import (
	"time"

	"twolm/internal/cache"
	"twolm/internal/dram"
	"twolm/internal/imc"
	"twolm/internal/lfsr"
	"twolm/internal/mem"
	"twolm/internal/nvram"
)

// shape is a workload's stream shape as the standalone layer drives
// replay it on freshly built objects: the geometry its controllers
// have and the footprint and order of its demand stream.
type shape struct {
	dramBytes  uint64
	channels   int
	nvramBytes uint64
	dimms      int
	lines      uint64 // footprint lines one pass touches
	seed       uint32 // LFSR seed of the random order
}

// driveBudget is how long each standalone drive repeats its pass.
const driveBudget = 150 * time.Millisecond

// repeat runs one pass at least three times and until driveBudget has
// elapsed, returning the median pass time. Each call of pass is one
// span under parent.
func repeat(tr *tracer, name string, parent int, pass func()) time.Duration {
	var ds []float64
	start := time.Now()
	for len(ds) < 3 || time.Since(start) < driveBudget {
		id := tr.begin(name, parent)
		t := time.Now()
		pass()
		ds = append(ds, float64(time.Since(t)))
		tr.end(id)
	}
	return time.Duration(median(ds))
}

func nsPer(d time.Duration, n uint64) float64 { return float64(d) / float64(n) }

// lfsrAddrs returns the shape's footprint line addresses in LFSR order.
func (s shape) lfsrAddrs() ([]uint64, error) {
	st, err := lfsr.NewStream(s.lines, s.seed)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, 0, s.lines)
	var buf [2048]uint32
	for {
		k, err := st.Fill(buf[:])
		if err != nil {
			return nil, err
		}
		if k == 0 {
			return out, nil
		}
		for _, v := range buf[:k] {
			out = append(out, uint64(v)<<mem.LineShift)
		}
	}
}

// newController builds a fresh controller of the shape at ways.
func (s shape) newController(ways int) (*imc.Controller, error) {
	d, err := dram.New(s.channels, s.dramBytes)
	if err != nil {
		return nil, err
	}
	n, err := nvram.New(s.dimms, s.nvramBytes)
	if err != nil {
		return nil, err
	}
	p := imc.HardwarePolicy()
	p.Ways = ways
	return imc.New(d, n, imc.WithPolicy(p))
}

// layerDrives are the standalone per-layer timings of one shape, and
// the ways=1 scatter controller (for its per-channel balance).
type layerDrives struct {
	imc     *imc.Controller
	metrics []metric
}

// runLayerDrives times every in-process layer on fresh objects fed the
// shape's stream: imc ranges and scatter (ways 1 and 4), cache probe
// and stamp, dram range and per-line, nvram line runs and batches, and
// the lfsr stream itself.
func runLayerDrives(s shape, tr *tracer) (*layerDrives, error) {
	out := &layerDrives{}
	add := func(name string, v float64) {
		out.metrics = append(out.metrics, metric{Name: name, Unit: "ns", Value: v, N: 1})
	}
	root := tr.begin("layer-drives", 0)
	defer tr.end(root)
	addrs, err := s.lfsrAddrs()
	if err != nil {
		return nil, err
	}
	n := uint64(len(addrs))

	id := tr.begin("lfsr", root)
	var buf [2048]uint32
	d := repeat(tr, "lfsr.Stream.Fill", id, func() {
		st, err := lfsr.NewStream(s.lines, s.seed)
		if err != nil {
			return
		}
		for {
			if k, err := st.Fill(buf[:]); err != nil || k == 0 {
				return
			}
		}
	})
	add("lfsr.fill_ns_per_index", nsPer(d, s.lines))
	tr.end(id)

	// imc: sequential ranges, then LFSR-ordered scatter at ways 1 and 4.
	id = tr.begin("imc", root)
	ctrl, err := s.newController(1)
	if err != nil {
		return nil, err
	}
	ctrl.LLCReadRange(0, s.lines)
	d = repeat(tr, "imc.LLCReadRange+LLCWriteRange", id, func() {
		ctrl.LLCReadRange(0, s.lines)
		ctrl.LLCWriteRange(0, s.lines)
	})
	add("imc.range_ns_per_line", nsPer(d, 2*s.lines))
	reqs := make([]imc.Req, n)
	for i, a := range addrs {
		if i&1 == 0 {
			reqs[i] = imc.ReadReq(a)
		} else {
			reqs[i] = imc.WriteReq(a)
		}
	}
	for _, ways := range []int{1, 4} {
		c, err := s.newController(ways)
		if err != nil {
			return nil, err
		}
		pass := func() {
			for i := 0; i < len(reqs); i += 2048 {
				c.LLCScatter(reqs[i:min(i+2048, len(reqs))])
			}
		}
		pass()
		d := repeat(tr, "imc.LLCScatter", id, pass)
		if ways == 1 {
			out.imc = c
			add("imc.scatter_ns_per_line.ways1", nsPer(d, n))
		} else {
			add("imc.scatter_ns_per_line.ways4", nsPer(d, n))
		}
	}
	tr.end(id)

	// cache: probe+install over the LFSR set/tag stream; bulk stamp.
	id = tr.begin("cache", root)
	tags, err := cache.NewAssoc(s.dramBytes, 1)
	if err != nil {
		return nil, err
	}
	sets := make([]uint64, n)
	tagv := make([]uint32, n)
	for i, a := range addrs {
		sets[i], tagv[i] = tags.Index(a)
	}
	d = repeat(tr, "cache.ProbeAt+InstallTag", id, func() {
		for i := range sets {
			h, res := tags.ProbeAt(sets[i], tagv[i])
			if res != cache.Hit {
				tags.InstallTag(h, tagv[i])
			}
		}
	})
	add("cache.probe_install_ns", nsPer(d, n))
	var tag uint32
	d = repeat(tr, "cache.StampSeqRun", id, func() {
		tag++
		tags.StampSeqRun(0, tag, s.lines, cache.EntryValid)
	})
	add("cache.stamp_ns_per_line", nsPer(d, s.lines))
	tr.end(id)

	// dram: closed-form ranges and per-line CAS on LFSR addresses.
	id = tr.begin("dram", root)
	dm, err := dram.New(s.channels, s.dramBytes)
	if err != nil {
		return nil, err
	}
	const rangeReps = 1024
	d = repeat(tr, "dram.ReadRange+WriteRange", id, func() {
		for i := 0; i < rangeReps; i++ {
			dm.ReadRange(uint64(i)*mem.Line, s.lines)
			dm.WriteRange(uint64(i)*mem.Line, s.lines)
		}
	})
	add("dram.range_ns_per_line", nsPer(d, 2*rangeReps*s.lines))
	d = repeat(tr, "dram.Read/Write", id, func() {
		for i, a := range addrs {
			if i&1 == 0 {
				dm.Read(a)
			} else {
				dm.Write(a)
			}
		}
	})
	add("dram.line_ns", nsPer(d, n))
	tr.end(id)

	// nvram: ascending line runs and LFSR-ordered batches.
	id = tr.begin("nvram", root)
	nm, err := nvram.New(s.dimms, s.nvramBytes)
	if err != nil {
		return nil, err
	}
	d = repeat(tr, "nvram.ReadLineRun+WriteLineRun", id, func() {
		nm.ReadLineRun(0, s.lines)
		nm.WriteLineRun(0, s.lines)
	})
	add("nvram.linerun_ns_per_line", nsPer(d, 2*s.lines))
	d = repeat(tr, "nvram.ReadBatch+WriteBatch", id, func() {
		for i := 0; i < len(addrs); i += 2048 {
			chunk := addrs[i:min(i+2048, len(addrs))]
			nm.ReadBatch(chunk)
			nm.WriteBatch(chunk)
		}
	})
	add("nvram.batch_ns_per_line", nsPer(d, 2*n))
	tr.end(id)
	return out, nil
}
