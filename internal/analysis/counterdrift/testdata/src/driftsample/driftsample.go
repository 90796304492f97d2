// Package driftsample carries a field through Add, Sub and String but
// not through the Sample conversion, the one copy every counter trace
// is built from.
package driftsample

import "fmt"

type Counters struct {
	Reads  uint64
	Writes uint64
	// Flushes is aggregated and rendered, but Sample forgets it.
	Flushes uint64 // want `Flushes is not referenced in Counters\.Sample`
}

func (c Counters) Add(o Counters) Counters {
	c.Reads += o.Reads
	c.Writes += o.Writes
	c.Flushes += o.Flushes
	return c
}

func (c Counters) Sub(o Counters) Counters {
	c.Reads -= o.Reads
	c.Writes -= o.Writes
	c.Flushes -= o.Flushes
	return c
}

func (c Counters) String() string {
	return fmt.Sprintf("r=%d w=%d f=%d", c.Reads, c.Writes, c.Flushes)
}

// Sample is the trace shape the counters convert into.
type Sample struct{ Reads, Writes, Flushes uint64 }

func (c Counters) Sample() Sample {
	return Sample{Reads: c.Reads, Writes: c.Writes}
}
