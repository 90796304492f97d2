// Package driftok is the clean shape: every field flows through Add,
// Sub, String, and Sample, and the merge delegates to Add.
package driftok

import "fmt"

type Counters struct {
	Reads  uint64
	Writes uint64
}

func (c Counters) Add(o Counters) Counters {
	c.Reads += o.Reads
	c.Writes += o.Writes
	return c
}

func (c Counters) Sub(o Counters) Counters {
	c.Reads -= o.Reads
	c.Writes -= o.Writes
	return c
}

func (c Counters) String() string {
	return fmt.Sprintf("r=%d w=%d", c.Reads, c.Writes)
}

// Sample is the trace shape the counters convert into.
type Sample struct{ Reads, Writes uint64 }

func (c Counters) Sample() Sample {
	return Sample{Reads: c.Reads, Writes: c.Writes}
}

// MergeCounters aggregates through Add, so new fields can never fall
// out of the merge.
func MergeCounters(cs ...Counters) Counters {
	var total Counters
	for _, c := range cs {
		total = total.Add(c)
	}
	return total
}
